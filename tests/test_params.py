import numpy as np
import pytest

from flnp.params import ParameterSet


def _sample():
    return ParameterSet([
        ("a.w", np.array([[0.1, 0.2], [0.3, 0.4]])),
        ("a.b", np.array([1.0, 2.0])),
    ])


def test_preserves_order_and_shapes():
    ps = _sample()
    assert ps.names == ("a.w", "a.b")
    assert ps.manifest() == (("a.w", (2, 2)), ("a.b", (2,)))


def test_arrays_are_immutable_snapshots():
    src = np.zeros(3)
    ps = ParameterSet([("x", src)])
    src[0] = 99.0
    assert ps["x"][0] == 0.0
    with pytest.raises(ValueError):
        ps["x"][0] = 1.0


def test_duplicate_name_rejected():
    with pytest.raises(ValueError):
        ParameterSet([("x", np.zeros(1)), ("x", np.zeros(1))])


def test_equality_is_bitwise():
    assert _sample() == _sample()
    other = ParameterSet([
        ("a.w", np.array([[0.1, 0.2], [0.3, 0.4000001]])),
        ("a.b", np.array([1.0, 2.0])),
    ])
    assert _sample() != other


def test_quantize32_idempotent():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(5, 5))
    ps = ParameterSet([("w", values)])
    assert ps.quantize32() is ps
    assert np.array_equal(ps["w"], values.astype(np.float32))


def test_arrays_hold_wire_values():
    big = np.array([1e39, -1e39, 1.0 / 3.0])  # beyond float32 range rounds to +-inf
    ps = ParameterSet([("w", big), ("t", np.arange(6.0).reshape(2, 3).T)])
    for _, arr in ps.items():
        assert arr.dtype == np.dtype("<f4") and arr.flags.c_contiguous
    assert ps["w"].tolist() == [np.inf, -np.inf, float(np.float32(1.0 / 3.0))]
    assert ps["t"].tolist() == [[0.0, 3.0], [1.0, 4.0], [2.0, 5.0]]


def test_n_values():
    assert _sample().n_values() == 6
