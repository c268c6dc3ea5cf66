import mmap
import tracemalloc

import numpy as np
import pytest

from flnp.params import ParameterSet, mapped_buffer


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


def _owner(arr: np.ndarray):
    """The object whose memory `arr` views, or `arr` itself if it owns its memory."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    base = arr.base
    return arr if base is None else base.obj if isinstance(base, memoryview) else base


def test_a_set_views_one_page_mapped_buffer_of_its_own():
    src = np.arange(4.0)
    ps = ParameterSet([("a", src.reshape(2, 2)), ("b", src[:3]), ("empty", src[:0])])
    owners = {id(_owner(arr)) for _, arr in ps.items()}
    assert len(owners) == 1
    assert isinstance(_owner(ps["a"]), mmap.mmap)
    assert not np.shares_memory(ps["a"], src)
    assert all(arr.flags.c_contiguous and arr.flags.aligned for _, arr in ps.items())


def _resident_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * mmap.PAGESIZE / 2**20


@pytest.mark.skipif(not hasattr(mmap, "MAP_POPULATE"), reason="no MAP_POPULATE on this platform")
def test_a_buffer_for_reads_is_resident_only_where_written():
    # a frame in flight holds only the pages its bytes have reached
    before = _resident_mb()
    lazy = mapped_buffer(32 * 2**20)
    assert _resident_mb() - before < 8
    lazy[: 2**20] = bytes(2**20)
    assert _resident_mb() - before < 9
    built = mapped_buffer(32 * 2**20, populate=True)
    assert _resident_mb() - before > 30
    del lazy, built


def bert_set(seed: int) -> ParameterSet:
    """The bert preset's MLM set at the vocabulary of the bert_wire_tcp workload: 9.6 MB."""
    from flnp.models.base import init_params
    from flnp.models.config import preset

    return init_params(preset("bert", 130, 64), seed, "mlm")


def set_bytes(ps: ParameterSet) -> int:
    return sum(arr.nbytes for _, arr in ps.items())


def traced_peak(fn):
    """`fn()` and the peak of the heap it traced on top of what was already allocated."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        return fn(), tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_written_rounds_each_tensor_into_its_slot_in_manifest_order():
    filled = []

    def fill(flat):
        filled.append(flat.size)
        flat[...] = np.arange(7.0) + 0.1

    ps = ParameterSet.written([("a", (2, 3)), ("s", ()), ("e", (0, 4))], fill)
    assert filled == [7]
    assert ps == ParameterSet([("a", np.arange(6.0).reshape(2, 3) + 0.1), ("s", np.array(6.1)),
                               ("e", np.zeros((0, 4)))])
    assert len({id(_owner(arr)) for _, arr in ps.items()}) == 1
    assert not ps["a"].flags.writeable


def test_laid_out_refuses_a_tensor_past_its_capacity_and_a_duplicate_name():
    def entries(*names):
        return ((name, (2,), lambda out: None) for name in names)

    assert ParameterSet.laid_out(mapped_buffer(4 * 5), entries("a", "b")).names == ("a", "b")
    with pytest.raises(ValueError, match="overruns"):
        ParameterSet.laid_out(mapped_buffer(4 * 3), entries("a", "b"))
    with pytest.raises(ValueError, match="duplicate"):
        ParameterSet.laid_out(mapped_buffer(4 * 8), entries("a", "a"))


def _flat_paths(tmp_path):
    """One set of the bert_mini MLM manifest from each way a set is built."""
    from flnp.experiment.runner import load_params, save_params
    from flnp.models.base import init_params
    from flnp.models.config import preset
    from flnp.protocol.messages import GlobalModel
    from flnp.transport.codec import decode_message, encode_message

    init = init_params(preset("bert_mini", 40, 16), 3, "mlm")
    copied = ParameterSet((name, arr.astype(np.float64) * 3.0) for name, arr in init.items())
    frame = encode_message(GlobalModel(round=1, params=copied, local_epochs=1, lr=0.1))
    save_params(copied, str(tmp_path / "set.flnp"))
    return {"init_params": init, "ParameterSet": copied,
            "decoded": decode_message(frame).params, "load_params": load_params(str(tmp_path / "set.flnp"))}


def test_flat_is_every_value_read_only_in_manifest_order_on_every_path(tmp_path):
    for path, ps in _flat_paths(tmp_path).items():
        expected = np.concatenate([arr.reshape(-1) for _, arr in ps.items()])
        assert ps.flat.dtype == np.dtype("<f4"), path
        assert ps.flat.tobytes() == expected.tobytes(), path
        assert not ps.flat.flags.writeable, path
        with pytest.raises(ValueError):
            ps.flat[0] = 1.0
        used = 0
        for _, arr in ps.items():  # each tensor is its slot of the run
            assert np.shares_memory(arr, ps.flat[used : used + arr.size]) or arr.size == 0, path
            used += arr.size
        assert used == ps.flat.size, path
