import numpy as np
import pytest

from flnp.rng import Rng


def test_same_seed_same_stream():
    a = Rng(123).uint64((100,))
    b = Rng(123).uint64((100,))
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).uint64((10,)), Rng(2).uint64((10,)))


def test_split_is_stable_and_independent_of_position():
    parent = Rng(7)
    child_before = parent.split(3).uint64((5,))
    parent.uint64((50,))  # consume from the parent
    child_after = parent.split(3).uint64((5,))
    assert np.array_equal(child_before, child_after)


def test_split_keys_give_distinct_streams():
    parent = Rng(7)
    seen = {tuple(parent.split(k).uint64((4,))) for k in range(50)}
    assert len(seen) == 50


def test_block_and_scalar_generation_agree():
    scalars = [Rng(99).uint64() if i == 0 else None for i in range(1)]
    stream = Rng(99)
    block = stream.uint64((10,))
    one_by_one = Rng(99)
    singles = [one_by_one.uint64() for _ in range(10)]
    assert list(block) == singles
    assert scalars[0] == singles[0]

    # Every scalar draw, interleaved with array draws, equals the same draw
    # taken as a one-element array from a twin stream. 2**63 + 1 rejects
    # draws at or above 2**63 + 1, about half of them.
    cum = np.cumsum([0.5, 0.2, 0.3])
    kinds = [("uint64", ()), ("random", ()), ("integers", (7,)), ("integers", (2**63 + 1,)),
             ("weighted_choice", (cum,)), ("integers", (16,))]
    scalar_stream, array_stream = Rng(99), Rng(99)
    rejections = 0
    for step in range(300):
        kind, args = kinds[step % len(kinds)]
        if step % 4 == 0:
            size = 1 + step % 5
            assert np.array_equal(scalar_stream.random(size), array_stream.random(size))
            assert np.array_equal(scalar_stream.integers(2**63 + 1, size=size),
                                  array_stream.integers(2**63 + 1, size=size))
        before = scalar_stream._count
        got = getattr(scalar_stream, kind)(*args)
        rejections += scalar_stream._count - before - 1
        want = getattr(array_stream, kind)(*args, size=1)[0]
        assert type(got) is (float if kind == "random" else int)
        assert got == want, (step, kind)
        assert scalar_stream._count == array_stream._count
    assert rejections > 10


def test_random_in_unit_interval():
    u = Rng(5).random(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_normal_moments():
    z = Rng(11).normal(0.0, 1.0, 50_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_integers_range_and_coverage():
    draws = Rng(4).integers(7, size=5_000)
    assert draws.min() >= 0 and draws.max() < 7
    assert set(np.unique(draws)) == set(range(7))


def test_integers_power_of_two_bound():
    draws = Rng(4).integers(16, size=1_000)
    assert draws.min() >= 0 and draws.max() < 16


def test_integers_rejects_bad_bound():
    with pytest.raises(ValueError):
        Rng(0).integers(0)


def test_permutation_is_a_permutation():
    perm = Rng(21).permutation(100)
    assert sorted(perm) == list(range(100))


def test_shuffled_deterministic():
    items = list(range(20))
    assert Rng(3).shuffled(items) == Rng(3).shuffled(items)
    assert sorted(Rng(3).shuffled(items)) == items


def test_weighted_choice_prefers_heavy_entries():
    cum = np.cumsum([0.9, 0.05, 0.05])
    picks = Rng(8).weighted_choice(cum, size=2_000)
    assert (picks == 0).mean() > 0.8
    assert picks.max() <= 2
