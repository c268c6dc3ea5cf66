import bisect
import os
import subprocess
import sys

import numpy as np
import pytest

from flnp.rng import _GOLDEN, Rng, _mix


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


def test_integers_refuses_bounds_above_2_64():
    with pytest.raises(ValueError):
        Rng(1).integers(2**64 + 1, size=3)
    # The scalar path once rejected every draw of such a bound and never
    # returned, so it runs in a process of its own under a timeout.
    code = ("from flnp.rng import Rng\n"
            "try:\n    Rng(1).integers(2**64 + 1)\n"
            "except ValueError:\n    print('refused')\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.stdout.strip() == "refused", proc.stderr
    assert Rng(1).integers(2**64) == Rng(1).uint64()


@pytest.mark.parametrize("bound", [2**63, 2**63 + 1, 2**64 - 1, 2**64])
def test_integers_up_to_2_64_hold_every_draw_on_both_paths(bound):
    # int64 cannot hold a draw of 2**63 or more, so a larger bound's array is uint64
    drawn = Rng(1).integers(bound, size=40)
    scalar = Rng(1)
    assert drawn.dtype == (np.int64 if bound <= 2**63 else np.uint64)
    assert drawn.tolist() == [scalar.integers(bound) for _ in range(40)]
    assert all(0 <= d < bound for d in drawn.tolist())
    if bound > 2**63 + 1:
        assert max(drawn.tolist()) >= 2**63  # int64 would wrap these to negative values


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


def _reference(root: int, k: int) -> int:
    """Output at counter k, straight from the counter-mode definition."""
    return _mix((root + k * _GOLDEN) % 2**64)


def _reference_integers(root: int, k: int, bound: int, n: int) -> tuple[list[int], int]:
    """`integers(bound, size=n)` by its block rule: draw as many as are still
    missing, keep those below the limit, repeat."""
    limit = 2**64 - 2**64 % bound
    out: list[int] = []
    while len(out) < n:
        block = [_reference(root, k + 1 + i) for i in range(n - len(out))]
        k += len(block)
        out += [d % bound for d in block if d < limit]
    return out, k


def _reference_scalar(root: int, k: int, kind: str, arg) -> tuple[object, int]:
    """(value, counter after it) of one scalar draw that follows counter k."""
    if kind == "integers":
        limit = 2**64 - 2**64 % arg
        while True:
            k += 1
            draw = _reference(root, k)
            if draw < limit:
                return draw % arg, k
    k += 1
    draw = _reference(root, k)
    u = (draw >> 11) * 2.0**-53
    if kind == "uint64":
        return draw, k
    if kind == "random":
        return u, k
    return bisect.bisect_right(arg, u * arg[-1]), k


SCALAR_KINDS = [("uint64", None), ("random", None), ("integers", 7),
                ("integers", 2**63 + 1),  # rejects about half of all draws
                ("weighted_choice", np.cumsum([0.5, 0.2, 0.3]).tolist()),
                ("weighted_choice", np.cumsum([0.5, 0.2, 0.3]))]  # an array: the same indices

# name -> (array draw, counters it consumes after counter k; a split consumes none)
ARRAY_DRAWS = {
    "random": (lambda r: r.random(5), lambda root, k: k + 5),
    "uniform": (lambda r: r.uniform(-1.0, 1.0, (2, 3)), lambda root, k: k + 6),
    "normal": (lambda r: r.normal(0.0, 1.0, 3), lambda root, k: k + 4),
    "integers": (lambda r: r.integers(2**63 + 1, size=9),
                 lambda root, k: _reference_integers(root, k, 2**63 + 1, 9)[1]),
    "permutation": (lambda r: r.permutation(6), lambda root, k: k + 6),
    "shuffled": (lambda r: r.shuffled(list("abcd")), lambda root, k: k + 4),
    "split": (lambda r: r.split(5), lambda root, k: k),
}


@pytest.mark.parametrize("run", [63, 64, 65, 130])
def test_scalar_lookahead_matches_the_counter_reference(run):
    """Scalar draws equal the counter-mode definition across lookahead refills,
    array draws and splits, and `_count` is the number of outputs consumed."""
    for kind, arg in SCALAR_KINDS:
        for between, (draw, consumed) in ARRAY_DRAWS.items():
            rng = Rng(2024)
            root, k = rng._root, 0
            for step in range(2 * run):
                if step == run:
                    result = draw(rng)
                    if between == "random":
                        want = [(_reference(root, k + 1 + i) >> 11) * 2.0**-53 for i in range(5)]
                        assert result.tolist() == want
                    elif between == "integers":
                        assert result.tolist() == _reference_integers(root, k, 2**63 + 1, 9)[0]
                    elif between == "split":
                        assert result.uint64() == _reference(result._root, 1)
                    k = consumed(root, k)
                    assert rng._count == k, (kind, between)
                got = getattr(rng, kind)() if arg is None else getattr(rng, kind)(arg)
                want, k = _reference_scalar(root, k, kind, arg)
                assert type(got) is type(want)
                assert got == want, (kind, arg, between, step)
                assert rng._count == k
