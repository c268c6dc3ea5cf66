import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flnp.data import (
    Batch,
    CLS_ID,
    MASK_ID,
    MaskingConfig,
    NUM_RESERVED,
    PAD_ID,
    build_vocab,
    mask_batch,
    make_batches,
)
from flnp.models.config import ConfigError
from flnp.rng import Rng

VOCAB = build_vocab(["tok%02d " % i * (30 - i) for i in range(26)], max_size=30)


def _batch(ids: np.ndarray, lengths: np.ndarray) -> Batch:
    return Batch(input_ids=ids, lengths=lengths, labels=np.zeros(len(ids), dtype=np.int64))


def test_config_invariants():
    with pytest.raises(ConfigError):
        MaskingConfig(select_prob=1.5)
    with pytest.raises(ConfigError):
        MaskingConfig(mask_frac=0.8, random_frac=0.3)
    MaskingConfig(mask_frac=0.9, random_frac=0.0)  # 90/0/10 variant


def test_p_zero_changes_nothing():
    ids = np.array([[CLS_ID, 5, 6, 7, PAD_ID]])
    batch = _batch(ids, np.array([4]))
    out = mask_batch(batch, VOCAB, MaskingConfig(select_prob=0.0), Rng(1))
    assert np.array_equal(out.input_ids, ids)
    assert np.all(out.labels == -1)


def test_selected_fraction_near_p():
    # 5-sigma binomial band around 0.15 is well inside [0.14, 0.16] at n=100k
    rng = Rng(7)
    ids = 4 + rng.integers(VOCAB.size - 4, size=(1000, 100))
    batch = _batch(ids, np.full(1000, 100))
    out = mask_batch(batch, VOCAB, MaskingConfig(), Rng(2))
    frac = (out.labels != -1).mean()
    assert 0.14 <= frac <= 0.16


def test_kept_unchanged_fraction_near_ten_percent():
    rng = Rng(8)
    ids = 4 + rng.integers(VOCAB.size - 4, size=(1000, 100))
    batch = _batch(ids, np.full(1000, 100))
    out = mask_batch(batch, VOCAB, MaskingConfig(), Rng(3))
    selected = out.labels != -1
    kept = selected & (out.input_ids == ids)
    kept_frac = kept.sum() / selected.sum()
    assert 0.09 <= kept_frac <= 0.11
    masked_frac = (selected & (out.input_ids == MASK_ID)).sum() / selected.sum()
    assert 0.78 <= masked_frac <= 0.82


def test_labels_mark_exactly_the_selected_positions():
    rng = Rng(9)
    ids = 4 + rng.integers(VOCAB.size - 4, size=(50, 30))
    batch = _batch(ids, np.full(50, 30))
    out = mask_batch(batch, VOCAB, MaskingConfig(), Rng(4))
    selected = out.labels != -1
    assert np.array_equal(out.labels[selected], ids[selected])
    # unselected positions pass through unchanged
    assert np.array_equal(out.input_ids[~selected], ids[~selected])


def test_reconstruction_property():
    rng = Rng(10)
    ids = 4 + rng.integers(VOCAB.size - 4, size=(40, 25))
    batch = _batch(ids, np.full(40, 25))
    out = mask_batch(batch, VOCAB, MaskingConfig(), Rng(5))
    restored = np.where(out.labels != -1, out.labels, out.input_ids)
    assert np.array_equal(restored, ids)


def test_random_replacements_are_non_reserved():
    rng = Rng(11)
    ids = 4 + rng.integers(VOCAB.size - 4, size=(200, 50))
    batch = _batch(ids, np.full(200, 50))
    out = mask_batch(batch, VOCAB, MaskingConfig(mask_frac=0.0, random_frac=1.0), Rng(6))
    selected = out.labels != -1
    assert np.all(out.input_ids[selected] >= NUM_RESERVED)
    assert np.all(out.input_ids[selected] < VOCAB.size)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 8), width=st.integers(2, 24))
def test_pad_and_cls_never_selected(seed, rows, width):
    rng = Rng(seed)
    lengths = 1 + rng.integers(width, size=rows)
    ids = 4 + rng.integers(VOCAB.size - 4, size=(rows, width))
    ids[:, 0] = CLS_ID
    for r in range(rows):
        ids[r, lengths[r]:] = PAD_ID
    out = mask_batch(_batch(ids, lengths), VOCAB, MaskingConfig(select_prob=1.0), rng.split(1))
    selected = out.labels != -1
    assert not selected[:, 0].any()
    assert not selected[ids == PAD_ID].any()
    # every eligible position is selected at p=1
    eligible = (ids != PAD_ID) & (ids != CLS_ID) & (np.arange(width) < lengths[:, None])
    assert np.array_equal(selected, eligible)


def test_deterministic_given_stream():
    rng = Rng(12)
    ids = 4 + rng.integers(VOCAB.size - 4, size=(10, 10))
    batch = _batch(ids, np.full(10, 10))
    a = mask_batch(batch, VOCAB, MaskingConfig(), Rng(99))
    b = mask_batch(batch, VOCAB, MaskingConfig(), Rng(99))
    assert np.array_equal(a.input_ids, b.input_ids)
    assert np.array_equal(a.labels, b.labels)
