import pytest

from flnp.data import CLS_ID, MASK_ID, PAD_ID, UNK_ID, build_vocab
from flnp.tensor import UsageError


def test_reserved_ids():
    assert (PAD_ID, UNK_ID, MASK_ID, CLS_ID) == (0, 1, 2, 3)


def test_frequency_order():
    vocab = build_vocab(["a a b"], max_size=6)
    assert vocab.encode_token("a") == 4
    assert vocab.encode_token("b") == 5


def test_unseen_token_maps_to_unk():
    vocab = build_vocab(["a a b"], max_size=6)
    assert vocab.encode_token("zzz") == UNK_ID


def test_lowercasing():
    vocab = build_vocab(["Foo FOO bar"], max_size=10)
    assert vocab.encode_token("foo") == vocab.encode_token("FOO") == 4


def test_tie_broken_lexicographically():
    vocab = build_vocab(["beta alpha"], max_size=10)
    assert vocab.encode_token("alpha") == 4
    assert vocab.encode_token("beta") == 5


def test_max_size_caps_vocabulary():
    vocab = build_vocab(["a a a b b c"], max_size=6)
    assert vocab.size == 6
    assert vocab.encode_token("c") == UNK_ID


def test_rebuild_is_identical():
    lines = ["x y z y", "z z q"]
    a = build_vocab(lines, 20)
    b = build_vocab(lines, 20)
    tokens = " ".join(lines).split()
    assert a.size == b.size
    assert a.encode(tokens) == b.encode(tokens)


def test_empty_corpus_rejected():
    with pytest.raises(UsageError):
        build_vocab([], max_size=10)


def test_encode_sequence():
    vocab = build_vocab(["a b"], max_size=10)
    assert vocab.encode(["a", "nope", "b"]) == [4, UNK_ID, 5]
