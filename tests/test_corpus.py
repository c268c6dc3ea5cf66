import hashlib

import pytest

from flnp.data import CorpusParams, gen_synthetic_corpus, load_corpus, planted_label, save_corpus
from flnp.data.corpus import TRIGGER_DRUG, TRIGGER_LAB
from flnp.models.config import ConfigError
from flnp.tensor import UsageError


def test_fixed_seed_identical_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_corpus(gen_synthetic_corpus(42, 200), str(a))
    save_corpus(gen_synthetic_corpus(42, 200), str(b))
    assert a.read_bytes() == b.read_bytes()
    save_corpus(gen_synthetic_corpus(43, 200), str(b))
    assert a.read_bytes() != b.read_bytes()


# SHA-256 of save_corpus output, recorded from an earlier version of the
# generator: a faster Rng or grammar must leave every corpus byte alone.
PINNED_CORPORA = [
    (42, 200, CorpusParams(), "8343881f6462e4020c3b829a8d919c8b2937ecc891bcdb91786685f881bcdf21"),
    (7, 300, CorpusParams(min_len=8, max_len=16, label_noise=0.0),
     "149b93d7d49d7be4521e3412b684e73ab3b1b64f90f401d70a4ad774c0020eaa"),
]


@pytest.mark.parametrize("seed, n, params, sha", PINNED_CORPORA)
def test_corpus_bytes_are_pinned(tmp_path, seed, n, params, sha):
    path = tmp_path / "corpus.txt"
    save_corpus(gen_synthetic_corpus(seed, n, params), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


def test_noise_free_labels_match_the_rule_exactly():
    records = gen_synthetic_corpus(7, 500, CorpusParams(label_noise=0.0))
    assert all(label == planted_label(tokens) for label, tokens in records)


def test_rule_is_token_cooccurrence():
    assert planted_label([TRIGGER_DRUG, "x", TRIGGER_LAB]) == 1
    assert planted_label([TRIGGER_DRUG, "x"]) == 0
    assert planted_label([TRIGGER_LAB]) == 0
    assert planted_label(["visit_clinic"]) == 0


def test_negatives_are_not_separable_by_one_trigger():
    records = gen_synthetic_corpus(11, 2000, CorpusParams(label_noise=0.0))
    negatives = [toks for label, toks in records if label == 0]
    with_drug = sum(TRIGGER_DRUG in t for t in negatives)
    with_lab = sum(TRIGGER_LAB in t for t in negatives)
    assert with_drug > len(negatives) * 0.05
    assert with_lab > len(negatives) * 0.05


def test_prevalence_monte_carlo():
    # positive rate 0.21 +- 0.02 at n=10,000, including label noise
    records = gen_synthetic_corpus(3, 10_000, CorpusParams())
    rate = sum(label for label, _ in records) / len(records)
    assert 0.19 <= rate <= 0.23


def test_prevalence_without_noise():
    records = gen_synthetic_corpus(5, 10_000, CorpusParams(label_noise=0.0))
    rate = sum(label for label, _ in records) / len(records)
    assert 0.19 <= rate <= 0.23


def test_lengths_respect_bounds():
    params = CorpusParams(min_len=10, max_len=20)
    records = gen_synthetic_corpus(9, 300, params)
    lengths = [len(tokens) for _, tokens in records]
    assert min(lengths) >= 10 and max(lengths) <= 20


def test_degenerate_grammar_rejected():
    with pytest.raises(ConfigError):
        CorpusParams(min_len=2)
    with pytest.raises(ConfigError):
        CorpusParams(prevalence=0.01, label_noise=0.4)


def test_too_few_patients_rejected():
    with pytest.raises(UsageError):
        gen_synthetic_corpus(1, 1)


def test_corpus_file_round_trip(tmp_path):
    records = gen_synthetic_corpus(13, 50)
    path = tmp_path / "corpus.txt"
    save_corpus(records, str(path))
    loaded = load_corpus(str(path))
    assert loaded == records
    first = path.read_text().splitlines()[0]
    label, text = first.split("\t", 1)
    assert label in ("0", "1") and " " in text


def test_malformed_corpus_line_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("no-tab-here\n")
    with pytest.raises(UsageError):
        load_corpus(str(path))
