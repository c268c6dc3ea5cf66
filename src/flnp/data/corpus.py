"""Synthetic clinical-style corpus with a planted co-occurrence rule.

Each record is a token sequence of visit blocks and a binary label.
Events inside a visit are mostly head/value pairs: a drug head is
followed by a dose token and a lab head by a level token, each agreeing
with its head 85% of the time. Those pairs give the text real sequential
structure, so masked-token prediction can beat the unigram floor by a
wide margin; symptoms and rule-marker labs are standalone tokens.

The label is planted: a record is positive exactly when the trigger
drug and the trigger marker-lab token co-occur, then flipped with
probability `label_noise`. Negative records still carry one of the two
triggers half of the time, so no single token separates the classes.
The pre-noise rule rate is chosen so the post-noise label prevalence
matches `prevalence` in expectation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models.config import ConfigError
from ..rng import Rng
from ..tensor import UsageError

Record = tuple[int, list[str]]

TRIGGER_DRUG = "rx_drug00"
TRIGGER_LAB = "lab_marker_low"
_DECOY_DRUG = "rx_drug01"
_DECOY_LAB = "lab_marker_normal"

_VISIT_MARKERS = ("visit_clinic", "visit_er", "visit_followup")
_MARKER_WEIGHTS = (0.6, 0.25, 0.15)
_LEVELS = ("low", "high", "normal")
_PAIR_AGREEMENT = 0.85  # how often a value token matches its head
_N_DRUGS = 40
_N_LABS = 28
_N_SYMPTOMS = 48
_EVENTS_PER_VISIT = 4  # a visit holds 1 to this many events


@dataclass(frozen=True)
class CorpusParams:
    min_len: int = 16
    max_len: int = 64
    prevalence: float = 0.21  # post-noise positive rate
    label_noise: float = 0.05

    def __post_init__(self) -> None:
        if not 6 <= self.min_len <= self.max_len:
            raise ConfigError(f"need 6 <= min_len <= max_len, got {self.min_len}, {self.max_len}")
        if not 0.0 <= self.label_noise < 0.5:
            raise ConfigError(f"label_noise must lie in [0, 0.5), got {self.label_noise}")
        if not 0.0 <= self.rule_rate <= 1.0:
            raise ConfigError(
                f"prevalence {self.prevalence} unreachable under noise {self.label_noise}"
            )

    @property
    def rule_rate(self) -> float:
        """Pre-noise positive rate that yields `prevalence` after flips."""
        if self.label_noise == 0.0:
            return self.prevalence
        return (self.prevalence - self.label_noise) / (1.0 - 2.0 * self.label_noise)


def planted_label(tokens: list[str]) -> int:
    """The noise-free rule: positive iff both trigger tokens co-occur."""
    return int(TRIGGER_DRUG in tokens and TRIGGER_LAB in tokens)


# Cumulative weights are lists of Python floats, so a scalar weighted
# choice bisects without boxing a numpy scalar at each comparison.
# event kinds: 0 drug pair, 1 lab pair, 2 symptom, 3 marker lab
_KIND_CUM = np.cumsum([0.35, 0.30, 0.25, 0.10]).tolist()


class _Grammar:
    def __init__(self, params: CorpusParams) -> None:
        self.params = params
        self.drugs = [f"rx_drug{i:02d}" for i in range(_N_DRUGS)]
        self.doses = [f"dose_{lvl}" for lvl in _LEVELS]
        self.labs = [f"lab_panel{i:02d}" for i in range(_N_LABS)]
        self.levels = [f"val_{lvl}" for lvl in _LEVELS]
        self.symptoms = [f"sym_{i:02d}" for i in range(_N_SYMPTOMS)]
        self.marker_labs = [f"lab_marker_{lvl}" for lvl in _LEVELS]
        self.drug_cum = np.cumsum([1.0 / (i + 2) for i in range(_N_DRUGS)]).tolist()
        self.lab_cum = np.cumsum([1.0 / (i + 2) for i in range(_N_LABS)]).tolist()
        self.sym_cum = np.cumsum([1.0 / (i + 2) for i in range(_N_SYMPTOMS)]).tolist()
        self.marker_cum = np.cumsum(_MARKER_WEIGHTS).tolist()
        self.marker_lab_cum = np.cumsum([0.3, 0.3, 0.4]).tolist()

    def paired_value(self, head_index: int, rng: Rng, values: list[str]) -> str:
        if rng.random() < _PAIR_AGREEMENT:
            return values[head_index % len(values)]
        return values[int(rng.integers(len(values)))]

    def emit_event(self, rng: Rng, out: list[str]) -> None:
        kind = int(rng.weighted_choice(_KIND_CUM))
        if kind == 0:
            head = int(rng.weighted_choice(self.drug_cum))
            out.append(self.drugs[head])
            out.append(self.paired_value(head, rng, self.doses))
        elif kind == 1:
            head = int(rng.weighted_choice(self.lab_cum))
            out.append(self.labs[head])
            out.append(self.paired_value(head, rng, self.levels))
        elif kind == 2:
            out.append(self.symptoms[int(rng.weighted_choice(self.sym_cum))])
        else:
            out.append(self.marker_labs[int(rng.weighted_choice(self.marker_lab_cum))])

    def record_tokens(self, rng: Rng) -> list[str]:
        p = self.params
        length = p.min_len + int(rng.integers(p.max_len - p.min_len + 1))
        tokens: list[str] = []
        while len(tokens) < length:
            tokens.append(_VISIT_MARKERS[int(rng.weighted_choice(self.marker_cum))])
            for _ in range(1 + int(rng.integers(_EVENTS_PER_VISIT))):
                self.emit_event(rng, tokens)
                if len(tokens) >= length:
                    break
        return tokens[:length]


def _strip(tokens: list[str], target: str, replacement: str, keep_first: bool = False) -> None:
    seen = not keep_first
    for i, tok in enumerate(tokens):
        if tok == target:
            if not seen:
                seen = True
                continue
            tokens[i] = replacement


def gen_synthetic_corpus(seed: int, n_patients: int, params: CorpusParams | None = None) -> list[Record]:
    """Deterministic labeled records; identical bytes for identical seeds."""
    if n_patients < 2:
        raise UsageError(f"need at least 2 patients, got {n_patients}")
    params = params or CorpusParams()
    grammar = _Grammar(params)
    rng = Rng(seed)
    rule_rate = params.rule_rate

    records: list[Record] = []
    for _ in range(n_patients):
        tokens = grammar.record_tokens(rng)
        length = len(tokens)

        want_positive = rng.random() < rule_rate
        if want_positive:
            p1 = 1 + int(rng.integers(length - 1))
            p2 = 1 + (p1 + int(rng.integers(length - 2))) % (length - 1)
            tokens[p1] = TRIGGER_DRUG
            tokens[p2] = TRIGGER_LAB
        else:
            # at most one trigger; half the negatives carry exactly one
            if rng.random() < 0.5:
                keep_drug = rng.random() < 0.5
                tokens[1 + int(rng.integers(length - 1))] = TRIGGER_DRUG if keep_drug else TRIGGER_LAB
                _strip(tokens, TRIGGER_LAB if keep_drug else TRIGGER_DRUG,
                       _DECOY_LAB if keep_drug else _DECOY_DRUG)
            elif rng.random() < 0.5:
                _strip(tokens, TRIGGER_LAB, _DECOY_LAB)
            else:
                _strip(tokens, TRIGGER_DRUG, _DECOY_DRUG)
        # each trigger appears at most once, so trigger counts separate
        # the classes exactly and task difficulty is sample-limited
        _strip(tokens, TRIGGER_DRUG, _DECOY_DRUG, keep_first=True)
        _strip(tokens, TRIGGER_LAB, _DECOY_LAB, keep_first=True)

        label = int(want_positive)
        if params.label_noise > 0.0 and rng.random() < params.label_noise:
            label = 1 - label
        records.append((label, tokens))
    return records


def save_corpus(records: list[Record], path: str) -> None:
    """One record per line: `label<TAB>token token ...`, UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, tokens in records:
            fh.write(f"{label}\t{' '.join(tokens)}\n")


def load_corpus(path: str) -> list[Record]:
    records: list[Record] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                label_str, text = line.split("\t", 1)
                label = int(label_str)
            except ValueError:
                raise UsageError(f"{path}:{line_no}: expected `label<TAB>tokens`") from None
            if label not in (0, 1):
                raise UsageError(f"{path}:{line_no}: label must be 0 or 1, got {label}")
            records.append((label, text.split()))
    if not records:
        raise UsageError(f"{path}: empty corpus")
    return records
