"""Whitespace token vocabulary with fixed reserved ids."""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from ..tensor import UsageError

PAD_ID = 0
UNK_ID = 1
MASK_ID = 2
CLS_ID = 3
NUM_RESERVED = 4

_RESERVED_TOKENS = ("<pad>", "<unk>", "<mask>", "<cls>")


class Vocabulary:
    """Bijective token <-> id map over non-reserved tokens; ids 0..3 reserved."""

    __slots__ = ("_token_to_id", "_id_to_token")

    def __init__(self, tokens_in_id_order: Iterable[str]) -> None:
        self._id_to_token: list[str] = list(_RESERVED_TOKENS)
        self._token_to_id: dict[str, int] = {}
        for tok in tokens_in_id_order:
            if tok in self._token_to_id or tok in _RESERVED_TOKENS:
                raise UsageError(f"duplicate or reserved token '{tok}'")
            self._token_to_id[tok] = len(self._id_to_token)
            self._id_to_token.append(tok)

    @property
    def size(self) -> int:
        return len(self._id_to_token)

    def encode_token(self, token: str) -> int:
        return self._token_to_id.get(token.lower(), UNK_ID)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.encode_token(t) for t in tokens]


def build_vocab(lines: Iterable[str], max_size: int) -> Vocabulary:
    """Frequency vocabulary over lowercased whitespace tokens.

    Keeps the most frequent max_size - 4 tokens; ties are resolved
    lexicographically, so rebuilding from the same corpus is exact.
    """
    counts: Counter[str] = Counter()
    n_lines = 0
    for line in lines:
        n_lines += 1
        counts.update(line.lower().split())
    if n_lines == 0 or not counts:
        raise UsageError("cannot build a vocabulary from an empty corpus")
    if max_size <= NUM_RESERVED:
        raise UsageError(f"max_size must exceed {NUM_RESERVED}, got {max_size}")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = [tok for tok, _ in ranked[: max_size - NUM_RESERVED]]
    return Vocabulary(keep)
