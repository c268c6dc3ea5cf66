"""Client data partitioning: balanced, ratio-imbalanced, small."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..models.config import ConfigError
from ..rng import Rng
from ..tensor import UsageError
from .corpus import Record

# default imbalance vector for 8 clients
IMBALANCED_RATIOS = (0.29, 0.22, 0.17, 0.14, 0.09, 0.04, 0.03, 0.02)


@dataclass(frozen=True)
class PartitionSpec:
    n_clients: int = 8
    mode: str = "balanced"  # balanced | imbalanced | small
    ratios: tuple[float, ...] = field(default=IMBALANCED_RATIOS)

    def __post_init__(self) -> None:
        if self.mode not in ("balanced", "imbalanced", "small"):
            raise ConfigError(f"unknown partition mode '{self.mode}'")
        if self.n_clients < 1:
            raise ConfigError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.mode in ("imbalanced", "small"):
            n_ratios = len(self.ratios or ())  # null in a config is no ratios
            if n_ratios != self.n_clients:
                raise ConfigError(f"{n_ratios} ratios for {self.n_clients} clients")
            if any(r <= 0.0 for r in self.ratios):
                raise ConfigError("every ratio must be positive")
            if abs(sum(self.ratios) - 1.0) > 1e-9:
                raise ConfigError(f"ratios must sum to 1, got {sum(self.ratios)}")


def largest_remainder_sizes(total: int, ratios: tuple[float, ...]) -> list[int]:
    """Apportion `total` into integer sizes proportional to `ratios`.

    Floor shares first, then hand out the remaining units by descending
    fractional part (ties to the lower index).
    """
    exact = [r * total for r in ratios]
    sizes = [math.floor(x) for x in exact]
    leftover = total - sum(sizes)
    order = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - sizes[i]), i))
    for i in order[:leftover]:
        sizes[i] += 1
    return sizes


def partition(records: list[Record], spec: PartitionSpec, seed: int) -> list[list[Record]]:
    """Shuffle by seed, then split contiguously into per-client shards.

    balanced: sizes differ by at most one. imbalanced: largest-remainder
    apportionment of spec.ratios. small: a single shard the size of the
    smallest apportioned client (the low-data lower bound).
    """
    n = len(records)
    if n < spec.n_clients:
        raise UsageError(f"{n} records cannot cover {spec.n_clients} clients")
    shuffled = Rng(seed).shuffled(records)

    if spec.mode == "balanced":
        base, extra = divmod(n, spec.n_clients)
        sizes = [base + (1 if i < extra else 0) for i in range(spec.n_clients)]
    else:
        sizes = largest_remainder_sizes(n, spec.ratios)

    if spec.mode == "small":
        smallest = min(range(len(sizes)), key=lambda i: (sizes[i], -i))
        start = sum(sizes[:smallest])
        return [shuffled[start : start + sizes[smallest]]]

    shards: list[list[Record]] = []
    start = 0
    for size in sizes:
        shards.append(shuffled[start : start + size])
        start += size
    return shards
