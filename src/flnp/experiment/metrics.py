"""Metrics records and their CSV serialization.

One record per (round, scope, split). Floats are written with 6
significant digits; wall_time_ms is informational and excluded from
determinism comparisons.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

CSV_HEADER = ["run_id", "mode", "model", "round", "scope", "split", "loss", "top1_accuracy", "wall_time_ms"]


@dataclass(frozen=True)
class MetricsRecord:
    run_id: str
    mode: str
    model: str
    round: int
    scope: str  # "global" or "client_<k>"
    split: str  # "train" | "validation"
    loss: float
    top1_accuracy: float
    wall_time_ms: float = 0.0


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def emit_metrics(records: list[MetricsRecord], path: str) -> None:
    """Write records sorted by (round, scope, split); header always present."""
    ordered = sorted(records, key=lambda r: (r.round, r.scope, r.split))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in ordered:
            writer.writerow(
                [r.run_id, r.mode, r.model, r.round, r.scope, r.split,
                 _fmt(r.loss), _fmt(r.top1_accuracy), _fmt(r.wall_time_ms)]
            )


def parse_metrics(path: str) -> list[MetricsRecord]:
    records: list[MetricsRecord] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected metrics header {header}")
        for row in reader:
            records.append(
                MetricsRecord(
                    run_id=row[0], mode=row[1], model=row[2], round=int(row[3]),
                    scope=row[4], split=row[5], loss=float(row[6]),
                    top1_accuracy=float(row[7]), wall_time_ms=float(row[8]),
                )
            )
    return records
