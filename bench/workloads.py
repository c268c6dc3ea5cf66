"""The benchmark's workloads: one FedAvg config per name, built from a seed.

Each workload leans on a different layer, so an optimisation of one layer
shows on one workload and leaves the others alone:

- mlm_mini_channel: the paper's headline setting. Compute in the tensor,
  model and optimiser layers dominates; protocol sync is a few percent.
- lstm_tcp: many small tensor ops per timestep, padded batches and
  mid-size parameter frames over loopback TCP.
- bert_wire_tcp: no local training, so a round is the sync path
  (quantize, sign, encode, send, decode, verify, aggregate) plus a
  forward-only validation of the full bert preset.

Some settings keep `val_loss` a steady, never-failing quality guard across
seeds. lstm_tcp trains at lr 1e-3: at the default 1e-2 two of ten seeds
left the validation loss above its round-0 value on shards this small.
It also holds out a quarter of its records for validation: with the
default tenth (12 records), two of twenty seeds ended above round 0's
loss even at lr 1e-3, and none of ninety did with 30 records.
bert_wire_tcp validates the MLM head: with no training the loss is the
initial model's, and an MLM head's initial loss sits near ln(vocab size)
for every init seed, where a fresh classifier's swings with the seed. Its
200 short records give the server a 20-record validation set, steady
across seeds yet cheaper to score than the sync path; with no local
training, the clients' holdout evaluation (holdout_frac) would only add
forward passes, so it is off.

The program receives only the config built here. The workload seed fixes
the four config seeds, so one seed always gives the same inputs.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # ExperimentConfig fields, seeds excluded
    smoke: dict  # overrides that shrink the workload to seconds
    check_channel: bool  # the check mode reruns over the channel and compares


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mlm_mini_channel",
            config={
                "mode": "federated",
                "phase": "pretrain_mlm",
                "model": "bert_mini",
                "partition": {"n_clients": 8, "mode": "imbalanced"},
                "rounds": 2,
                "local_epochs": 1,
                "transport": "channel",
                "data": {"n_records": 240},
            },
            smoke={"rounds": 1, "data": {"n_records": 100, "min_len": 8, "max_len": 16}},
            check_channel=False,
        ),
        Workload(
            name="lstm_tcp",
            config={
                "mode": "federated",
                "phase": "finetune_classify",
                "model": "lstm",
                "partition": {"n_clients": 2, "mode": "balanced"},
                "rounds": 2,
                "local_epochs": 1,
                "lr": 1e-3,
                "transport": "tcp",
                "data": {"n_records": 120, "val_fraction": 0.25},
            },
            smoke={"rounds": 1, "data": {"n_records": 20, "min_len": 8, "max_len": 16}},
            check_channel=True,
        ),
        Workload(
            name="bert_wire_tcp",
            config={
                "mode": "federated",
                "phase": "pretrain_mlm",
                "model": "bert",
                "partition": {"n_clients": 2, "mode": "balanced"},
                "rounds": 4,
                "local_epochs": 0,
                "holdout_frac": 0.0,
                "transport": "tcp",
                "data": {"n_records": 200, "min_len": 8, "max_len": 24},
            },
            smoke={"rounds": 1, "data": {"n_records": 20, "min_len": 8, "max_len": 16}},
            check_channel=False,
        ),
    )
}


def derive_seeds(seed: int) -> dict:
    """The config's four seeds, fixed by the workload seed."""
    gen = random.Random(seed)
    return {name: gen.getrandbits(31) for name in ("corpus", "partition", "init", "batch")}


def make_config(name: str, seed: int, smoke: bool = False, transport: str | None = None) -> dict:
    """Plain config dict for `config_from_dict`.

    TCP workloads bind port 0, so no run depends on a free fixed port, and
    use at most nproc client threads and connections.
    """
    w = WORKLOADS[name]
    cfg = {key: (dict(value) if isinstance(value, dict) else value) for key, value in w.config.items()}
    if smoke:
        for key, value in w.smoke.items():
            cfg[key] = {**cfg[key], **value} if isinstance(value, dict) else value
    cfg["seeds"] = derive_seeds(seed)
    if cfg["transport"] == "tcp":
        cfg["addr"] = "127.0.0.1:0"
        n_clients = min(cfg["partition"]["n_clients"], os.cpu_count() or 1)
        cfg["partition"] = {**cfg["partition"], "n_clients": n_clients}
        cfg["allow_single_client"] = n_clients == 1
    if transport is not None:
        cfg["transport"] = transport
    return cfg
