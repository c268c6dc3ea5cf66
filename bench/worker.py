"""One repeat of a benchmark workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N [--trace PATH] [--check-channel] [--smoke]

Builds the workload's config from the seed, times `build_dataset`
SETUP_TIMINGS times and `run_experiment` once, checks the outputs, and
prints one JSON line.
`run.py` starts one worker per repeat, as a user starts one process per
run: every repeat pays the same start-up, its peak memory is its own, and
a repeat that hangs is killed with its threads and sockets. With
`--trace PATH` the layer wrappers from spans.py are installed for the
repeat and its spans are written to PATH.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from run import WRONG_PROGRAM_EXIT  # noqa: E402

# The program under test is this checkout's src/flnp and nothing else: not
# an installed flnp, and no run at all where src/ is missing. The exit code
# tells run.py to stop the run instead of repeating.
_spec = importlib.util.find_spec("flnp")
if _spec is None or _spec.origin is None or Path(_spec.origin).resolve().parents[1] != SRC:
    print(f"flnp is not importable from {SRC} (found {_spec and _spec.origin})", file=sys.stderr)
    sys.exit(WRONG_PROGRAM_EXIT)

# A fresh `import flnp.transport` raises ImportError: transport.codec imports
# flnp.protocol, whose server imports transport.codec back while it is only
# half loaded. The runner imports protocol before transport, which loads both
# cleanly, so every flnp import here goes through the runner first.
import flnp.experiment.runner as runner  # noqa: E402
from flnp.experiment.config import config_from_dict  # noqa: E402
from flnp.models import init_model  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

# build_dataset takes 0.1-0.4 s, and on a shared VM the speed of a core can
# change by half from one call to the next. The fastest of several calls is
# the repeat's setup_s: it is the one least disturbed by other tenants.
SETUP_TIMINGS = 5


def global_val_losses(result) -> list[float]:
    """Server-side validation loss per round, round 0 first."""
    rows = sorted((r.round, r.loss) for r in result.records
                  if r.scope == "global" and r.split == "validation")
    return [loss for _, loss in rows]


def check(cfg, bundle, losses: list[float], checksum: str) -> list[str]:
    """Output checks that hold for any float rounding of the program."""
    trains = cfg.local_epochs > 0
    failures = []
    if len(losses) != cfg.rounds + 1:
        failures.append(f"{len(losses)} validation rows for {cfg.rounds} rounds")
    if not all(math.isfinite(x) for x in losses):
        failures.append(f"non-finite validation loss {losses}")
    elif trains and not losses[-1] < losses[0]:
        failures.append(f"val_loss {losses[-1]} did not fall below round 0's {losses[0]}")
    elif not trains and losses[-1] != losses[0]:
        failures.append(f"val_loss {losses[-1]} moved from round 0's {losses[0]} without training")
    if not trains:
        # FedAvg over identical updates is exact by aggregate's contract, so
        # rounds without local training must hand back the initial weights.
        mode = "mlm" if cfg.phase == "pretrain_mlm" else "classify"
        init = init_model(cfg.model_config(bundle.vocab.size), cfg.seeds.init, mode=mode)
        expected = runner.params_checksum(init.export_params().quantize32())
        if checksum != expected:
            failures.append(f"final params {checksum[:12]} != initial params {expected[:12]}")
    return failures


def run_repeat(args) -> dict:
    cfg = config_from_dict(make_config(args.workload, args.seed, smoke=args.smoke))
    setups_ns = []
    for _ in range(SETUP_TIMINGS - 1):
        t0 = time.perf_counter_ns()
        runner.build_dataset(cfg)
        setups_ns.append(time.perf_counter_ns() - t0)
    # The last build is the one traced, and its bundle is the one used.
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    t0 = time.perf_counter_ns()
    bundle = runner.build_dataset(cfg)
    t1 = time.perf_counter_ns()
    setups_ns.append(t1 - t0)
    results = runner.run_experiment(cfg, bundle)
    t2 = time.perf_counter_ns()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = {}
    if tracer is not None:
        tracer.uninstall()
        layers = spans.layer_metrics(tracer, (t1, t2))
        tracer.write(args.trace, t0)

    if len(results) != 1:
        raise RuntimeError(f"expected one phase result, got {len(results)}")
    losses = global_val_losses(results[0])
    checksum = runner.params_checksum(results[0].final_params)
    failures = check(cfg, bundle, losses, checksum)
    if args.check_channel:
        channel_cfg = config_from_dict(
            make_config(args.workload, args.seed, smoke=args.smoke, transport="channel")
        )
        channel_sum = runner.params_checksum(
            runner.run_experiment(channel_cfg, bundle)[0].final_params
        )
        if channel_sum != checksum:
            failures.append(f"channel params {channel_sum[:12]} != tcp params {checksum[:12]}")
    return {
        "traced": bool(args.trace),
        "setup_s": min(setups_ns) / 1e9,
        "round_s": (t2 - t1) / 1e9 / cfg.rounds,
        "peak_rss_mb": peak_rss_mb,
        "val_loss": losses[-1],
        "checksum": checksum,
        "failures": failures,
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="PATH", help="record per-layer spans and write them to PATH")
    parser.add_argument("--check-channel", action="store_true",
                        help="rerun over the in-process channel and compare final params")
    parser.add_argument("--smoke", action="store_true", help="minimal size")
    args = parser.parse_args(argv)

    print(json.dumps(run_repeat(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
