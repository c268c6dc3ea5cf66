"""flnp benchmark: FedAvg workloads timed end to end, with a traced run per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

A run repeats one workload for about S seconds, one fresh worker process
(worker.py) per repeat, each under its own deadline. It prints every metric
with its unit, writes a result file with the machine record under
bench/out/, and ends with one JSON line: `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1). `--smoke` runs every workload at minimal size,
traced and untraced, and checks that every metric is emitted. README.md
beside this file describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

# BENCHMARK.json names every metric a run reports, with its unit.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
LAYER_METRICS = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

REPEAT_DEADLINE_S = 120.0  # one repeat; a repeat that overruns it is a failed run
RUN_LIMIT_S = 170.0  # no repeat may end later than this into the run
# worker.py exits with this when flnp does not come from this checkout's
# src/; the run then stops at once and prints no result.
WRONG_PROGRAM_EXIT = 3


def blas_threads() -> int | None:
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "git_sha": sha,
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def run_worker(args: list[str], deadline: float) -> dict:
    """One repeat in its own process, killed if it runs past `deadline` seconds."""
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"deadline: repeat still running after {deadline:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"worker exited with {proc.returncode}: {err.strip().splitlines()[-1:]}",
                "fatal": proc.returncode == WRONG_PROGRAM_EXIT}
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"no result line in worker output {out[-200:]!r}"}


def run_repeats(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Repeat the workload for about `seconds`; with `trace`, every second repeat is traced."""
    OUT.mkdir(exist_ok=True)
    repeats: list[dict] = []
    walls: list[float] = []
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        if len(repeats) >= 1 + trace and elapsed + statistics.median(walls) > seconds:
            break
        if RUN_LIMIT_S - elapsed < 1.0:
            break
        k = len(repeats)
        args = ["--workload", name, "--seed", str(seed)]
        if smoke:
            args.append("--smoke")
        if k == 0 and WORKLOADS[name].check_channel:
            args.append("--check-channel")
        if trace and k % 2:
            args += ["--trace", str(OUT / f"spans-{name}-seed{seed}.jsonl")]
        t0 = time.monotonic()
        event = run_worker(args, min(REPEAT_DEADLINE_S, RUN_LIMIT_S - elapsed))
        walls.append(time.monotonic() - t0)
        if "error" in event:
            repeats.append({"traced": trace and k % 2 == 1, "failures": [event["error"]]})
            if event.get("fatal"):
                break
            continue
        repeats.append(event)

    # Equal seeds must give equal final parameters on every repeat.
    sums = Counter(r["checksum"] for r in repeats if "checksum" in r)
    majority = sums.most_common(1)[0][0] if sums else None
    for r in repeats:
        if "checksum" in r and r["checksum"] != majority:
            r["failures"].append(f"params checksum differs from the other repeats ({majority[:12]})")
    return {"workload": name, "seed": seed, "repeats": repeats}


def summarise(run: dict) -> tuple[dict, dict]:
    """(end-to-end values over untraced repeats, per-layer medians over traced ones)."""
    ok = [r for r in run["repeats"] if not r["failures"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    e2e = {name: statistics.median(r[name] for r in plain) for name, _ in END_TO_END} if plain else {}
    if plain:
        # Set-up is short and single-threaded, and a core of a shared VM can
        # run at two thirds of its speed for tens of seconds at a time, which
        # moves the median set-up of a 40-s run between two levels. The
        # fastest set-up of the run is steadier from run to run (README.md).
        e2e["setup_s"] = min(r["setup_s"] for r in plain)
    layers = {}
    if traced:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        if plain:
            traced_round = statistics.median(r["round_s"] for r in traced)
            layers["trace.overhead_frac"] = traced_round / e2e["round_s"] - 1.0
    return e2e, layers


def report(run: dict, machine: dict, trace: bool) -> tuple[dict, bool]:
    """Print the run's metrics; return (final JSON object, every metric present)."""
    e2e, layers = summarise(run)
    attempted = len(run["repeats"])
    failed = sum(1 for r in run["repeats"] if r["failures"])
    n_plain = sum(1 for r in run["repeats"] if not r["traced"] and not r["failures"])
    print(f"workload {run['workload']} seed {run['seed']}: {attempted} repeats, {failed} failed")
    for r in run["repeats"]:
        for failure in r["failures"]:
            print(f"  FAILED{' (traced)' if r['traced'] else ''}: {failure}")
    for name, unit in END_TO_END:
        if name in e2e:
            stat = "fastest" if name == "setup_s" else "median"
            print(f"  {name:<14} {e2e[name]:>12.6g} {unit:<9} {stat} of {n_plain} repeats")
    print(f"  {'runs_failed':<14} {failed / attempted:>12.6g} {'fraction':<9} "
          f"{failed}/{attempted}")
    for name, unit in LAYER_METRICS:
        if name in layers:
            print(f"  {name:<40} {layers[name]:>14.6g} {unit}")

    wanted = LAYER_METRICS if trace else END_TO_END
    got = layers if trace else e2e
    metrics = {name: {"value": got[name], "unit": unit} for name, unit in wanted if name in got}
    complete = len(metrics) == len(wanted) and all(math.isfinite(m["value"]) for m in metrics.values())
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {**result, "machine": machine, "end_to_end": e2e, "per_layer": layers, **run}
    path = OUT / f"result-{run['workload']}-seed{run['seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result, complete


def smoke(machine: dict) -> int:
    ok = True
    for name in WORKLOADS:
        run = run_repeats(name, seed=1, seconds=0.0, trace=True, smoke=True)
        result, layers_complete = report(run, machine, trace=True)
        e2e, _ = summarise(run)
        ok = ok and layers_complete and result["correct"] and len(e2e) == len(END_TO_END)
    print("smoke: every metric emitted and every check passed" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload once, minimal size")
    args = parser.parse_args(argv)

    machine = machine_record()
    print("machine: " + json.dumps(machine))
    if args.smoke:
        return smoke(machine)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    run = run_repeats(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    result, complete = report(run, machine, bool(args.trace))
    if not complete:
        print("no repeat produced every metric; no result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
