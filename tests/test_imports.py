"""Every flnp module imports cleanly as the first flnp import.

An import cycle hides when a test imports modules in a lucky order, so each
module is imported into an interpreter with no flnp module loaded.
`flnp.__main__` runs the CLI on import; the CLI tests cover it.

The benchmark's tracer (`bench/spans.py`) wraps flnp callables by name, so
it is installed here too: a rename or deletion that it still names breaks
`bench/run.py --trace 1` and `--smoke`. The benchmark's own repeat
(`bench/worker.py`) calls into flnp beyond the tracer, in its output checks
and its configs, so one smoke repeat of each workload runs here as well.
A refactor that calls around a wrapped name still passes those checks while
the layer it moved reads 0, so the traced repeat also checks that each layer
of `TRACED_LAYERS` saw work.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")

FIRST_IMPORT_EACH = r"""
import importlib
import pkgutil
import sys

import flnp

names = [m.name for m in pkgutil.walk_packages(flnp.__path__, "flnp.")]
failed = []
for name in ["flnp", *sorted(names)]:
    if name.endswith(".__main__"):
        continue
    for loaded in [m for m in sys.modules if m == "flnp" or m.startswith("flnp.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failed.append(f"{name}: {type(exc).__name__}: {exc}")
    else:
        print("imported", name)
print("\n".join(failed), file=sys.stderr)
sys.exit(1 if failed else 0)
"""


def test_every_module_imports_first_in_a_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", FIRST_IMPORT_EACH],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = proc.stdout.split()
    assert "flnp.transport.codec" in imported and "flnp.experiment.runner" in imported


def test_benchmark_tracer_finds_every_callable_it_wraps():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([BENCH, SRC]))
    code = "import spans; t = spans.Tracer(); spans.install(t); t.uninstall()"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


# per-layer values of a traced mlm_mini_channel repeat that read 0 when the
# program stops calling through the wrapped name
TRACED_LAYERS = (
    "training.train_epochs.self_ms",
    "training.evaluate.self_ms",
    "experiment.init_params.ms",
    "experiment.validate.ms",
    "models.build.ms",
    "data.mask_batch.calls",
    "data.mask.scored_frac",
    "optim.step.calls",
    "tensor.backward.calls",
)


@pytest.mark.parametrize("workload, flags", [
    ("mlm_mini_channel", ["--trace", "{tmp}/spans.jsonl"]),
    ("lstm_tcp", ["--check-channel"]),
    ("bert_wire_tcp", []),
])
def test_benchmark_smoke_repeat_passes_its_checks(tmp_path, workload, flags):
    args = [f.format(tmp=tmp_path) for f in flags]
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload, "--seed", "1",
         "--smoke", *args],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failures"] == []
    if "--trace" in flags:
        silent = {name: result["layers"][name] for name in TRACED_LAYERS
                  if not result["layers"][name] > 0}
        assert silent == {}, silent
