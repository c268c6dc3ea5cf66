"""Spans around the calls into flnp's layers, installed from outside.

`install` replaces each layer's public callables at the name its caller
uses (a module attribute or a class attribute) with a wrapper that records
a span: name, start, end, parent and thread. Parents are tracked per
thread, because TCP clients and socket readers run on their own threads.
A span's self time is its duration minus the time its child spans cover.

Tensor ops and Rng draws run tens of thousands of times per repeat, so
their spans are aggregated per name (calls, total and self time) instead
of stored one by one; every other span is kept in memory and written out
by `write` once the run is over.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

import flnp.experiment.runner  # noqa: F401  (loads protocol before transport; see worker.py)
import flnp.models.lstm
import flnp.models.transformer
import flnp.protocol.client
import flnp.protocol.server
import flnp.tensor
import flnp.training
import flnp.transport.tcp
from flnp.models import LstmClassifier, TransformerModel
from flnp.models.base import ModelBase
from flnp.optim import Adam
from flnp.params import ParameterSet
from flnp.protocol.client import FlClient
from flnp.protocol.messages import GlobalModel, LocalUpdate
from flnp.protocol.server import FlServer
from flnp.rng import Rng

# Tensor ops reported under their own name; the rest go to "other".
TENSOR_KINDS = (
    "matmul", "gelu", "softmax_rows", "layer_norm", "embedding_lookup",
    "masked_cross_entropy", "add", "mul", "sigmoid", "tanh", "narrow",
)
OTHER_TENSOR_OPS = ("reshape", "transpose", "reduce_sum", "reduce_mean", "sub")
_AGGREGATED = ("tensor.fwd.", "rng.")


class _ThreadState:
    def __init__(self) -> None:
        self.thread = threading.get_ident()
        self.stack: list[list] = []  # [name, start_ns, child_ns, span_id]
        self.totals: dict[str, list[int]] = {}  # name -> [calls, ns, self_ns]
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id)
        self.top: list[tuple[int, int]] = []  # intervals of spans with no parent


class Tracer:
    """Per-thread span stacks; merged only after the traced threads end."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def traced(self, fn, name, observe=None):
        """`fn` wrapped in a span; `name` may be a function of the call's args."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            state = tracer._state()
            stored = not label.startswith(_AGGREGATED)
            span_id = next(tracer._ids) if stored else None
            frame = [label, time.perf_counter_ns(), 0, span_id]
            state.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                state.stack.pop()
                dur = end - frame[1]
                total = state.totals.setdefault(label, [0, 0, 0])
                total[0] += 1
                total[1] += dur
                total[2] += dur - frame[2]
                if state.stack:
                    parent = state.stack[-1]
                    parent[2] += dur
                    parent_id = parent[3]
                else:
                    state.top.append((frame[1], end))
                    parent_id = None
                if stored:
                    state.spans.append((span_id, label, frame[1], end, parent_id))
            if observe is not None:
                observe(state.counters, args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, value) -> None:
        """Set `owner.attr` to `value` until `uninstall`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name, observe=None) -> None:
        self.patch(owner, attr, self.traced(vars(owner)[attr], name, observe))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, list[int]]:
        merged: dict[str, list[int]] = {}
        for state in self._states:
            for name, (calls, ns, self_ns) in state.totals.items():
                acc = merged.setdefault(name, [0, 0, 0])
                acc[0] += calls
                acc[1] += ns
                acc[2] += self_ns
        return merged

    def counters(self) -> dict[str, int]:
        merged: dict[str, int] = defaultdict(int)
        for state in self._states:
            for key, value in state.counters.items():
                merged[key] += value
        return merged

    def unattributed_frac(self, window: tuple[int, int]) -> float:
        """Share of `window` that no top-level span, on any thread, covers."""
        lo, hi = window
        intervals = sorted(
            (max(start, lo), min(end, hi))
            for state in self._states
            for start, end in state.top
            if end > lo and start < hi
        )
        covered = 0
        cur_start = cur_end = None
        for start, end in intervals:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        return 1.0 - covered / (hi - lo)

    def write(self, path, t0_ns: int) -> None:
        """Stored spans as JSON lines, times in ms from `t0_ns`."""
        with open(path, "w", encoding="utf-8") as fh:
            for state in self._states:
                for span_id, name, start, end, parent in state.spans:
                    fh.write(json.dumps({
                        "id": span_id, "name": name, "parent": parent, "thread": state.thread,
                        "start_ms": (start - t0_ns) / 1e6, "end_ms": (end - t0_ns) / 1e6,
                    }) + "\n")


def _count_records(counters, args, result) -> None:
    counters["corpus.records"] += len(result)


def _count_padding(counters, args, result) -> None:
    for batch in result:
        counters["batch.positions"] += batch.input_ids.size
        counters["batch.real"] += int(batch.lengths.sum())


def _count_scored(counters, args, result) -> None:
    ignore = args[2].ignore_value
    counters["mask.scored"] += int((result.labels != ignore).sum())
    counters["mask.real"] += int(result.attention_mask.sum())


def _count_bytes(counters, args, result) -> None:
    kind = type(args[0]).__name__ if isinstance(args[0], (GlobalModel, LocalUpdate)) else "other"
    counters[f"bytes.{kind}"] += len(result)


def _count_server_message(counters, args, result) -> None:
    counters["messages"] += 1
    if isinstance(args[2], LocalUpdate):
        counters["updates_received"] += 1


def _count_client_message(counters, args, result) -> None:
    counters["messages"] += 1


def _rng_kind(size_pos: int | None):
    """Label a draw scalar when its `size` argument is None."""
    def label(args, kwargs) -> str:
        if size_pos is None:
            return "rng.draw.array"
        size = kwargs["size"] if "size" in kwargs else (args[size_pos] if len(args) > size_pos else None)
        return "rng.draw.scalar" if size is None else "rng.draw.array"
    return label


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    runner = flnp.experiment.runner
    training = flnp.training
    client = flnp.protocol.client
    server = flnp.protocol.server
    tcp = flnp.transport.tcp

    tracer.wrap(runner, "build_dataset", "experiment.build_dataset")
    tracer.wrap(runner, "gen_synthetic_corpus", "data.corpus", _count_records)
    tracer.wrap(runner, "build_vocab", "data.build_vocab")
    tracer.wrap(runner, "partition", "data.partition")
    tracer.wrap(runner, "init_model", "experiment.init_params")
    tracer.wrap(runner, "evaluate", "experiment.validate")
    tracer.wrap(runner, "build_model", "models.build")
    tracer.wrap(client, "build_model", "models.build")
    tracer.wrap(training, "make_batches", "data.make_batches", _count_padding)
    tracer.wrap(training, "mask_batch", "data.mask_batch", _count_scored)
    tracer.wrap(training, "backward", "tensor.backward")

    for method, size_pos in (("uint64", 1), ("random", 1), ("normal", 3), ("integers", 2),
                             ("permutation", None)):
        tracer.wrap(Rng, method, _rng_kind(size_pos))

    # Models import ops by name, so the wrappers go where the models look
    # them up; flnp.tensor's own `matmul` serves `Tensor.__matmul__`.
    for module in (flnp.models.transformer, flnp.models.lstm, training):
        for op in (*TENSOR_KINDS, *OTHER_TENSOR_OPS):
            if vars(module).get(op) is getattr(flnp.tensor, op):
                kind = op if op in TENSOR_KINDS else "other"
                tracer.wrap(module, op, f"tensor.fwd.{kind}")
    tracer.wrap(flnp.tensor, "matmul", "tensor.fwd.matmul")

    for method in ("forward", "mlm_logits", "classify_logits"):
        tracer.wrap(TransformerModel, method, "models.forward")
    tracer.wrap(LstmClassifier, "forward", "models.forward")
    tracer.wrap(ModelBase, "load_params", "models.load_params")
    tracer.wrap(ModelBase, "export_params", "models.export_params")
    tracer.wrap(Adam, "step", "optim.step")
    tracer.wrap(Adam, "zero_grad", "optim.zero_grad")
    tracer.wrap(ParameterSet, "quantize32", "params.quantize32")

    tracer.wrap(client, "train_epochs", "training.train_epochs")
    tracer.wrap(client, "evaluate", "training.evaluate")
    tracer.wrap(FlServer, "handle", "protocol.server.handle", _count_server_message)
    tracer.wrap(FlClient, "handle", "protocol.client.handle", _count_client_message)
    tracer.wrap(server, "aggregate", "protocol.aggregate")
    for module in (server, client):
        tracer.wrap(module, "sign", "protocol.sign")
        tracer.wrap(module, "verify_auth", "protocol.verify")

    tracer.wrap(tcp, "encode_message", "transport.encode", _count_bytes)
    tracer.wrap(tcp, "decode_message", "transport.decode")
    tcp_server_cls = vars(runner)["TcpServer"]

    def timed_tcp_server(*args, **kwargs):
        tcp_server = tcp_server_cls(*args, **kwargs)
        # drive_tcp blocks on this queue while clients compute
        tcp_server.inbox.get = tracer.traced(tcp_server.inbox.get, "transport.server_wait")
        return tcp_server

    tracer.patch(runner, "TcpServer", timed_tcp_server)


def layer_metrics(tracer: Tracer, window: tuple[int, int]) -> dict[str, float]:
    """Per-layer values of one traced repeat, except `trace.overhead_frac`.

    `ms` is busy time summed over threads, `self_ms` excludes child spans,
    and `window` is the run_experiment interval used for unattributed time.
    """
    totals = tracer.totals()
    counters = tracer.counters()

    def calls(name: str) -> int:
        return totals.get(name, [0, 0, 0])[0]

    def ms(name: str) -> float:
        return totals.get(name, [0, 0, 0])[1] / 1e6

    def self_ms(name: str) -> float:
        return totals.get(name, [0, 0, 0])[2] / 1e6

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "data.corpus.ms_per_record": ratio(ms("data.corpus"), counters["corpus.records"]),
        "data.build_vocab.ms": ms("data.build_vocab"),
        "data.partition.ms": ms("data.partition"),
        "data.make_batches.ms": ms("data.make_batches"),
        "data.make_batches.calls": calls("data.make_batches"),
        "data.pad_frac": ratio(counters["batch.positions"] - counters["batch.real"],
                               counters["batch.positions"]),
        "data.mask_batch.ms": ms("data.mask_batch"),
        "data.mask_batch.calls": calls("data.mask_batch"),
        "data.mask.scored_frac": ratio(counters["mask.scored"], counters["mask.real"]),
        "rng.draws.scalar": calls("rng.draw.scalar"),
        "rng.draws.array": calls("rng.draw.array"),
        "rng.ms": ms("rng.draw.scalar") + ms("rng.draw.array"),
        "tensor.backward.ms": ms("tensor.backward"),
        "tensor.backward.calls": calls("tensor.backward"),
        "training.train_epochs.self_ms": self_ms("training.train_epochs"),
        "training.evaluate.self_ms": self_ms("training.evaluate"),
        "protocol.server.handle.self_ms": self_ms("protocol.server.handle"),
        "protocol.client.handle.self_ms": self_ms("protocol.client.handle"),
        "protocol.updates_received": counters["updates_received"],
        "transport.serialisations_per_message": ratio(
            calls("transport.encode") + calls("protocol.sign") + calls("protocol.verify"),
            counters["messages"],
        ),
        "trace.unattributed_frac": tracer.unattributed_frac(window),
    }
    for kind in (*TENSOR_KINDS, "other"):
        out[f"tensor.fwd.{kind}.ms"] = ms(f"tensor.fwd.{kind}")
        out[f"tensor.fwd.{kind}.calls"] = calls(f"tensor.fwd.{kind}")
    for name in ("models.forward", "models.build", "models.load_params", "models.export_params",
                 "optim.zero_grad", "protocol.aggregate", "transport.server_wait",
                 "experiment.build_dataset", "experiment.init_params", "experiment.validate"):
        out[f"{name}.ms"] = ms(name)
    for name in ("optim.step", "params.quantize32", "protocol.sign", "protocol.verify",
                 "transport.encode", "transport.decode"):
        out[f"{name}.ms"] = ms(name)
        out[f"{name}.calls"] = calls(name)
    for kind in ("GlobalModel", "LocalUpdate", "other"):
        out[f"transport.bytes.{kind}"] = counters[f"bytes.{kind}"]
    return out
