"""Experiment execution for the three training modes and both phases.

Compute parity: every mode trains through `LocalTrainer`, the one
local-training path. Federated clients drive it from the round protocol;
`run_local` drives it directly, as trainer 0 on the pooled shards
(centralized) or trainer k on shard k (standalone). Every mode runs
`rounds` blocks of `local_epochs` epochs per trainer, each with a fresh
Adam. A model holds its weights at the 32-bit wire precision, so a local
trainer carries into its next block exactly the weights a federated
client gets back from the wire, and one update averages to itself. A
one-client federated run therefore reproduces the centralized run bit for
bit under equal seeds.

A federated run writes its rows as each round is reported: the server
hands the aggregated parameters and the round's updates to one
`on_round` report, which validates the global model and appends the
global row and each client's train and validation rows, all stamped with
the round's wall time. Round 0 is reported the same way, with the
initial parameters and no updates, so it writes the global row alone. The
server reports a round after it has sent the next round's global model,
so a round's wall time runs from the end of the report before it to the
end of its own validation, which overlaps the clients' next round.

Stream derivations (trainer_id is the client id; 0 for the centralized
trainer): see `flnp.training`. The global validation set is carved off
the shuffled corpus before partitioning and, for MLM, masked once per
run so every round scores the same corrupted batches.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from functools import partial

from ..blas import blas_threads, session_budget
from ..data import Vocabulary, build_vocab, gen_synthetic_corpus, load_corpus, partition
from ..data.corpus import CorpusParams, Record
from ..models import build_model, init_model
from ..models.config import ConfigError
from ..params import ParameterSet
from ..protocol.client import FlClient, LocalTrainer
from ..protocol.fedavg import ProtocolError
from ..protocol.messages import LocalUpdate, RoundPlan
from ..protocol.server import FlServer
from ..rng import Rng
from ..tensor import UsageError
from ..training import VALIDATION_MASK_KEY, TrainPlan, evaluate, prepare_eval_batches, split_holdout
from ..transport.codec import parameter_set_from_bytes, parameter_set_to_bytes
from ..transport.tcp import ConnectionClosed, TcpServer, connect
from .config import ExperimentConfig
from .federated import ChannelServer, drive, tcp_client_loop
from .metrics import MetricsRecord

SESSION_KEY_STREAM = 0x5345535  # session-key derivation from the init seed
CLIENT_JOIN_S = 30.0  # how long a finished or failed TCP run waits for its client threads


@dataclass(frozen=True)
class DatasetBundle:
    vocab: Vocabulary
    shards: list[list[Record]]
    global_val: list[Record]

    @property
    def pooled(self) -> list[Record]:
        return [rec for shard in self.shards for rec in shard]


@dataclass
class RunResult:
    run_id: str
    records: list[MetricsRecord]
    finals: dict[str, ParameterSet]  # scope -> final parameters

    @property
    def final_params(self) -> ParameterSet:
        if "global" in self.finals:
            return self.finals["global"]
        return next(iter(self.finals.values()))


def params_checksum(ps: ParameterSet) -> str:
    return hashlib.sha256(parameter_set_to_bytes(ps)).hexdigest()


def save_params(ps: ParameterSet, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(parameter_set_to_bytes(ps))


def load_params(path: str) -> ParameterSet:
    with open(path, "rb") as fh:
        return parameter_set_from_bytes(fh.read())


def build_dataset(cfg: ExperimentConfig) -> DatasetBundle:
    """Corpus -> vocabulary, global validation split, client shards."""
    if cfg.data.source == "synthetic":
        params = CorpusParams(
            min_len=cfg.data.min_len,
            max_len=cfg.data.max_len,
            prevalence=cfg.data.prevalence,
            label_noise=cfg.data.label_noise,
        )
        corpus = gen_synthetic_corpus(cfg.seeds.corpus, cfg.data.n_records, params)
    else:
        corpus = load_corpus(cfg.data.path)

    vocab = build_vocab((" ".join(toks) for _, toks in corpus), cfg.data.vocab_max_size)
    prng = Rng(cfg.seeds.partition)
    shuffled = prng.split(0).shuffled(corpus)
    n_val = max(1, int(round(cfg.data.val_fraction * len(shuffled))))
    global_val = shuffled[:n_val]
    pool = shuffled[n_val:]
    shards = partition(pool, cfg.partition, seed=prng.child_seed(1))
    return DatasetBundle(vocab=vocab, shards=shards, global_val=global_val)


def train_plan(
    cfg: ExperimentConfig,
    bundle: DatasetBundle,
    shards: list[list[Record]] | None = None,
) -> TrainPlan:
    """`LocalTrainer` inputs for `cfg`'s phase; trainer k trains on the bundle's shard k by default."""
    return TrainPlan(
        model_config=cfg.model_config(bundle.vocab.size),
        mode=cfg.model_mode,
        vocab=bundle.vocab,
        shards=bundle.shards if shards is None else shards,
        batch_size=cfg.batch_size,
        max_seq_len=cfg.max_seq_len,
        masking=cfg.masking,
        holdout_frac=cfg.holdout_frac,
        batch_seed=cfg.seeds.batch,
    )


def _val_batches(bundle: DatasetBundle, plan: TrainPlan):
    mask_rng = Rng(plan.batch_seed).split(VALIDATION_MASK_KEY)
    return prepare_eval_batches(bundle.global_val, plan, mask_rng)


def _initial_params(cfg: ExperimentConfig, bundle: DatasetBundle) -> ParameterSet:
    model_cfg = cfg.model_config(bundle.vocab.size)
    return init_model(model_cfg, cfg.seeds.init, mode=cfg.model_mode).export_params()


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def run_local(cfg: ExperimentConfig, bundle: DatasetBundle, inits: list[ParameterSet]) -> RunResult:
    """Centralized or standalone training: local rounds with no server.

    Centralized runs trainer 0 on the pooled shards under scope `global`;
    standalone runs trainer k on shard k under scope `client_k`. `inits`
    holds one initial parameter set per trainer, or one that all start from.
    The trainers run one after another under the budget of a one-client
    session, so a one-client federated run computes with the same BLAS
    thread count as the centralized run.
    """
    centralized = cfg.mode == "centralized"
    plan = train_plan(cfg, bundle, [bundle.pooled] if centralized else None)
    scopes = ["global"] if centralized else [f"client_{k}" for k in range(len(plan.shards))]
    if len(inits) == 1:
        inits = inits * len(scopes)
    val_batches = _val_batches(bundle, plan)
    row = partial(MetricsRecord, cfg.derived_run_id(), cfg.mode, cfg.model)
    records: list[MetricsRecord] = []
    finals: dict[str, ParameterSet] = {}
    _, budget = session_budget(1)  # one trainer at a time
    with blas_threads(budget):
        for k, (scope, init) in enumerate(zip(scopes, inits)):
            trainer = LocalTrainer(plan, k)
            trainer.load(init)
            t0 = time.perf_counter()
            loss, top1 = evaluate(trainer.model, val_batches)
            records.append(row(0, scope, "validation", loss, top1, _ms_since(t0)))
            for rnd in range(1, cfg.rounds + 1):
                t0 = time.perf_counter()
                train_loss, train_top1 = trainer.train_round(rnd, cfg.local_epochs, cfg.lr)
                val_loss, val_top1 = evaluate(trainer.model, val_batches)
                elapsed = _ms_since(t0)
                records.append(row(rnd, scope, "train", train_loss, train_top1, elapsed))
                records.append(row(rnd, scope, "validation", val_loss, val_top1, elapsed))
            finals[scope] = trainer.export()
    return RunResult(run_id=cfg.derived_run_id(), records=records, finals=finals)


def run_federated(
    cfg: ExperimentConfig,
    bundle: DatasetBundle,
    init_params: ParameterSet | None = None,
    remote_clients: bool = False,
) -> RunResult:
    """FedAvg rounds of `cfg`'s phase over the channel or TCP.

    Both deliveries run the same `drive` loop, and the whole session runs
    under one compute budget (`flnp.blas.session_budget`): the channel
    trains `workers` clients at once, and every client gets `budget` BLAS
    threads. Over TCP the clients run `tcp_client_loop` as threads of this
    process, or, with `remote_clients`, as `flnp client` processes the
    server waits for. A client thread ends quietly on a protocol or
    connection fault, which `drive` reports, and the run waits a bounded
    time for its client threads, whether it finished or failed.
    """
    n_clients = len(bundle.shards)
    if not any(split_holdout(shard, cfg.holdout_frac)[0] for shard in bundle.shards):
        raise ConfigError(
            f"holdout_frac {cfg.holdout_frac} leaves no client a training record "
            f"(shard sizes {[len(shard) for shard in bundle.shards]})"
        )
    workers, budget = session_budget(n_clients)
    with blas_threads(budget):
        plan = train_plan(cfg, bundle)
        val_batches = _val_batches(bundle, plan)
        init = init_params or _initial_params(cfg, bundle)

        row = partial(MetricsRecord, cfg.derived_run_id(), cfg.mode, cfg.model)
        records: list[MetricsRecord] = []
        round_start = time.perf_counter()

        def on_round(rnd: int, params: ParameterSet, updates: list[LocalUpdate]) -> dict[str, float]:
            nonlocal round_start
            # Named, so the model is freed as on_round returns: while validation blocked the clients,
            # freeing it as evaluate returned shifted glibc's mmap threshold and raised
            # bert_wire_tcp's peak RSS from 265 to 269 MB (with validation overlapped, both read 183).
            model = build_model(plan.model_config, plan.mode, params)
            loss, top1 = evaluate(model, val_batches)
            wall = _ms_since(round_start)
            records.append(row(rnd, "global", "validation", loss, top1, wall))
            for u in updates:
                m = u.local_metrics
                records.append(row(rnd, f"client_{u.client_id}", "train",
                                   m["train_loss"], m["train_top1_accuracy"], wall))
                records.append(row(rnd, f"client_{u.client_id}", "validation",
                                   m["val_loss"], m["val_top1_accuracy"], wall))
            round_start = time.perf_counter()
            return {"val_loss": loss, "val_top1_accuracy": top1}

        server = FlServer(
            init_params=init,
            n_clients=n_clients,
            plan=RoundPlan(rounds=cfg.rounds, local_epochs=cfg.local_epochs, lr=cfg.lr),
            auth_token=cfg.auth_token,
            session_rng=Rng(cfg.seeds.init).split(SESSION_KEY_STREAM),
            on_round=on_round,
        )

        def make_client(i: int) -> FlClient:
            return FlClient(name=f"client-{i}", auth_token=cfg.auth_token, plan=plan)

        if cfg.transport == "channel":
            channel = ChannelServer([make_client(i) for i in range(n_clients)], workers=workers)
            try:
                drive(server, channel)
                channel.flush()  # the last RoundComplete and Shutdown reach the clients, as over TCP
            finally:
                channel.close()
        else:
            host, port = cfg.host_port()
            tcp = TcpServer(host, port, expected=n_clients)
            tcp.start()
            threads: list[threading.Thread] = []
            try:
                if remote_clients:
                    print(f"waiting for {n_clients} clients on {host}:{tcp.port}", flush=True)
                else:
                    for i in range(n_clients):
                        conn = connect(host, tcp.port)
                        t = threading.Thread(target=_client_thread, args=(make_client(i), conn),
                                             name=f"flnp-client-{i}", daemon=True)
                        t.start()
                        threads.append(t)
                drive(server, tcp)
            finally:
                tcp.close()
                for t in threads:
                    t.join(timeout=CLIENT_JOIN_S)

    return RunResult(run_id=cfg.derived_run_id(), records=records,
                     finals={"global": server.global_params})


def _client_thread(client: FlClient, conn) -> None:
    """`tcp_client_loop` as a thread of the run: a fault ends it quietly, and `drive` reports it."""
    try:
        tcp_client_loop(client, conn)
    except (ProtocolError, ConnectionClosed, OSError):
        pass


ENCODER_HEAD_PREFIXES = ("mlm.", "cls.")


def merge_encoder(pretrained: ParameterSet, fresh: ParameterSet) -> ParameterSet:
    """Fresh head parameters over the pretrained encoder weights."""
    items = []
    for name, arr in fresh.items():
        if name in pretrained and not name.startswith(ENCODER_HEAD_PREFIXES):
            items.append((name, pretrained[name]))
        else:
            items.append((name, arr))
    return ParameterSet(items)


def run_experiment(
    cfg: ExperimentConfig,
    bundle: DatasetBundle | None = None,
    remote_clients: bool = False,
) -> list[RunResult]:
    """Run each of `cfg.phases()` in order; returns one result per phase.

    A phase starts from fresh heads over each final parameter set of the
    phase before it, else (fine-tuning) over the loaded
    `pretrained_params_path`, else from a fresh init.
    """
    bundle = bundle or build_dataset(cfg)
    results: list[RunResult] = []
    for phase_cfg in cfg.phases():
        if results:
            encoders = list(results[-1].finals.values())
        elif phase_cfg.phase == "finetune_classify" and phase_cfg.pretrained_params_path:
            try:
                encoders = [load_params(phase_cfg.pretrained_params_path)]
            except FileNotFoundError:
                raise UsageError(
                    f"pretraining snapshot '{phase_cfg.pretrained_params_path}' not found"
                ) from None
        else:
            encoders = []
        fresh = _initial_params(phase_cfg, bundle)
        inits = [merge_encoder(p, fresh) for p in encoders] or [fresh]
        if phase_cfg.mode == "federated":
            results.append(run_federated(phase_cfg, bundle, inits[0], remote_clients))
        else:
            results.append(run_local(phase_cfg, bundle, inits))
    return results
