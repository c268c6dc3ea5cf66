"""Command-line entry points.

Subcommands:
    gen-data   write a synthetic labeled corpus to a file
    run        execute one configured experiment (channel, or TCP with
               client threads in this process)
    serve      run the server role of a networked deployment
    client     run one client role against a remote server
    compare    run the 3 models x 3 modes classification grid

Exit codes: 0 ok, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .blas import blas_threads, session_budget
from .data import CorpusParams, gen_synthetic_corpus, save_corpus
from .models.config import ConfigError
from .protocol.client import FlClient
from .protocol.messages import ProtocolError
from .tensor import UsageError
from .transport.tcp import connect
from .experiment.config import ExperimentConfig, load_config
from .experiment.federated import tcp_client_loop
from .experiment.metrics import MetricsRecord, emit_metrics, parse_metrics
from .experiment.runner import (
    build_dataset,
    params_checksum,
    run_experiment,
    save_params,
    train_plan,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flnp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write a synthetic labeled corpus")
    gen.add_argument("--out", required=True, help="output corpus path")
    gen.add_argument("--n", type=int, default=10000, help="number of records")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--min-len", type=int, default=CorpusParams.min_len)
    gen.add_argument("--max-len", type=int, default=CorpusParams.max_len)
    gen.add_argument("--prevalence", type=float, default=CorpusParams.prevalence)
    gen.add_argument("--label-noise", type=float, default=CorpusParams.label_noise)

    def add_run_args(p, addr=True):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override a config field by dotted path (repeatable)")
        p.add_argument("--out", default=None, help="metrics/artifact directory")
        if addr:
            p.add_argument("--addr", default=None, help="host:port for tcp transport")

    run = sub.add_parser("run", help="execute one experiment")
    add_run_args(run)
    run.add_argument("--transport", choices=["channel", "tcp"], default=None)
    run.add_argument("--force", action="store_true", help="rerun even if outputs exist")

    serve = sub.add_parser("serve", help="server role for multi-machine runs")
    add_run_args(serve)

    client = sub.add_parser("client", help="client role for multi-machine runs")
    add_run_args(client)
    client.add_argument("--name", required=True, help="client name for provisioning")

    compare = sub.add_parser("compare", help="3 models x 3 modes accuracy grid")
    add_run_args(compare, addr=False)
    compare.add_argument("--force", action="store_true")
    compare.add_argument("--with-pretrain", action="store_true",
                         help="pretrain transformer encoders before fine-tuning")
    return parser


def _load_cfg(args) -> ExperimentConfig:
    overrides = list(args.set)
    if getattr(args, "transport", None):
        overrides.append(f"transport={args.transport}")
    if getattr(args, "addr", None):
        overrides.append(f"addr={args.addr}")
    if args.out:
        overrides.append(f"out_dir={args.out}")
    return load_config(args.config, overrides)


def cmd_gen_data(args) -> int:
    params = CorpusParams(
        min_len=args.min_len, max_len=args.max_len,
        prevalence=args.prevalence, label_noise=args.label_noise,
    )
    records = gen_synthetic_corpus(args.seed, args.n, params)
    save_corpus(records, args.out)
    positives = sum(label for label, _ in records)
    print(f"wrote {len(records)} records to {args.out} ({positives} positive)")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load_cfg(args)
    os.makedirs(cfg.out_dir, exist_ok=True)

    existing = [
        path for path in _expected_outputs(cfg)
        if os.path.exists(path)
    ]
    if existing and not args.force:
        print(f"outputs already present ({existing[0]}); use --force to rerun")
        return EXIT_OK

    _write_results(cfg.out_dir, run_experiment(cfg))
    return EXIT_OK


def _write_results(out_dir: str, results) -> None:
    """Each phase's metrics CSV and final parameters, named by run id."""
    for result in results:
        csv_path = os.path.join(out_dir, f"{result.run_id}.csv")
        emit_metrics(result.records, csv_path)
        params_path = os.path.join(out_dir, f"{result.run_id}-params.flnp")
        save_params(result.final_params, params_path)
        print(f"{result.run_id}: metrics -> {csv_path}")
        print(f"{result.run_id}: final-params sha256 {params_checksum(result.final_params)}")


def _expected_outputs(cfg: ExperimentConfig) -> list[str]:
    return [os.path.join(cfg.out_dir, f"{phase.derived_run_id()}.csv") for phase in cfg.phases()]


def cmd_serve(args) -> int:
    cfg = _load_cfg(args)
    if cfg.mode != "federated":
        raise ConfigError("serve requires mode=federated")
    if len(cfg.phases()) > 1:
        # remote clients build one model for the whole session, so they
        # cannot follow the switch from the MLM to the classifier phase
        raise ConfigError(
            f"serve runs single-phase configs only; phase '{cfg.phase}' needs "
            "one serve per phase ('pretrain_mlm', then 'finetune_classify' with "
            "pretrained_params_path) or 'flnp run --transport tcp'"
        )
    cfg_tcp = dataclasses.replace(cfg, transport="tcp")
    os.makedirs(cfg_tcp.out_dir, exist_ok=True)
    _write_results(cfg_tcp.out_dir, run_experiment(cfg_tcp, remote_clients=True))
    return EXIT_OK


def cmd_client(args) -> int:
    cfg = _load_cfg(args)
    client = FlClient(args.name, cfg.auth_token, train_plan(cfg, build_dataset(cfg)))
    # the server's budget for a session of this size, so a served run equals `flnp run`
    with blas_threads(session_budget(cfg.effective_clients())[1]):
        tcp_client_loop(client, connect(*cfg.host_port()))  # --addr is already in cfg.addr
    print(f"{args.name}: completed {len(client.round_history)} rounds")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _load_cfg(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    models = ["bert", "bert_mini", "lstm"]
    modes = ["centralized", "standalone", "federated"]
    table: dict[tuple[str, str], float] = {}

    for model in models:
        pretrain_artifact = os.path.join(cfg.out_dir, f"compare-pretrain-{model}-params.flnp")
        if args.with_pretrain and model != "lstm" and (args.force or not os.path.exists(pretrain_artifact)):
            pre_cfg = _cell_config(cfg, "federated", model, "pretrain_mlm")
            result = run_experiment(pre_cfg)[-1]
            save_params(result.final_params, pretrain_artifact)
        for mode in modes:
            cell_cfg = _cell_config(cfg, mode, model, "finetune_classify")
            csv_path = os.path.join(cfg.out_dir, f"{cell_cfg.run_id}.csv")
            if os.path.exists(csv_path) and not args.force:
                table[(mode, model)] = _final_accuracy(parse_metrics(csv_path))
                continue
            if model != "lstm" and os.path.exists(pretrain_artifact):
                cell_cfg = dataclasses.replace(cell_cfg, pretrained_params_path=pretrain_artifact)
            result = run_experiment(cell_cfg)[-1]
            emit_metrics(result.records, csv_path)
            table[(mode, model)] = _final_accuracy(result.records)

    print(f"{'top-1 accuracy':<14} " + " ".join(f"{m:>10}" for m in models))
    for mode in modes:
        cells = " ".join(f"{table[(mode, m)]:>10.3f}" for m in models)
        print(f"{mode:<14} {cells}")
    return EXIT_OK


def _cell_config(base: ExperimentConfig, mode: str, model: str, phase: str) -> ExperimentConfig:
    return dataclasses.replace(base, mode=mode, model=model, phase=phase,
                               run_id=f"compare-{model}-{mode}")


def _final_accuracy(records: list[MetricsRecord]) -> float:
    """Mean last-round validation accuracy of the global rows, else of every row."""
    last_round = max(r.round for r in records)
    finals = [r for r in records if r.round == last_round and r.split == "validation"]
    # standalone has one validation row per client and no global row
    chosen = [r for r in finals if r.scope == "global"] or finals
    return sum(r.top1_accuracy for r in chosen) / len(chosen)


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "gen-data": cmd_gen_data,
        "run": cmd_run,
        "serve": cmd_serve,
        "client": cmd_client,
        "compare": cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ProtocolError, OSError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def console_main() -> None:
    sys.exit(cli_main())
