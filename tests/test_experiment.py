import csv
import dataclasses
import json
import math
import threading
from functools import partial

import numpy as np
import pytest

from flnp.experiment.config import ExperimentConfig, apply_overrides, config_from_dict
from flnp.experiment.federated import ChannelServer
from flnp.experiment.metrics import MetricsRecord, emit_metrics, parse_metrics
from flnp.experiment.runner import (
    build_dataset,
    load_params,
    merge_encoder,
    params_checksum,
    run_experiment,
    save_params,
    train_plan,
)
from flnp.models import build_model
from flnp.models.config import ConfigError
from flnp.protocol.fedavg import ProtocolError
from flnp.rng import Rng
from flnp.training import VALIDATION_MASK_KEY, evaluate, prepare_eval_batches


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """A config as the plain JSON data `config_from_dict` reads."""
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


def strip_wall_time(path: str) -> list[list[str]]:
    """A metrics CSV's rows without the wall_time column, for determinism diffs."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [row[:-1] for row in csv.reader(fh)]


def small_cfg(**kw):
    base = {
        "mode": "federated",
        "phase": "pretrain_mlm",
        "model": "bert_mini",
        "rounds": 2,
        "local_epochs": 1,
        "batch_size": 16,
        "max_seq_len": 20,
        "partition": {"n_clients": 2, "mode": "balanced"},
        "data": {"n_records": 80, "min_len": 8, "max_len": 14},
    }
    base.update(kw)
    return config_from_dict(base)


class TestConfig:
    def test_defaults_follow_study_setup(self):
        cfg = config_from_dict({})
        assert cfg.partition.n_clients == 8
        assert cfg.lr == pytest.approx(1e-2)
        assert cfg.rounds == 10

    def test_lstm_mlm_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"model": "lstm", "phase": "pretrain_mlm"})

    def test_single_client_federated_needs_override(self):
        with pytest.raises(ConfigError):
            config_from_dict({"mode": "federated", "partition": {"n_clients": 1}})
        cfg = config_from_dict({"mode": "federated", "partition": {"n_clients": 1},
                                "allow_single_client": True})
        assert cfg.effective_clients() == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"no_such_field": 1})

    def test_set_overrides(self):
        data = {"seeds": {"init": 3}}
        apply_overrides(data, ["seeds.init=7", "lr=0.003", "model=lstm",
                               "partition.n_clients=4"])
        cfg = config_from_dict({**data, "phase": "finetune_classify"})
        assert cfg.seeds.init == 7
        assert cfg.lr == 0.003
        assert cfg.model == "lstm"
        assert cfg.partition.n_clients == 4

    def test_round_trip_via_dict(self):
        cfg = small_cfg()
        assert config_from_dict(config_to_dict(cfg)) == cfg


class TestDataset:
    def test_seed_isolation_batch_seed_leaves_data_alone(self):
        a = build_dataset(small_cfg())
        b = build_dataset(small_cfg(seeds={"batch": 999}))
        assert a.shards == b.shards
        assert a.global_val == b.global_val
        tokens = [tok for _, toks in a.pooled + a.global_val for tok in toks]
        assert a.vocab.size == b.vocab.size
        assert a.vocab.encode(tokens) == b.vocab.encode(tokens)

    def test_corpus_seed_changes_data(self):
        a = build_dataset(small_cfg())
        b = build_dataset(small_cfg(seeds={"corpus": 42}))
        assert a.shards != b.shards

    def test_partition_seed_changes_assignment_not_corpus(self):
        a = build_dataset(small_cfg())
        b = build_dataset(small_cfg(seeds={"partition": 42}))
        assert sorted(map(repr, a.pooled + a.global_val)) == sorted(map(repr, b.pooled + b.global_val))
        assert a.shards != b.shards


class TestMetricsCsv:
    def _records(self):
        return [
            MetricsRecord("r", "federated", "bert_mini", 1, "global", "validation", 0.5, 0.75, 12.0),
            MetricsRecord("r", "federated", "bert_mini", 0, "global", "validation", 0.7, 0.5, 3.0),
            MetricsRecord("r", "federated", "bert_mini", 1, "client_0", "train", 0.4, 0.8, 12.0),
        ]

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "m.csv")
        records = [
            MetricsRecord("r", "centralized", "lstm", i, "global", "validation",
                          float(f"{np.pi * (i + 1):.6g}"), float(f"{0.1 * i:.6g}"), 0.0)
            for i in range(5)
        ]
        emit_metrics(records, path)
        assert parse_metrics(path) == records

    def test_rows_sorted_by_round_scope_split(self, tmp_path):
        path = str(tmp_path / "m.csv")
        emit_metrics(self._records(), path)
        rounds = [r.round for r in parse_metrics(path)]
        assert rounds == sorted(rounds)

    def test_empty_stream_writes_header_only(self, tmp_path):
        path = str(tmp_path / "m.csv")
        emit_metrics([], path)
        content = (tmp_path / "m.csv").read_text().strip().splitlines()
        assert len(content) == 1
        assert content[0].startswith("run_id,mode,model,round,scope,split,loss")

    def test_wall_time_excluded_from_determinism_diff(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        recs = self._records()
        emit_metrics(recs, a)
        jittered = [MetricsRecord(r.run_id, r.mode, r.model, r.round, r.scope, r.split,
                                  r.loss, r.top1_accuracy, r.wall_time_ms + 5.0) for r in recs]
        emit_metrics(jittered, b)
        assert strip_wall_time(a) == strip_wall_time(b)
        assert (tmp_path / "a.csv").read_text() != (tmp_path / "b.csv").read_text()


class TestRuns:
    def test_initial_mlm_loss_is_log_vocab(self):
        cfg = small_cfg(mode="centralized", rounds=0, data={"n_records": 120, "min_len": 8, "max_len": 14})
        bundle = build_dataset(cfg)
        result = run_experiment(cfg, bundle)[0]
        initial = [r for r in result.records if r.round == 0][0]
        expected = math.log(bundle.vocab.size)
        assert 0.95 * expected <= initial.loss <= 1.05 * expected

    def test_same_config_identical_metrics_and_params(self):
        cfg = small_cfg(mode="centralized")
        a = run_experiment(cfg)[0]
        b = run_experiment(cfg)[0]
        strip = lambda rs: [(r.round, r.scope, r.split, r.loss, r.top1_accuracy) for r in rs]
        assert strip(a.records) == strip(b.records)
        assert a.final_params == b.final_params
        assert params_checksum(a.final_params) == params_checksum(b.final_params)

    def test_losses_always_finite(self):
        result = run_experiment(small_cfg())[0]
        assert all(np.isfinite(r.loss) for r in result.records)

    def test_round_count_contract(self):
        cfg = small_cfg(rounds=3, partition={"n_clients": 2, "mode": "balanced"})
        bundle = build_dataset(cfg)
        from flnp.experiment.runner import run_federated

        result = run_federated(cfg, bundle)
        # exactly E aggregated rounds; every client contributed each round
        global_val = [r for r in result.records if r.scope == "global" and r.round > 0]
        assert len(global_val) == 3
        client_rows = [r for r in result.records if r.scope.startswith("client_") and r.split == "train"]
        assert len(client_rows) == 3 * 2

    def test_reported_final_loss_is_the_loss_of_the_saved_params(self, tmp_path):
        cfg = small_cfg(transport="channel")
        bundle = build_dataset(cfg)
        result = run_experiment(cfg, bundle)[0]
        path = str(tmp_path / "final.flnp")
        save_params(result.final_params, path)
        plan = train_plan(cfg, bundle)
        model = build_model(plan.model_config, plan.mode, load_params(path))
        batches = prepare_eval_batches(bundle.global_val, plan,
                                       Rng(cfg.seeds.batch).split(VALIDATION_MASK_KEY))
        final = [r for r in result.records if (r.scope, r.split) == ("global", "validation")][-1]
        assert final.round == cfg.rounds
        assert evaluate(model, batches)[0] == final.loss

    def test_standalone_single_client_full_data_equals_centralized(self):
        base = dict(rounds=2, partition={"n_clients": 1, "mode": "balanced"},
                    allow_single_client=True)
        alone = run_experiment(small_cfg(mode="standalone", **base))[0]
        central = run_experiment(small_cfg(mode="centralized", **base))[0]
        assert alone.finals["client_0"] == central.finals["global"]

    def test_one_client_federated_collapses_to_centralized(self):
        base = dict(rounds=3, partition={"n_clients": 1, "mode": "balanced"},
                    allow_single_client=True)
        fed = run_experiment(small_cfg(mode="federated", **base))[0]
        central = run_experiment(small_cfg(mode="centralized", **base))[0]
        assert fed.final_params == central.final_params

    def test_standalone_shard_sizes_follow_imbalanced_spec(self):
        cfg = small_cfg(
            mode="standalone",
            rounds=1,
            partition={"n_clients": 8, "mode": "imbalanced"},
            data={"n_records": 1120, "min_len": 8, "max_len": 12},
        )
        bundle = build_dataset(cfg)  # 1008 after the validation split
        from flnp.data import largest_remainder_sizes, IMBALANCED_RATIOS

        assert [len(s) for s in bundle.shards] == largest_remainder_sizes(1008, IMBALANCED_RATIOS)

    def test_drop_injection_aborts_deterministically(self, monkeypatch):
        cfg = small_cfg(rounds=3)
        bundle = build_dataset(cfg)
        from flnp.experiment import runner

        def failing_round(seed):
            lossy = partial(ChannelServer, drop_rng=Rng(seed), drop_prob=0.15)
            monkeypatch.setattr(runner, "ChannelServer", lossy)
            try:
                runner.run_federated(cfg, bundle)
                return None
            except ProtocolError as err:
                return str(err)

        first = failing_round(3)
        assert first is not None and "round" in first
        assert failing_round(3) == first

    def test_failed_channel_run_leaves_no_pool_thread(self, monkeypatch):
        from flnp.experiment import runner

        cfg = small_cfg(rounds=2)
        bundle = build_dataset(cfg)
        evaluate = runner.evaluate
        calls = []

        def evaluate_failing_round_1(model, batches):
            calls.append(None)
            if len(calls) == 2:  # round 1's validation, while the clients work on round 2
                raise RuntimeError("validation failed")
            return evaluate(model, batches)

        monkeypatch.setattr(runner, "evaluate", evaluate_failing_round_1)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="validation failed"):
            runner.run_federated(cfg, bundle)
        assert not [t for t in set(threading.enumerate()) - before
                    if t.name.startswith("flnp-channel")]

    def test_failed_tcp_run_leaves_no_client_thread(self, monkeypatch):
        from flnp.experiment import runner

        cfg = small_cfg(rounds=2, transport="tcp", addr="127.0.0.1:0")
        evaluate = runner.evaluate
        calls = []

        def evaluate_failing_round_1(model, batches):
            calls.append(None)
            if len(calls) == 2:  # round 1's validation, while the clients work on round 2
                raise RuntimeError("validation failed")
            return evaluate(model, batches)

        monkeypatch.setattr(runner, "evaluate", evaluate_failing_round_1)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="validation failed"):
            runner.run_federated(cfg, build_dataset(cfg))
        assert not [t for t in set(threading.enumerate()) - before if "client" in t.name]

    @pytest.mark.parametrize("transport", ["channel", "tcp"])
    def test_a_fault_the_client_raises_reaches_the_server_under_its_code(self, monkeypatch, transport):
        from flnp.protocol.client import FlClient

        provisioned = FlClient._on_provisioned

        def wrong_key_for_client_1(self, msg):
            out = provisioned(self, msg)
            if self.client_id == 1:
                self.session_key = bytes(len(self.session_key))
            return out

        monkeypatch.setattr(FlClient, "_on_provisioned", wrong_key_for_client_1)
        cfg = small_cfg(model="lstm", phase="finetune_classify", rounds=1,
                        transport=transport, addr="127.0.0.1:0")
        with pytest.raises(ProtocolError, match="global model failed tag verification") as err:
            run_experiment(cfg)
        assert err.value.code == "auth_failed"


class TestRoundOrder:
    """The server reports round r while the clients work on round r+1."""

    @staticmethod
    def _lstm_cfg(transport, **kw):
        return small_cfg(model="lstm", phase="finetune_classify", transport=transport,
                         addr="127.0.0.1:0", **kw)

    def test_clients_receive_the_same_sequence_over_channel_and_tcp(self, monkeypatch):
        from flnp.protocol.client import FlClient

        handle = FlClient.handle
        seen: dict[str, list] = {}

        def recording_handle(self, msg):
            seen.setdefault(self.name, []).append((type(msg).__name__, getattr(msg, "round", None)))
            return handle(self, msg)

        monkeypatch.setattr(FlClient, "handle", recording_handle)
        sequences = []
        for transport in ("channel", "tcp"):
            seen.clear()
            run_experiment(self._lstm_cfg(transport, rounds=2))
            sequences.append(dict(seen))
        expected = [("Provisioned", None), ("GlobalModel", 1), ("GlobalModel", 2),
                    ("RoundComplete", 1), ("RoundComplete", 2), ("Shutdown", None)]
        assert sequences[0] == sequences[1] == {"client-0": expected, "client-1": expected}

    @pytest.mark.parametrize("transport", ["channel", "tcp"])
    def test_round_1_is_validated_while_the_clients_train_round_2(self, monkeypatch, transport):
        from flnp.experiment import runner
        from flnp.protocol.client import LocalTrainer

        round_2_started = threading.Event()
        train_round = LocalTrainer.train_round

        def signalling_train_round(self, round_no, epochs, lr):
            if round_no == 2:
                round_2_started.set()
            return train_round(self, round_no, epochs, lr)

        evaluate = runner.evaluate
        waited = []

        def waiting_evaluate(model, batches):
            waited.append(round_2_started.wait(timeout=20) if len(waited) == 1 else None)
            return evaluate(model, batches)

        monkeypatch.setattr(LocalTrainer, "train_round", signalling_train_round)
        monkeypatch.setattr(runner, "evaluate", waiting_evaluate)
        run_experiment(self._lstm_cfg(transport, rounds=2))
        assert waited == [None, True, None]

    def test_zero_rounds_write_the_round_0_global_row_alone(self, tmp_path):
        rows = []
        for transport in ("channel", "tcp"):
            path = str(tmp_path / f"{transport}.csv")
            emit_metrics(run_experiment(self._lstm_cfg(transport, rounds=0))[0].records, path)
            rows.append(strip_wall_time(path))
        assert rows[0] == rows[1]
        assert [row[3:6] for row in rows[0][1:]] == [["0", "global", "validation"]]


class TestPretrainFinetune:
    def test_encoder_names_carry_over_and_heads_are_disjoint(self):
        cfg = small_cfg(mode="centralized", phase="pretrain_then_finetune",
                        rounds=1, pretrain_rounds=1)
        pre, fine = run_experiment(cfg)
        pre_names = set(pre.final_params.names)
        fine_names = set(fine.final_params.names)
        encoder = {n for n in pre_names if not n.startswith(("mlm.", "cls."))}
        assert encoder <= fine_names
        assert {n for n in pre_names if n.startswith("mlm.")}.isdisjoint(fine_names)
        assert any(n.startswith("cls.") for n in fine_names)

    def test_merge_encoder_keeps_pretrained_weights(self):
        cfg = small_cfg(mode="centralized", phase="pretrain_then_finetune",
                        rounds=1, pretrain_rounds=1)
        bundle = build_dataset(cfg)
        pre, fine = run_experiment(cfg, bundle)
        merged = merge_encoder(pre.final_params, fine.final_params)
        assert np.array_equal(merged["emb.tok"], pre.final_params["emb.tok"])

    def test_missing_artifact_is_usage_error(self):
        from flnp.tensor import UsageError

        cfg = small_cfg(mode="centralized", phase="finetune_classify",
                        pretrained_params_path="/nonexistent/snXX.flnp")
        with pytest.raises(UsageError):
            run_experiment(cfg)


class TestEvaluate:
    @staticmethod
    def model_and_batches(model_name, phase):
        cfg = small_cfg(mode="centralized", model=model_name, phase=phase)
        bundle = build_dataset(cfg)
        plan = train_plan(cfg, bundle)
        model = build_model(plan.model_config, plan.mode, run_experiment(cfg, bundle)[0].final_params)
        batches = prepare_eval_batches(bundle.global_val, plan,
                                       Rng(cfg.seeds.batch).split(VALIDATION_MASK_KEY))
        return model, batches

    @pytest.mark.parametrize("model_name, phase", [("bert_mini", "pretrain_mlm"),
                                                   ("lstm", "finetune_classify")])
    def test_records_no_tape_and_scores_as_a_taped_forward(self, model_name, phase, monkeypatch):
        import flnp.training

        model, batches = self.model_and_batches(model_name, phase)
        taped = []
        for batch in batches:  # the same forwards with the tape recorded
            loss, logits, labels = flnp.training.batch_loss(model, batch)
            assert loss._parents
            taped.append((loss.item(), len(labels), flnp.training.count_correct(logits, labels)))
        want_loss = sum(loss * n for loss, n, _ in taped) / sum(n for _, n, _ in taped)
        want_top1 = sum(c for _, _, c in taped) / sum(n for _, n, _ in taped)

        losses = []

        def recording(model, batch):
            out = batch_loss(model, batch)
            losses.append(out[0])
            return out

        batch_loss = flnp.training.batch_loss
        monkeypatch.setattr(flnp.training, "batch_loss", recording)
        assert evaluate(model, batches) == (want_loss, want_top1)
        assert len(losses) == len(batches)
        assert all(not loss._parents and not loss.requires_grad for loss in losses)
        assert all(t.requires_grad for t in model.params.values())

    def test_requires_grad_comes_back_after_an_error(self, monkeypatch):
        import flnp.training

        model, batches = self.model_and_batches("lstm", "finetune_classify")
        model.params["cls.b"].requires_grad = False  # a flag that was off stays off

        def failing(model, batch):
            raise RuntimeError("forward failed")

        monkeypatch.setattr(flnp.training, "batch_loss", failing)
        with pytest.raises(RuntimeError, match="forward failed"):
            evaluate(model, batches)
        assert {n for n, t in model.params.items() if not t.requires_grad} == {"cls.b"}
