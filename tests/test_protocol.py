import numpy as np
import pytest

from flnp.data import MaskingConfig, build_vocab
from flnp.models import ModelConfig, init_model
from flnp.params import ParameterSet
from flnp.protocol import (
    ErrorMsg,
    GlobalModel,
    Hello,
    LocalUpdate,
    ProtocolError,
    Provisioned,
    RoundComplete,
    RoundPlan,
    Shutdown,
    aggregate,
)
from flnp.protocol.client import FlClient, LocalTrainer
from flnp.protocol.server import FlServer
from flnp.rng import Rng
from flnp.tensor import UsageError
from flnp.training import TrainPlan, count_correct
from flnp.transport.codec import sign


def _params(values) -> ParameterSet:
    return ParameterSet([("w", np.asarray(values, dtype=np.float64))])


def _update(cid, values, n, rnd=1):
    return LocalUpdate(client_id=cid, round=rnd, params=_params(values), n_samples=n)


class TestAggregate:
    def test_unweighted_mean_of_two(self):
        out = aggregate([_update(0, [2.0], 1), _update(1, [4.0], 1)])
        assert out["w"].tolist() == [3.0]

    def test_weighted_mean(self):
        out = aggregate([_update(0, [0.0], 1), _update(1, [3.0], 2)])
        assert out["w"].tolist() == [2.0]

    def test_single_update_returned_unchanged(self):
        src = _update(0, [1.25, -7.5], 3)
        out = aggregate([src])
        assert out == src.params

    def test_identical_updates_fixed_point_exact(self):
        # k copies of one update aggregate to exactly that update, any k
        for k in (2, 3, 5, 8):
            values = [0.1, -0.3, 0.7]
            updates = [_update(i, values, n=i + 1) for i in range(k)]
            out = aggregate(updates)
            assert out == updates[0].params

    def test_order_invariance_bit_exact(self):
        rng = Rng(5)
        updates = [_update(i, rng.normal(0, 1, (4,)), int(rng.integers(100)) + 1) for i in range(8)]
        forward = aggregate(updates)
        backward_ = aggregate(list(reversed(updates)))
        assert forward == backward_

    def test_brute_force_oracle_100_random_sets(self):
        rng = Rng(77)
        for _ in range(100):
            updates = []
            counts = []
            for cid in range(8):
                vals = rng.normal(0, 1, (3, 2))
                n = 1 + int(rng.integers(500))
                updates.append(LocalUpdate(cid, 1, ParameterSet([("a", vals)]), n))
                counts.append(n)
            out = aggregate(updates)
            total = sum(counts)
            expected = np.zeros((3, 2))
            for u, n in zip(updates, counts):
                for i in range(3):
                    for j in range(2):
                        expected[i, j] += n * float(u.params["a"][i, j])
            expected /= total
            assert out["a"].tobytes() == expected.astype(np.float32).tobytes()

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            aggregate([])

    def test_manifest_mismatch_rejected(self):
        a = _update(0, [1.0], 1)
        b = LocalUpdate(1, 1, ParameterSet([("asdf", np.zeros(1))]), 1)
        with pytest.raises(ProtocolError) as err:
            aggregate([a, b])
        assert err.value.code == "manifest_mismatch"

    def test_round_mismatch_rejected(self):
        with pytest.raises(ProtocolError) as err:
            aggregate([_update(0, [1.0], 1, rnd=1), _update(1, [1.0], 1, rnd=2)])
        assert err.value.code == "round_mismatch"


class TestTop1:
    def test_perfectly_separable(self):
        logits = np.array([[5.0, 0.0], [0.0, 5.0]])
        assert count_correct(logits, np.array([0, 1])) == 2

    def test_ties_break_toward_lower_class(self):
        logits = np.zeros((4, 2))
        labels = np.array([0, 0, 0, 1])  # class-0 prevalence 0.75
        assert count_correct(logits, labels) == 3


def _server(n_clients=2, rounds=1, token="secret", on_round=lambda rnd, params, updates: {}):
    plan = RoundPlan(rounds=rounds, local_epochs=1, lr=0.01)
    return FlServer(_params([0.0, 0.0]), n_clients, plan, token, session_rng=Rng(1),
                    on_round=on_round)


class TestProvision:
    def test_eight_hellos_get_ids_0_to_7_then_distribution(self):
        server = _server(n_clients=8, rounds=2)
        out = []
        for i in range(8):
            out += server.handle(i, Hello(client_name=f"c{i}", auth_token="secret"))
        ids = [m.client_id for _, m in out if isinstance(m, Provisioned)]
        assert ids == list(range(8))
        globals_sent = [m for _, m in out if isinstance(m, GlobalModel)]
        assert len(globals_sent) == 8
        assert server.phase == "collecting"
        assert server.round == 1

    def test_wrong_token_leaves_registry_unchanged(self):
        server = _server()
        out = server.handle(0, Hello(client_name="x", auth_token="wrong"))
        assert isinstance(out[0][1], ErrorMsg)
        assert out[0][1].code == "auth_failed"
        out2 = server.handle(0, Hello(client_name="x", auth_token="secret"))
        assert isinstance(out2[0][1], Provisioned)
        assert out2[0][1].client_id == 0

    def test_duplicate_name_rejected(self):
        server = _server(n_clients=3)
        server.handle(0, Hello(client_name="same", auth_token="secret"))
        out = server.handle(1, Hello(client_name="same", auth_token="secret"))
        assert out[0][1].code == "duplicate_client"

    def test_ninth_hello_over_capacity(self):
        server = _server(n_clients=8, rounds=1)
        for i in range(8):
            server.handle(i, Hello(client_name=f"c{i}", auth_token="secret"))
        out = server.handle(8, Hello(client_name="late", auth_token="secret"))
        assert out[0][1].code == "capacity"

    def test_zero_rounds_shuts_down_immediately(self):
        reports = []
        server = _server(n_clients=1, rounds=0, on_round=lambda *args: reports.append(args) or {})
        out = server.handle(0, Hello(client_name="only", auth_token="secret"))
        kinds = [type(m).__name__ for _, m in out]
        assert kinds == ["Provisioned", "Shutdown"]
        assert server.phase == "done"
        assert reports == []

    def test_every_client_is_provisioned_with_the_servers_plan(self):
        server = _server(n_clients=2, rounds=3)
        out = server.handle(0, Hello(client_name="a", auth_token="secret"))
        out += server.handle(1, Hello(client_name="b", auth_token="secret"))
        plans = [m.round_plan for _, m in out if isinstance(m, Provisioned)]
        assert plans == [server.plan, server.plan]
        sent = [m for _, m in out if isinstance(m, GlobalModel)]
        assert [(m.local_epochs, m.lr) for m in sent] == [(1, 0.01), (1, 0.01)]

    def test_second_hello_on_a_provisioned_connection_refused(self):
        server = _server(n_clients=2)
        server.handle(0, Hello(client_name="a", auth_token="secret"))
        out = server.handle(0, Hello(client_name="b", auth_token="secret"))
        assert [m.code for _, m in out] == ["duplicate_client"]
        assert server.phase == "awaiting_provision"
        out = server.handle(1, Hello(client_name="c", auth_token="secret"))
        assert [m.client_id for _, m in out if isinstance(m, Provisioned)] == [1]
        assert {conn: slot.client_id for conn, slot in server._slots.items()} == {0: 0, 1: 1}
        assert [slot.name for slot in server._slots.values()] == ["a", "c"]  # the refused "b" was not registered
        assert server.phase == "collecting"


def _session_key(server, conn):
    return server._slots[conn].session_key


def _provisioned(n_clients, rounds, on_round):
    server = _server(n_clients=n_clients, rounds=rounds, on_round=on_round)
    for i in range(n_clients):
        server.handle(i, Hello(client_name=f"c{i}", auth_token="secret"))
    return server


def _send_update(server, cid, values, rnd=1):
    update = LocalUpdate(cid, rnd, _params(values), 1, local_metrics={"id": float(cid)})
    return server.handle(cid, sign(update, _session_key(server, cid)))


class TestRoundFlow:
    def test_round_completes_and_aggregates(self):
        reports = []
        server = _provisioned(2, 1, lambda *args: reports.append(args) or {"val_loss": 0.5})
        assert _send_update(server, 0, [2.0, 0.0]) == []
        assert reports == []
        out1 = _send_update(server, 1, [4.0, 2.0]) + server.report()
        assert server.phase == "done"
        assert server.global_params["w"].tolist() == [3.0, 1.0]
        assert len(reports) == 1
        assert any(isinstance(m, Shutdown) for _, m in out1)

    def test_bad_round_echo_rejected(self):
        server = _server(n_clients=1, rounds=2)
        server.handle(0, Hello(client_name="a", auth_token="secret"))
        out = server.handle(0, sign(LocalUpdate(0, 99, _params([1.0, 1.0]), 1), _session_key(server, 0)))
        assert out[0][1].code == "round_mismatch"

    def test_unsigned_update_rejected(self):
        server = _server(n_clients=1, rounds=1)
        server.handle(0, Hello(client_name="a", auth_token="secret"))
        out = server.handle(0, LocalUpdate(0, 1, _params([1.0, 1.0]), 1))
        assert out[0][1].code == "auth_failed"

    def test_manifest_mismatch(self):
        server = _server(n_clients=1, rounds=1)
        server.handle(0, Hello(client_name="a", auth_token="secret"))
        bad = sign(LocalUpdate(0, 1, ParameterSet([("zzz", np.zeros(1))]), 1), _session_key(server, 0))
        out = server.handle(0, bad)
        assert out[0][1].code == "manifest_mismatch"

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_update_fails_the_round(self, bad):
        server = _server(n_clients=2, rounds=1)
        server.handle(0, Hello(client_name="a", auth_token="secret"))
        server.handle(1, Hello(client_name="b", auth_token="secret"))
        update = sign(LocalUpdate(1, 1, _params([1.0, bad]), 1), _session_key(server, 1))
        with pytest.raises(ProtocolError) as err:
            server.handle(1, update)
        assert err.value.code == "non_finite_update"
        assert str(err.value).endswith("client 1 sent NaN or inf in 'w' in round 1")

    def test_disconnect_mid_round_aborts_with_round(self):
        server = _server(n_clients=2, rounds=3)
        server.handle(0, Hello(client_name="a", auth_token="secret"))
        server.handle(1, Hello(client_name="b", auth_token="secret"))
        with pytest.raises(ProtocolError) as err:
            server.on_disconnect(1)
        assert "round 1" in str(err.value)


class TestOnRound:
    def test_called_once_per_round_after_aggregation(self):
        reports = []
        server = _provisioned(2, 3, lambda rnd, params, updates: reports.append(
            (rnd, params["w"].tolist(), len(updates), server.global_params is params)) or {})
        assert reports == []
        assert server.report() == []  # round 0: the initial parameters, no RoundComplete
        for rnd in (1, 2, 3):
            _send_update(server, 0, [2.0 * rnd, 0.0], rnd)
            _send_update(server, 1, [4.0 * rnd, 2.0], rnd)
            assert len(reports) == rnd  # aggregated, not yet reported
            server.report()
            assert len(reports) == rnd + 1
        assert server.report() == []
        assert reports == [(0, [0.0, 0.0], 0, True), (1, [3.0, 1.0], 2, True),
                           (2, [6.0, 1.0], 2, True), (3, [9.0, 1.0], 2, True)]

    def test_updates_come_in_client_id_order(self):
        seen = []
        server = _provisioned(3, 1, lambda rnd, params, updates: seen.append(
            [(u.client_id, u.local_metrics["id"]) for u in updates]) or {})
        for cid in (2, 1, 0):
            _send_update(server, cid, [float(cid), 0.0])
        server.report()
        assert seen == [[(0, 0.0), (1, 1.0), (2, 2.0)]]

    def test_round_complete_carries_the_returned_metrics(self):
        server = _provisioned(2, 2, lambda rnd, params, updates: {"val_loss": rnd / 4})
        server.report()
        _send_update(server, 0, [1.0, 1.0])
        out = _send_update(server, 1, [1.0, 1.0])
        assert [(conn, type(m), m.round) for conn, m in out] == [(0, GlobalModel, 2), (1, GlobalModel, 2)]
        done = server.report()  # after the next round's global model went out
        assert [conn for conn, _ in done] == [0, 1]
        assert all(isinstance(m, RoundComplete) for _, m in done)
        assert all(m.round == 1 and m.global_metrics == {"val_loss": 0.25} for _, m in done)
        _send_update(server, 0, [1.0, 1.0], 2)
        assert _send_update(server, 1, [1.0, 1.0], 2) == []
        assert server.phase == "collecting"
        out = server.report()
        assert [(conn, type(m)) for conn, m in out] == [
            (0, RoundComplete), (1, RoundComplete), (0, Shutdown), (1, Shutdown)]
        metrics = [m.global_metrics for _, m in out if isinstance(m, RoundComplete)]
        assert metrics == [{"val_loss": 0.5}] * 2
        assert server.phase == "done"

    def test_a_zero_round_run_reports_round_0_and_shuts_down(self):
        reports = []
        server = _server(n_clients=2, rounds=0, on_round=lambda *args: reports.append(args) or {})
        out = server.handle(0, Hello(client_name="a", auth_token="secret"))
        out += server.handle(1, Hello(client_name="b", auth_token="secret"))
        assert [type(m) for _, m in out] == [Provisioned, Provisioned, Shutdown, Shutdown]
        assert server.report() == []
        assert reports == [(0, server.global_params, [])]
        assert server.report() == []
        assert len(reports) == 1


def _client_fixture(n_records=30):
    corpus = [(i % 2, [f"tok{i % 7}", f"tok{(i + 1) % 7}", f"tok{(i + 2) % 7}"]) for i in range(n_records)]
    vocab = build_vocab((" ".join(t) for _, t in corpus), 32)
    model_cfg = ModelConfig(kind="transformer", d_model=8, n_layers=1,
                            vocab_size=vocab.size, max_seq_len=8, n_heads=2)
    plan = TrainPlan(model_config=model_cfg, mode="classify", vocab=vocab, shards=[corpus],
                     batch_size=8, max_seq_len=8, masking=MaskingConfig(), holdout_frac=0.2,
                     batch_seed=11)
    client = FlClient("c0", "secret", plan)
    init = init_model(model_cfg, seed=2, mode="classify").export_params()
    return client, init


class TestClient:
    def _provision(self, client):
        key = b"\x09" * 8
        client.handle(Provisioned(client_id=0, session_key=key,
                                  round_plan=RoundPlan(rounds=1, local_epochs=1, lr=0.01)))
        return key

    def test_zero_local_epochs_returns_received_globals(self):
        client, init = _client_fixture()
        key = self._provision(client)
        out = client.handle(sign(GlobalModel(round=1, params=init, local_epochs=0, lr=0.01), key))
        assert len(out) == 1
        update = out[0]
        assert isinstance(update, LocalUpdate)
        assert update.params == init

    def test_n_samples_is_shard_train_size_not_batch_multiple(self):
        client, init = _client_fixture(n_records=30)  # holdout 6, train 24, batch 8
        key = self._provision(client)
        out = client.handle(sign(GlobalModel(round=1, params=init,
                                             local_epochs=1, lr=0.01), key))
        assert out[0].n_samples == 24

    def test_identical_clients_produce_bit_identical_updates(self):
        a, init = _client_fixture()
        b, _ = _client_fixture()
        key_a = self._provision(a)
        key_b = self._provision(b)
        ua = a.handle(sign(GlobalModel(round=1, params=init, local_epochs=1, lr=0.01), key_a))[0]
        ub = b.handle(sign(GlobalModel(round=1, params=init, local_epochs=1, lr=0.01), key_b))[0]
        assert ua.params == ub.params
        assert ua.local_metrics == ub.local_metrics

    def test_manifest_mismatch_reported(self):
        client, _ = _client_fixture()
        key = self._provision(client)
        bad = ParameterSet([("bogus", np.zeros(2))])
        out = client.handle(sign(GlobalModel(round=1, params=bad, local_epochs=1, lr=0.01), key))
        assert isinstance(out[0], ErrorMsg)
        assert out[0].code == "manifest_mismatch"

    def test_unsigned_global_model_rejected(self):
        client, init = _client_fixture()
        self._provision(client)
        with pytest.raises(ProtocolError) as err:
            client.handle(GlobalModel(round=1, params=init, local_epochs=1, lr=0.01))
        assert err.value.code == "auth_failed"


class TestLocalTrainer:
    def test_zero_epoch_round_builds_no_optimizer(self, monkeypatch):
        import flnp.protocol.client as client_module

        def no_adam(*args, **kwargs):
            raise AssertionError("a zero-epoch round built an optimizer")

        monkeypatch.setattr(client_module, "Adam", no_adam)
        client, init = _client_fixture()
        trainer = LocalTrainer(client.plan, 0)
        trainer.load(init)
        assert trainer.train_round(1, 0, 0.01) == (0.0, 0.0)
        assert trainer._optimizer is None
        assert trainer.export() == init
