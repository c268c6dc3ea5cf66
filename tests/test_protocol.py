import numpy as np
import pytest

from flnp.data import MaskingConfig, build_vocab
from flnp.models import ModelConfig, init_model
from flnp.params import ParameterSet
from flnp.protocol import (
    ClientUpdate,
    ErrorMsg,
    GlobalModel,
    Hello,
    LocalUpdate,
    ProtocolError,
    Provisioned,
    Shutdown,
    aggregate,
)
from flnp.protocol.client import ClientTrainConfig, FlClient
from flnp.protocol.server import FlServer, ServerConfig
from flnp.rng import Rng
from flnp.tensor import UsageError
from flnp.training import TrainSettings, count_correct
from flnp.transport.codec import sign


def _params(values) -> ParameterSet:
    return ParameterSet([("w", np.asarray(values, dtype=np.float64))])


def _update(cid, values, n, rnd=1):
    return ClientUpdate(client_id=cid, round=rnd, params=_params(values), n_samples=n)


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
                updates.append(ClientUpdate(cid, 1, ParameterSet([("a", vals)]), n))
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

    def test_unweighted_flag(self):
        out = aggregate([_update(0, [0.0], 1), _update(1, [3.0], 999)], weighted=False)
        assert out["w"].tolist() == [1.5]

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            aggregate([])

    def test_manifest_mismatch_rejected(self):
        a = _update(0, [1.0], 1)
        b = ClientUpdate(1, 1, ParameterSet([("asdf", np.zeros(1))]), 1)
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


def _server(n_clients=2, rounds=1, token="secret", validate=None):
    init = _params([0.0, 0.0])
    cfg = ServerConfig(n_clients=n_clients, rounds=rounds, local_epochs=1,
                       lr=0.01, auth_token=token)
    return FlServer(init, cfg, session_rng=Rng(1), validate_fn=validate)


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
        server = _server(n_clients=1, rounds=0)
        out = server.handle(0, Hello(client_name="only", auth_token="secret"))
        kinds = [type(m).__name__ for _, m in out]
        assert kinds == ["Provisioned", "Shutdown"]
        assert server.phase == "done"
        assert server.history == []


def _session_key(server, conn):
    return server._slots[conn].session_key


class TestRoundFlow:
    def test_round_completes_and_aggregates(self):
        seen = []
        server = _server(n_clients=2, rounds=1, validate=lambda ps: seen.append(1) or {"val_loss": 0.5})
        server.handle(0, Hello(client_name="a", auth_token="secret"))
        server.handle(1, Hello(client_name="b", auth_token="secret"))
        out0 = server.handle(0, sign(LocalUpdate(0, 1, _params([2.0, 0.0]), 1), _session_key(server, 0)))
        assert out0 == []
        out1 = server.handle(1, sign(LocalUpdate(1, 1, _params([4.0, 2.0]), 1), _session_key(server, 1)))
        assert server.phase == "done"
        assert server.global_params["w"].tolist() == [3.0, 1.0]
        assert len(server.history) == 1
        assert seen == [1]
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


def _client_fixture(n_records=30, local_epochs=1):
    corpus = [(i % 2, [f"tok{i % 7}", f"tok{(i + 1) % 7}", f"tok{(i + 2) % 7}"]) for i in range(n_records)]
    vocab = build_vocab((" ".join(t) for _, t in corpus), 32)
    model_cfg = ModelConfig(kind="transformer", d_model=8, n_layers=1,
                            vocab_size=vocab.size, max_seq_len=8, n_heads=2)
    settings = TrainSettings(phase="classify", batch_size=8, max_seq_len=8,
                             local_epochs=local_epochs, lr=0.01, masking=MaskingConfig())
    cfg = ClientTrainConfig(
        model_config=model_cfg, vocab=vocab, settings=settings,
        batch_seed=11, shard_provider=lambda cid: corpus,
    )
    client = FlClient("c0", "secret", cfg)
    init = init_model(model_cfg, seed=2, mode="classify").export_params()
    return client, init


class TestClient:
    def _provision(self, client):
        from flnp.protocol.messages import RoundPlan

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
