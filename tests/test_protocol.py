import mmap
import os
import struct
import subprocess
import sys
import weakref
import zlib
from collections import deque

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
from flnp.experiment.federated import drive
from flnp.protocol.client import FlClient, LocalTrainer
from flnp.protocol.fedavg import CHUNK_VALUES
from flnp.protocol.server import FlServer
from flnp.rng import Rng
from flnp.tensor import UsageError
from flnp.training import TrainPlan, count_correct
from flnp.transport.codec import decode_message, encode_message, sign

from test_params import bert_set, set_bytes, traced_peak


def _params(values) -> ParameterSet:
    return ParameterSet([("w", np.asarray(values, dtype=np.float64))])


def _update(cid, values, n):
    return LocalUpdate(client_id=cid, round=1, params=_params(values), n_samples=n)


def _reference_aggregate(updates):
    """The per-tensor float64 average: w0 + sum_i share_i * (w_i - w0), tensor by tensor."""
    ordered = sorted(updates, key=lambda u: u.client_id)
    total = float(sum(u.n_samples for u in ordered))
    averages = []
    for name, base in ordered[0].params.items():
        w0 = base.astype(np.float64)
        acc = w0.copy()
        for u in ordered[1:]:
            if u.n_samples:
                acc += (u.params[name].astype(np.float64) - w0) * (u.n_samples / total)
        averages.append((name, acc))
    return ParameterSet(averages)


class TestAggregate:
    def test_flat_average_equals_the_per_tensor_reference_bit_for_bit(self):
        # tensors that straddle chunk boundaries, a scalar and an empty one
        shapes = [("a", (3, CHUNK_VALUES // 2 + 7)), ("s", ()), ("e", (0, 5)),
                  ("b", (CHUNK_VALUES + 3,)), ("c", (4, 5))]
        rng = Rng(2029)
        for trial in range(12):
            k = 1 if trial == 0 else 2 + trial % 4
            counts = [1 + int(rng.integers(400)) for _ in range(k)]
            if k > 1:
                counts[trial % k] = 0  # an update that reports no samples
            updates = [LocalUpdate(cid, 1, ParameterSet(
                (name, rng.normal(0.0, 10.0 ** (cid % 3), shape)) for name, shape in shapes), n)
                for cid, n in zip(rng.permutation(k).tolist(), counts)]
            out = aggregate(updates)
            want = _reference_aggregate(updates)
            assert out.manifest() == want.manifest()
            assert out.flat.tobytes() == want.flat.tobytes()

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

    def test_averaging_two_bert_sized_updates_holds_under_a_quarter_of_a_set(self):
        a, b = bert_set(1), bert_set(2)
        updates = [LocalUpdate(client_id=1, round=1, params=b, n_samples=5),
                   LocalUpdate(client_id=0, round=1, params=a, n_samples=3)]
        averaged, peak = traced_peak(lambda: aggregate(updates))
        assert peak < set_bytes(a) / 4
        name = "enc.3.ffn.w1"
        w0 = a[name].astype(np.float64)
        expected = (w0 + 0.625 * (b[name].astype(np.float64) - w0)).astype(np.float32)
        assert np.array_equal(averaged[name], expected)

    def test_averaging_faults_in_as_few_pages_whether_or_not_a_heap_block_was_freed(self):
        # Freeing a 1 MiB heap block raises glibc's mmap threshold, after which
        # per-tensor float64 temporaries come from reused heap pages; before it
        # each is a fresh map whose every page faults. Scratch arrays made
        # once per call fault alike in both states.
        code = (
            "import resource\n"
            "from flnp.protocol.fedavg import aggregate\n"
            "from flnp.protocol.messages import LocalUpdate\n"
            "from test_params import bert_set\n"
            "updates = [LocalUpdate(client_id=i, round=1, params=bert_set(i), n_samples=3 + i)\n"
            "           for i in range(2)]\n"
            "if FREE:\n"
            "    block = bytearray(1 << 20)\n"
            "    del block\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "aggregate(updates)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(here, "..", "src"), here]))
        faults = {}
        for free in (False, True):
            proc = subprocess.run([sys.executable, "-c", f"FREE = {free}\n" + code], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            faults[free] = int(proc.stdout)
        pages = set_bytes(bert_set(1)) // mmap.PAGESIZE
        assert faults[False] < 1.25 * faults[True] + 64, faults
        assert faults[False] < 2 * pages, (faults, pages)


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


def _report(server):
    """Report the round `handle` completed, if any, on this thread, as `drive` does the last one."""
    due = server.take_report()
    return [] if due is None else server.complete_report(due[0], server.on_round(*due))


def _session_key(server, conn):
    return server._slots[conn].session_key


def _provisioned(n_clients, rounds, on_round):
    server = _server(n_clients=n_clients, rounds=rounds, on_round=on_round)
    for i in range(n_clients):
        server.handle(i, Hello(client_name=f"c{i}", auth_token="secret"))
    return server


def _send_update(server, cid, values, rnd=1, n=1):
    update = LocalUpdate(cid, rnd, _params(values), n, local_metrics={"id": float(cid)})
    return server.handle(cid, sign(update, _session_key(server, cid)))


class TestRoundFlow:
    def test_round_completes_and_aggregates(self):
        reports = []
        server = _provisioned(2, 1, lambda *args: reports.append(args) or {"val_loss": 0.5})
        assert _send_update(server, 0, [2.0, 0.0]) == []
        assert reports == []
        out1 = _send_update(server, 1, [4.0, 2.0]) + _report(server)
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

    def test_a_round_whose_updates_all_report_0_samples_fails_naming_it(self):
        server = _provisioned(2, 2, lambda *args: {})
        _send_update(server, 0, [9.0, 9.0], n=0)
        _send_update(server, 1, [4.0, 2.0], n=3)  # one count above 0 gives the round its weights
        assert server.global_params["w"].tolist() == [4.0, 2.0]
        _report(server)
        _send_update(server, 0, [1.0, 1.0], rnd=2, n=0)
        with pytest.raises(ProtocolError) as err:
            _send_update(server, 1, [1.0, 1.0], rnd=2, n=0)
        assert err.value.code == "no_training_samples"
        assert "round 2" in str(err.value)

    def test_a_signed_error_from_a_provisioned_client_ends_the_run_with_its_code(self):
        server = _provisioned(2, 1, lambda *args: {})
        error = sign(ErrorMsg("anything", "site fault"), _session_key(server, 1))
        with pytest.raises(ProtocolError) as err:
            server.handle(1, error)
        assert err.value.code == "anything"
        assert err.value.detail == "client error in round 1: site fault"

    @pytest.mark.parametrize("who", ["unprovisioned", "bad_tag"])
    def test_an_error_message_the_server_cannot_trust_ends_the_run_with_its_own_code(self, who):
        server = _server(n_clients=2, rounds=1)
        inbound = deque([(0, Hello(client_name="a", auth_token="secret"))])
        if who == "unprovisioned":
            inbound.append((7, ErrorMsg("anything", "unsigned")))
        else:
            inbound.append((0, sign(ErrorMsg("anything", "badly tagged"), b"\x01" * 8)))
        sent = []
        transport = type("Scripted", (), {"recv": lambda self: inbound.popleft(),
                                          "send": lambda self, conn, msg: sent.append((conn, msg))})()
        with pytest.raises(ProtocolError) as err:
            drive(server, transport)
        expected = {"unprovisioned": (7, "not_provisioned", "connection 7"),
                    "bad_tag": (0, "auth_failed", "client 0")}[who]
        assert (sent[-1][0], err.value.code) == expected[:2]
        assert expected[2] in err.value.detail
        assert "anything" not in str(err.value)

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
        assert _report(server) == []  # round 0: the initial parameters, no RoundComplete
        for rnd in (1, 2, 3):
            _send_update(server, 0, [2.0 * rnd, 0.0], rnd)
            _send_update(server, 1, [4.0 * rnd, 2.0], rnd)
            assert len(reports) == rnd  # aggregated, not yet reported
            _report(server)
            assert len(reports) == rnd + 1
        assert _report(server) == []
        assert reports == [(0, [0.0, 0.0], 0, True), (1, [3.0, 1.0], 2, True),
                           (2, [6.0, 1.0], 2, True), (3, [9.0, 1.0], 2, True)]

    def test_updates_come_in_client_id_order(self):
        seen = []
        server = _provisioned(3, 1, lambda rnd, params, client_metrics: seen.append(
            client_metrics) or {})
        for cid in (2, 1, 0):
            _send_update(server, cid, [float(cid), 0.0])
        _report(server)
        assert seen == [[(0, {"id": 0.0}), (1, {"id": 1.0}), (2, {"id": 2.0})]]

    def test_round_complete_carries_the_returned_metrics(self):
        server = _provisioned(2, 2, lambda rnd, params, updates: {"val_loss": rnd / 4})
        _report(server)
        _send_update(server, 0, [1.0, 1.0])
        out = _send_update(server, 1, [1.0, 1.0])
        assert [(conn, type(m), m.round) for conn, m in out] == [(0, GlobalModel, 2), (1, GlobalModel, 2)]
        done = _report(server)  # after the next round's global model went out
        assert [conn for conn, _ in done] == [0, 1]
        assert all(isinstance(m, RoundComplete) for _, m in done)
        assert all(m.round == 1 and m.global_metrics == {"val_loss": 0.25} for _, m in done)
        _send_update(server, 0, [1.0, 1.0], 2)
        assert _send_update(server, 1, [1.0, 1.0], 2) == []
        assert server.phase == "collecting"
        out = _report(server)
        assert [(conn, type(m)) for conn, m in out] == [
            (0, RoundComplete), (1, RoundComplete), (0, Shutdown), (1, Shutdown)]
        metrics = [m.global_metrics for _, m in out if isinstance(m, RoundComplete)]
        assert metrics == [{"val_loss": 0.5}] * 2
        assert server.phase == "done"

    def test_no_update_outlives_the_aggregation_of_its_round(self):
        reports = []
        server = _provisioned(2, 2, lambda rnd, params, client_metrics: reports.append(
            (rnd, client_metrics)) or {})
        _report(server)
        refs = []
        for cid in (1, 0):
            update = sign(LocalUpdate(cid, 1, _params([float(cid), 1.0]), 1,
                                      local_metrics={"id": float(cid)}), _session_key(server, cid))
            refs.append(weakref.ref(update.params))
            out = server.handle(cid, update)
            del update
        assert [(type(m), m.round) for _, m in out] == [(GlobalModel, 2), (GlobalModel, 2)]
        assert [ref() for ref in refs] == [None, None]
        _report(server)
        assert reports[-1] == (1, [(0, {"id": 0.0}), (1, {"id": 1.0})])

    def test_the_previous_global_set_is_dead_when_aggregate_starts(self, monkeypatch):
        import flnp.protocol.server as server_module

        alive_at_start = []

        def checking_aggregate(updates):
            alive_at_start.append(previous() is not None)
            return aggregate(updates)

        monkeypatch.setattr(server_module, "aggregate", checking_aggregate)
        server = _provisioned(2, 2, lambda *args: {})
        _report(server)
        for rnd in (1, 2):
            previous = weakref.ref(server.global_params)
            for cid in (0, 1):
                _send_update(server, cid, [float(cid), 1.0], rnd)
            _report(server)
        assert alive_at_start == [False, False]
        assert server.phase == "done"

    def test_a_zero_round_run_reports_round_0_and_shuts_down(self):
        reports = []
        server = _server(n_clients=2, rounds=0, on_round=lambda *args: reports.append(args) or {})
        out = server.handle(0, Hello(client_name="a", auth_token="secret"))
        out += server.handle(1, Hello(client_name="b", auth_token="secret"))
        assert [type(m) for _, m in out] == [Provisioned, Provisioned, Shutdown, Shutdown]
        assert _report(server) == []
        assert reports == [(0, server.global_params, [])]
        assert _report(server) == []
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

    def test_holds_no_model_after_answering_a_global_model(self):
        client, init = _client_fixture()
        key = self._provision(client)
        first = client.handle(sign(GlobalModel(round=1, params=init, local_epochs=1, lr=0.01), key))
        assert isinstance(first[0], LocalUpdate)
        assert client._trainer.model is None
        second = client.handle(sign(GlobalModel(round=2, params=first[0].params,
                                                local_epochs=1, lr=0.01), key))
        assert isinstance(second[0], LocalUpdate)
        assert client._trainer.model is None

    def test_unsigned_global_model_rejected(self):
        client, init = _client_fixture()
        self._provision(client)
        with pytest.raises(ProtocolError) as err:
            client.handle(GlobalModel(round=1, params=init, local_epochs=1, lr=0.01))
        assert err.value.code == "auth_failed"


def _tampered(frame: bytes) -> bytes:
    """`frame` with a byte in the middle of its payload flipped and its CRC re-fixed; the tag stays."""
    payload = bytearray(frame[11:-4])
    payload[len(payload) // 2] ^= 0x10
    return frame[:11] + bytes(payload) + struct.pack("<I", zlib.crc32(payload))


class TestTamperedFrames:
    """A bert-shaped set whose bytes change after signing fails verification at either end."""

    def test_client_refuses_a_tampered_global_model(self):
        client, _ = _client_fixture()
        key = TestClient()._provision(client)
        ps = bert_set(5)
        frame = encode_message(sign(GlobalModel(round=1, params=ps, local_epochs=0, lr=0.01), key))
        forged = decode_message(_tampered(frame))
        assert forged.params.manifest() == ps.manifest() and forged.params != ps
        with pytest.raises(ProtocolError) as err:
            client.handle(forged)
        assert err.value.code == "auth_failed"
        # the frame as signed passes verification and fails only on the client's manifest
        assert client.handle(decode_message(frame))[0].code == "manifest_mismatch"

    def test_server_refuses_a_tampered_update(self):
        ps = bert_set(5)
        server = FlServer(ps, 1, RoundPlan(rounds=1, local_epochs=0, lr=0.01), "secret",
                          session_rng=Rng(1), on_round=lambda rnd, params, updates: {})
        server.handle(0, Hello(client_name="a", auth_token="secret"))
        frame = encode_message(sign(LocalUpdate(0, 1, ps, 1), _session_key(server, 0)))
        forged = decode_message(_tampered(frame))
        assert forged.params.manifest() == ps.manifest() and forged.params != ps
        assert server.handle(0, forged) == [(0, ErrorMsg("auth_failed", "bad tag from client 0"))]
        assert server.handle(0, decode_message(frame)) == []  # the last round's update, aggregated
        assert server.global_params == ps


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
        assert trainer.export() == init
