import json
import os
import re
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest

from flnp.cli import cli_main


def base_config(tmp_path, **kw):
    data = {
        "mode": "centralized",
        "phase": "finetune_classify",
        "model": "bert_mini",
        "rounds": 1,
        "local_epochs": 1,
        "batch_size": 16,
        "max_seq_len": 16,
        "partition": {"n_clients": 2, "mode": "balanced"},
        "data": {"n_records": 60, "min_len": 8, "max_len": 12},
        "out_dir": str(tmp_path / "out"),
    }
    data.update(kw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_gen_data_writes_corpus(tmp_path, capsys):
    out = tmp_path / "corpus.txt"
    code = cli_main(["gen-data", "--out", str(out), "--n", "50", "--seed", "9"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 50
    assert all(re.match(r"^[01]\t\S", line) for line in lines)


def test_run_prints_checksum_and_is_repeatable(tmp_path, capsys):
    cfg = base_config(tmp_path)
    assert cli_main(["run", "--config", cfg, "--set", "seeds.init=7"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["run", "--config", cfg, "--set", "seeds.init=7", "--force"]) == 0
    second = capsys.readouterr().out
    sums1 = re.findall(r"sha256 (\w+)", first)
    sums2 = re.findall(r"sha256 (\w+)", second)
    assert sums1 and sums1 == sums2


def test_run_without_force_skips_existing(tmp_path, capsys):
    cfg = base_config(tmp_path)
    assert cli_main(["run", "--config", cfg]) == 0
    capsys.readouterr()
    assert cli_main(["run", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "already present" in out


def test_two_phase_run_with_fixed_run_id_keeps_both_phases(tmp_path, capsys):
    cfg = base_config(tmp_path, phase="pretrain_then_finetune", pretrain_rounds=1,
                      run_id="fixed", data={"n_records": 40, "min_len": 6, "max_len": 10})
    assert cli_main(["run", "--config", cfg]) == 0
    assert len(set(re.findall(r"sha256 (\w+)", capsys.readouterr().out))) == 2
    out = tmp_path / "out"
    for phase in ("pretrain_mlm", "finetune_classify"):
        assert (out / f"fixed-{phase}.csv").exists()
        assert (out / f"fixed-{phase}-params.flnp").exists()
    assert not (out / "fixed.csv").exists()
    assert cli_main(["run", "--config", cfg]) == 0
    assert "already present" in capsys.readouterr().out


def test_nan_update_fails_the_run_with_exit_1(tmp_path, capsys, monkeypatch):
    from flnp.params import ParameterSet
    from flnp.protocol.client import LocalTrainer

    honest = LocalTrainer.export

    def export(self):
        params = honest(self)
        if self.trainer_id != 1:
            return params
        return ParameterSet((name, np.full_like(arr, np.nan) if name == "cls.b" else arr)
                            for name, arr in params.items())

    monkeypatch.setattr(LocalTrainer, "export", export)
    cfg = base_config(tmp_path, mode="federated", model="lstm", rounds=2)
    assert cli_main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "non_finite_update" in err and "client 1" in err, err
    assert "'cls.b'" in err and "round 1" in err, err


@pytest.mark.parametrize("transport", ["channel", "tcp"])
def test_wrong_key_fails_alike_over_channel_and_tcp(tmp_path, capfd, monkeypatch, transport):
    import flnp.protocol.client
    from flnp.protocol.messages import LocalUpdate

    honest = flnp.protocol.client.sign

    def sign(msg, key):
        if isinstance(msg, LocalUpdate) and msg.client_id == 1:
            key = bytes(len(key))
        return honest(msg, key)

    monkeypatch.setattr(flnp.protocol.client, "sign", sign)
    # the interpreter's own hook, so an uncaught client-thread fault would print to stderr
    monkeypatch.setattr(threading, "excepthook", threading.__excepthook__)
    cfg = base_config(tmp_path, mode="federated", model="lstm", rounds=2,
                      transport=transport, addr="127.0.0.1:0")
    assert cli_main(["run", "--config", cfg]) == 1
    err = capfd.readouterr().err
    assert err == "runtime error: auth_failed: bad tag from client 1\n", err
    assert not [t for t in threading.enumerate() if t.name.startswith("flnp-client")]
    assert not list((tmp_path / "out").glob("*.csv"))


def test_no_training_record_is_refused_before_training(tmp_path, capsys, monkeypatch):
    from flnp.protocol.client import LocalTrainer

    def train_round(*args):
        raise AssertionError("a client trained")

    monkeypatch.setattr(LocalTrainer, "train_round", train_round)
    cfg = base_config(tmp_path, mode="federated", model="lstm", holdout_frac=0.9,
                      partition={"n_clients": 8, "mode": "balanced"},
                      data={"n_records": 20, "min_len": 6, "max_len": 10})
    assert cli_main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "holdout_frac 0.9" in err and "shard sizes [" in err, err
    assert not list((tmp_path / "out").glob("*.csv"))


def test_malformed_json_exits_2_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": }')
    code = cli_main(["run", "--config", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_unknown_flag_exits_2(tmp_path, capsys):
    assert cli_main(["run", "--config", "x.json", "--bogus"]) == 2


def test_config_error_exits_2(tmp_path, capsys):
    cfg = base_config(tmp_path, model="lstm", phase="pretrain_mlm")
    assert cli_main(["run", "--config", cfg]) == 2


@pytest.mark.parametrize("setting", [
    "weighted_aggregation=false", "reset_optimizer=false", "finetune_from_pretrained=false",
    "masking.keep_frac=0.1", "masking.ignore_value=-100",
])
def test_removed_setting_is_refused(tmp_path, capsys, setting):
    assert cli_main(["run", "--config", base_config(tmp_path), "--set", setting]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("setting, error", [
    ("rounds=abc", 'ExperimentConfig.rounds must be an integer, got "abc"'),
    ('lr="fast"', 'ExperimentConfig.lr must be a number, got "fast"'),
    ("rounds=true", "ExperimentConfig.rounds must be an integer, got true"),
    ("partition.ratios=0.5,0.5", 'PartitionSpec.ratios must be a list of numbers, got "0.5,0.5"'),
])
def test_wrongly_typed_setting_is_refused(tmp_path, capsys, setting, error):
    assert cli_main(["run", "--config", base_config(tmp_path), "--set", setting]) == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    "lr=0", "lr=-1", "lr=NaN", "lr=Infinity",
    "holdout_frac=-0.5", "holdout_frac=1.0", "holdout_frac=1.5", "holdout_frac=NaN",
])
def test_out_of_range_setting_is_refused_before_training(tmp_path, capsys, setting):
    cfg = base_config(tmp_path, mode="federated", model="lstm")
    assert cli_main(["run", "--config", cfg, "--set", setting]) == 2
    err = capsys.readouterr().err
    field = setting.split("=")[0]
    assert re.search(rf"^error: {field} must ", err, re.M), err
    assert "Traceback" not in err
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("section, cls", [
    ("partition", "PartitionSpec"), ("seeds", "Seeds"), ("data", "DataConfig"),
    ("masking", "MaskingConfig"),
])
def test_null_config_section_is_refused(tmp_path, capsys, section, cls):
    assert cli_main(["run", "--config", base_config(tmp_path), "--set", f"{section}=null"]) == 2
    assert f"error: expected an object for {cls}" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("addr", ["127.0.0.1:abc", "127.0.0.1:", "127.0.0.1:99999",
                                  "127.0.0.1:-1", ":7878", "localhost"])
def test_malformed_addr_is_refused_before_data_is_built(tmp_path, capsys, monkeypatch, addr):
    def build_dataset(cfg):
        raise AssertionError("data built for a config with a malformed addr")

    monkeypatch.setattr("flnp.experiment.runner.build_dataset", build_dataset)
    cfg = base_config(tmp_path, mode="federated", model="lstm")
    assert cli_main(["run", "--config", cfg, "--transport", "tcp", "--addr", addr]) == 2
    err = capsys.readouterr().err
    assert f"error: addr must be host:port with a port in [0, 65535], got '{addr}'" in err
    assert "Traceback" not in err
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("snapshot, error", [(None, "not found"), (b"garbage", "is corrupt: ")])
def test_unreadable_pretraining_snapshot_is_refused_before_data_is_built(tmp_path, capsys,
                                                                          monkeypatch, snapshot, error):
    def build_dataset(cfg):
        raise AssertionError("data built before the pretraining snapshot was read")

    monkeypatch.setattr("flnp.experiment.runner.build_dataset", build_dataset)
    path = tmp_path / "pretrained.flnp"
    if snapshot is not None:
        path.write_bytes(snapshot)
    cfg = base_config(tmp_path, mode="federated", pretrained_params_path=str(path))
    assert cli_main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: pretraining snapshot '{path}' {error}"), err
    assert "Traceback" not in err
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("partition, error", [
    ({"n_clients": 4, "mode": "imbalanced"}, "8 ratios for 4 clients"),
    ({"n_clients": 4, "mode": "small"}, "8 ratios for 4 clients"),
    ({"n_clients": 8, "mode": "imbalanced", "ratios": None}, "0 ratios for 8 clients"),
])
def test_uneven_partition_without_ratios_is_refused(tmp_path, capsys, partition, error):
    assert cli_main(["run", "--config", base_config(tmp_path, partition=partition)]) == 2
    assert error in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli_main(["run", "--config", str(tmp_path / "none.json")]) == 2


def test_seed_override_changes_checksum(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cli_main(["run", "--config", cfg, "--set", "seeds.init=7"])
    a = re.findall(r"sha256 (\w+)", capsys.readouterr().out)
    cli_main(["run", "--config", cfg, "--set", "seeds.init=8", "--force"])
    b = re.findall(r"sha256 (\w+)", capsys.readouterr().out)
    assert a != b


def test_compare_grid_shape(tmp_path, capsys):
    cfg = base_config(
        tmp_path,
        mode="federated",
        rounds=1,
        data={"n_records": 60, "min_len": 6, "max_len": 10},
        max_seq_len=12,
        batch_size=32,
    )
    code = cli_main(["compare", "--config", cfg])
    assert code == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    header = lines[-4]
    assert "bert" in header and "bert_mini" in header and "lstm" in header
    body = lines[-3:]
    assert [line.split()[0] for line in body] == ["centralized", "standalone", "federated"]
    for line in body:
        assert len(line.split()) == 4  # mode + 3 accuracies


def test_module_entry_point(tmp_path):
    out = tmp_path / "c.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-m", "flnp", "gen-data", "--out", str(out), "--n", "10"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert out.exists()


def serve(cfg, n_clients, unset_for_clients=()):
    """Run `flnp serve` and `n_clients` `flnp client` processes on `cfg`; the server's checksums.

    The clients start without the environment variables named in `unset_for_clients`.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))

    def flnp(*args, env=env):
        return subprocess.Popen([sys.executable, "-m", "flnp", *args, "--config", cfg],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)

    procs = [flnp("serve")]
    try:
        # the server prints its address once it accepts connections
        line = procs[0].stdout.readline()
        addr = re.search(r"on (127\.0\.0\.1:\d+)$", line.strip())
        assert addr, line + procs[0].stderr.read()
        procs += [flnp("client", "--addr", addr.group(1), "--name", f"site-{i}",
                       env={k: v for k, v in env.items() if k not in unset_for_clients})
                  for i in range(n_clients)]
        outs = [p.communicate(timeout=300) for p in procs]
    finally:
        for p in procs:
            p.kill()
    assert [p.returncode for p in procs] == [0] * (n_clients + 1), [err for _, err in outs]
    return re.findall(r"sha256 (\w+)", outs[0][0])


def test_serve_with_two_client_processes_matches_channel_run(tmp_path, capsys):
    # single-phase LSTM over loopback TCP; a two-phase run over TCP is not
    # supported by the remote client yet
    fields = dict(
        mode="federated", phase="finetune_classify", model="lstm", rounds=2,
        max_seq_len=12, batch_size=8, addr="127.0.0.1:0",
        data={"n_records": 40, "min_len": 6, "max_len": 10},
    )
    cfg = base_config(tmp_path, **fields)
    served = serve(cfg, 2)
    assert len(list((tmp_path / "out").glob("*-params.flnp"))) == 1

    assert cli_main(["run", "--config", cfg, "--transport", "channel", "--out", str(tmp_path / "ch")]) == 0
    assert served and served == re.findall(r"sha256 (\w+)", capsys.readouterr().out)


def test_served_clients_compute_under_the_session_budget(tmp_path, capsys):
    # at these GEMM sizes OpenBLAS splits over its threads, so a client left
    # at its default thread count would not reproduce the in-process run
    cfg = base_config(
        tmp_path, mode="federated", phase="pretrain_mlm", rounds=1, batch_size=32,
        max_seq_len=64, addr="127.0.0.1:0",
        data={"n_records": 80, "min_len": 48, "max_len": 64},
    )
    served = serve(cfg, 2, unset_for_clients=("OPENBLAS_NUM_THREADS",))

    assert cli_main(["run", "--config", cfg, "--transport", "channel", "--out", str(tmp_path / "ch")]) == 0
    assert served and served == re.findall(r"sha256 (\w+)", capsys.readouterr().out)


def test_serve_refuses_two_phase_config_before_listening(tmp_path, capsys, monkeypatch):
    import flnp.transport.tcp

    def listen(*args, **kwargs):
        raise AssertionError("serve opened a listener")

    monkeypatch.setattr(flnp.transport.tcp.TcpServer, "__init__", listen)
    cfg = base_config(tmp_path, mode="federated", phase="pretrain_then_finetune",
                      addr="127.0.0.1:0")
    assert cli_main(["serve", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "'pretrain_then_finetune'" in captured.err, captured.err
    assert "waiting for" not in captured.out


def test_two_phase_tcp_run_matches_channel_run(tmp_path, capsys, monkeypatch):
    # `run --transport tcp` trains its clients as threads, one phase at a time, and spawns no process
    def popen(*args, **kwargs):
        raise AssertionError("run spawned a process")

    monkeypatch.setattr(subprocess, "Popen", popen)
    cfg = base_config(
        tmp_path, mode="federated", phase="pretrain_then_finetune", rounds=1,
        pretrain_rounds=1, max_seq_len=12, addr="127.0.0.1:0",
        data={"n_records": 40, "min_len": 6, "max_len": 10},
    )
    assert cli_main(["run", "--config", cfg, "--transport", "tcp"]) == 0
    over_tcp = re.findall(r"sha256 (\w+)", capsys.readouterr().out)
    assert not list((tmp_path / "out").glob("*-config.json"))

    assert cli_main(["run", "--config", cfg, "--transport", "channel", "--out", str(tmp_path / "ch")]) == 0
    over_channel = re.findall(r"sha256 (\w+)", capsys.readouterr().out)
    assert len(over_tcp) == 2 and over_tcp == over_channel


def test_a_corrupt_or_truncated_pretraining_snapshot_exits_2_naming_it(tmp_path, capsys):
    from flnp.experiment.runner import save_params
    from flnp.models.base import init_params
    from flnp.models.config import preset

    snapshot = tmp_path / "pretrained.flnp"
    save_params(init_params(preset("bert_mini", 64, 16), 3, "mlm"), str(snapshot))
    garbage, truncated = tmp_path / "garbage.flnp", tmp_path / "truncated.flnp"
    garbage.write_bytes(b"garbage")
    truncated.write_bytes(snapshot.read_bytes()[:-100])
    for path in (garbage, truncated):
        cfg = base_config(tmp_path, pretrained_params_path=str(path))
        assert cli_main(["run", "--config", cfg, "--force"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: pretraining snapshot '{path}' is corrupt: "), err
        assert "Traceback" not in err


def _fake_server(reply: bytes):
    """A server on a free port that answers the first bytes it receives with `reply`,
    then reads until its peer closes; returns the port and the serving thread."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn:
            conn.recv(1 << 16)
            conn.sendall(reply)
            while conn.recv(1 << 16):
                pass
        listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname()[1], thread


MALFORMED_REPLY = b"XXXX" + bytes(20)


def test_a_malformed_frame_from_the_server_ends_flnp_client_with_one_runtime_error(tmp_path, capfd):
    port, server = _fake_server(MALFORMED_REPLY)
    cfg = base_config(tmp_path, mode="federated")
    assert cli_main(["client", "--config", cfg, "--addr", f"127.0.0.1:{port}", "--name", "site-0"]) == 1
    server.join(timeout=30)
    assert not server.is_alive()
    err = capfd.readouterr().err
    assert err.startswith("runtime error: bad_magic: ") and err.count("\n") == 1, err


def test_a_malformed_frame_from_the_server_ends_a_run_client_thread_quietly(tmp_path):
    from flnp.experiment.config import load_config
    from flnp.experiment.federated import tcp_client_loop
    from flnp.experiment.runner import _client_thread, build_dataset, train_plan
    from flnp.protocol.client import FlClient
    from flnp.protocol import ProtocolError
    from flnp.transport.tcp import connect

    cfg = load_config(base_config(tmp_path, mode="federated"), [])
    plan = train_plan(cfg, build_dataset(cfg))
    port, server = _fake_server(MALFORMED_REPLY)
    with pytest.raises(ProtocolError) as err:
        tcp_client_loop(FlClient("site-0", cfg.auth_token, plan), connect("127.0.0.1", port))
    server.join(timeout=30)
    assert not server.is_alive()
    assert err.value.code == "bad_magic"
    port, server = _fake_server(MALFORMED_REPLY)
    _client_thread(FlClient("site-0", cfg.auth_token, plan), connect("127.0.0.1", port),
                   threading.Semaphore(1))
    server.join(timeout=30)
    assert not server.is_alive()
