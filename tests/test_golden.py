"""Golden runs: pinned final-params checksums and metrics rows.

Each case runs a tiny config end to end and compares the SHA-256 of its
final parameters and its metrics CSV (minus wall_time_ms) with values
recorded from an earlier version of the code. A refactor that leaves
behaviour alone passes this file unchanged; a change that alters float
rounding on purpose must update the values here and say so in CHANGES.md.
"""

import pytest

from flnp.experiment.config import config_from_dict
from flnp.experiment.metrics import emit_metrics
from flnp.experiment.runner import params_checksum, run_experiment, save_params
from flnp.models.base import init_params
from flnp.models.config import preset

from test_experiment import strip_wall_time

TINY_DATA = {"n_records": 60, "min_len": 6, "max_len": 12}

CASES = {
    "bert_mini_mlm_federated_channel": {
        "mode": "federated", "phase": "pretrain_mlm", "model": "bert_mini",
        "transport": "channel",
    },
    "lstm_classify_federated_tcp": {
        "mode": "federated", "phase": "finetune_classify", "model": "lstm",
        "transport": "tcp", "addr": "127.0.0.1:0",
    },
    "bert_mini_classify_centralized": {
        "mode": "centralized", "phase": "finetune_classify", "model": "bert_mini",
    },
    "lstm_classify_standalone": {
        "mode": "standalone", "phase": "finetune_classify", "model": "lstm",
    },
}

# case -> (final-params SHA-256, CSV data rows without wall_time_ms)
GOLDEN = {
    "bert_mini_classify_centralized": (
        "f04ed5afa6f7b01ace9c545e4e1c3b76460f9f3a7e6f82064f79b1116d638583",
        [
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,0,global,validation,0.449935,1",
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,1,global,train,0.877164,0.72093",
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,1,global,validation,0.075228,1",
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,2,global,train,0.648057,0.674419",
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,2,global,validation,0.0664692,1",
        ],
    ),
    "bert_mini_mlm_federated_channel": (
        "d7905bbc82bc03f482a637d4add1891d0228961ca913730f38667b513b12c09e",
        [
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,0,global,validation,4.73272,0",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,client_0,train,4.88781,0",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,client_0,validation,4.44084,0",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,client_1,train,4.51117,0.0555556",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,client_1,validation,4.0979,0",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,global,validation,4.82714,0.166667",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,client_0,train,4.56351,0.0967742",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,client_0,validation,4.28731,0",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,client_1,train,4.08078,0.111111",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,client_1,validation,4.20096,0.333333",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,global,validation,4.81031,0.166667",
        ],
    ),
    "lstm_classify_federated_tcp": (
        "d767c5708c53d1e2385e06bdf9a8ee1d02e8149e20be5e46d27c70e128f0f880",
        [
            "finetune_classify-federated-lstm-i7,federated,lstm,0,global,validation,0.693176,0.166667",
            "finetune_classify-federated-lstm-i7,federated,lstm,1,client_0,train,0.58403,0.727273",
            "finetune_classify-federated-lstm-i7,federated,lstm,1,client_0,validation,0.00565729,1",
            "finetune_classify-federated-lstm-i7,federated,lstm,1,client_1,train,0.608494,0.636364",
            "finetune_classify-federated-lstm-i7,federated,lstm,1,client_1,validation,1.29285,0.8",
            "finetune_classify-federated-lstm-i7,federated,lstm,1,global,validation,0.0837682,1",
            "finetune_classify-federated-lstm-i7,federated,lstm,2,client_0,train,0.758892,0.863636",
            "finetune_classify-federated-lstm-i7,federated,lstm,2,client_0,validation,0.611694,1",
            "finetune_classify-federated-lstm-i7,federated,lstm,2,client_1,train,0.538051,0.863636",
            "finetune_classify-federated-lstm-i7,federated,lstm,2,client_1,validation,0.610885,0.8",
            "finetune_classify-federated-lstm-i7,federated,lstm,2,global,validation,0.594483,1",
        ],
    ),
    "lstm_classify_standalone": (
        "5a1904eca072e19ee313ee6109f8936a25dc6e8ff058074f7979ad56d07fa4e6",
        [
            "finetune_classify-standalone-lstm-i7,standalone,lstm,0,client_0,validation,0.693176,0.166667",
            "finetune_classify-standalone-lstm-i7,standalone,lstm,0,client_1,validation,0.693176,0.166667",
            "finetune_classify-standalone-lstm-i7,standalone,lstm,1,client_0,train,0.58403,0.727273",
            "finetune_classify-standalone-lstm-i7,standalone,lstm,1,client_0,validation,0.00584392,1",
            "finetune_classify-standalone-lstm-i7,standalone,lstm,1,client_1,train,0.608494,0.636364",
            "finetune_classify-standalone-lstm-i7,standalone,lstm,1,client_1,validation,0.0031236,1",
            "finetune_classify-standalone-lstm-i7,standalone,lstm,2,client_0,train,0.978643,0.863636",
            "finetune_classify-standalone-lstm-i7,standalone,lstm,2,client_0,validation,0.506593,1",
            "finetune_classify-standalone-lstm-i7,standalone,lstm,2,client_1,train,0.618977,0.863636",
            "finetune_classify-standalone-lstm-i7,standalone,lstm,2,client_1,validation,0.373298,1",
        ],
    ),
}


def tiny_config(fields: dict, **overrides):
    return config_from_dict({
        "rounds": 2,
        "local_epochs": 1,
        "batch_size": 8,
        "max_seq_len": 16,
        "partition": {"n_clients": 2, "mode": "balanced"},
        "data": TINY_DATA,
        "seeds": {"corpus": 3, "partition": 5, "init": 7, "batch": 11},
        **fields,
        **overrides,
    })


def csv_rows(result, tmp_path) -> list[str]:
    csv_path = tmp_path / f"{result.run_id}.csv"
    emit_metrics(result.records, str(csv_path))
    return [",".join(row) for row in strip_wall_time(str(csv_path))[1:]]


def run_case(case: str, tmp_path, **overrides):
    result = run_experiment(tiny_config(CASES[case], **overrides))[0]
    return params_checksum(result.final_params), csv_rows(result, tmp_path)


def phase_goldens(results, tmp_path):
    """Per phase: ({scope: final-params SHA-256}, CSV rows)."""
    return [
        ({scope: params_checksum(ps) for scope, ps in sorted(r.finals.items())},
         csv_rows(r, tmp_path))
        for r in results
    ]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_run(case, tmp_path):
    checksum, rows = run_case(case, tmp_path)
    expected_checksum, expected_rows = GOLDEN[case]
    assert rows == expected_rows
    assert checksum == expected_checksum


def test_tcp_run_equals_channel_run(tmp_path):
    checksum, rows = run_case("lstm_classify_federated_tcp", tmp_path, transport="channel")
    expected_checksum, expected_rows = GOLDEN["lstm_classify_federated_tcp"]
    assert checksum == expected_checksum
    assert rows == expected_rows


def test_deliveries_agree_at_threaded_gemm_sizes(monkeypatch):
    """At GEMM sizes OpenBLAS splits over its threads, a channel run with one
    worker, one with two workers and a TCP run with client threads give one
    checksum under one budget of 2 BLAS threads per client."""
    from flnp.experiment import runner

    fields = {
        "mode": "federated", "phase": "pretrain_mlm", "model": "bert_mini", "rounds": 1,
        "batch_size": 32, "max_seq_len": 64,
        "data": {"n_records": 80, "min_len": 48, "max_len": 64},
    }
    checksums = set()
    for transport, workers in (("channel", 1), ("channel", 2), ("tcp", 2)):
        monkeypatch.setattr(runner, "session_budget", lambda n, w=workers: (w, 2))
        cfg = tiny_config(fields, transport=transport, addr="127.0.0.1:0")
        checksums.add(params_checksum(run_experiment(cfg)[0].final_params))
    assert len(checksums) == 1


# Chained pretrain -> fine-tune runs, with every phase pinned: the fine-tune
# phase starts from the pretrained encoder (one set per standalone client).
PHASE_CASES = {
    "bert_mini_two_phase_standalone": {
        "mode": "standalone", "phase": "pretrain_then_finetune", "model": "bert_mini",
    },
    "bert_mini_two_phase_federated_channel": {
        "mode": "federated", "phase": "pretrain_then_finetune", "model": "bert_mini",
        "transport": "channel",
    },
}

# Fine-tuning from a pretraining artifact on disk, once per mode.
ARTIFACT_CASE = {"phase": "finetune_classify", "model": "bert_mini"}
ARTIFACT_MODES = ("centralized", "standalone", "federated")

# case -> per phase: ({scope: final-params SHA-256}, CSV rows without wall_time_ms)
PHASE_GOLDEN = {
    "bert_mini_two_phase_federated_channel": [
        (
            {
                "global": "d7905bbc82bc03f482a637d4add1891d0228961ca913730f38667b513b12c09e",
            },
            [
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,0,global,validation,4.73272,0",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,client_0,train,4.88781,0",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,client_0,validation,4.44084,0",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,client_1,train,4.51117,0.0555556",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,client_1,validation,4.0979,0",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,global,validation,4.82714,0.166667",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,client_0,train,4.56351,0.0967742",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,client_0,validation,4.28731,0",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,client_1,train,4.08078,0.111111",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,client_1,validation,4.20096,0.333333",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,global,validation,4.81031,0.166667",
            ],
        ),
        (
            {
                "global": "8db883ec3c0c3bc67d168e3e729f73810737980fed029e50e17cc9053110f704",
            },
            [
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,0,global,validation,1.63458,0",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_0,train,0.384276,0.772727",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_0,validation,0.00274677,1",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_1,train,0.779933,0.590909",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_1,validation,0.664922,0.8",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,global,validation,0.00973447,1",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_0,train,0.582594,0.863636",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_0,validation,0.0720764,1",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_1,train,0.492722,0.863636",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_1,validation,1.70614,0.2",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,global,validation,0.0991543,1",
            ],
        ),
    ],
    "bert_mini_two_phase_standalone": [
        (
            {
                "client_0": "d988db358c9c5d761fb3c970b1b0f1a522c41be00b2634574ee6d1dcef643dcb",
                "client_1": "6dc54c22b18dd0d94c4ad849c71697ad1123a5376728e84a2387a7a80afd4ad5",
            },
            [
                "pretrain_mlm-standalone-bert_mini-i7,standalone,bert_mini,0,client_0,validation,4.73272,0",
                "pretrain_mlm-standalone-bert_mini-i7,standalone,bert_mini,0,client_1,validation,4.73272,0",
                "pretrain_mlm-standalone-bert_mini-i7,standalone,bert_mini,1,client_0,train,4.88781,0",
                "pretrain_mlm-standalone-bert_mini-i7,standalone,bert_mini,1,client_0,validation,4.82364,0.166667",
                "pretrain_mlm-standalone-bert_mini-i7,standalone,bert_mini,1,client_1,train,4.51117,0.0555556",
                "pretrain_mlm-standalone-bert_mini-i7,standalone,bert_mini,1,client_1,validation,4.88543,0",
                "pretrain_mlm-standalone-bert_mini-i7,standalone,bert_mini,2,client_0,train,4.40623,0.0967742",
                "pretrain_mlm-standalone-bert_mini-i7,standalone,bert_mini,2,client_0,validation,5.0329,0",
                "pretrain_mlm-standalone-bert_mini-i7,standalone,bert_mini,2,client_1,train,4.37858,0.037037",
                "pretrain_mlm-standalone-bert_mini-i7,standalone,bert_mini,2,client_1,validation,4.79302,0.166667",
            ],
        ),
        (
            {
                "client_0": "25994f8b342c28f4d188578021423ad18c4ef80aa4eab33f32a94bb91d8467b9",
                "client_1": "78890a2d71b83fd7dcdbbfecf87b6760f2eaf6fc1eda803dc9d833c4b24dc3f1",
            },
            [
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,0,client_0,validation,1.62203,0",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,0,client_1,validation,1.62722,0",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_0,train,1.41912,0.5",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_0,validation,0.00959166,1",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_1,train,0.816808,0.590909",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_1,validation,0.0390591,1",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_0,train,0.592828,0.863636",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_0,validation,0.10309,1",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_1,train,0.997107,0.409091",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_1,validation,0.972942,0",
            ],
        ),
    ],
}

ARTIFACT_GOLDEN = {
    "centralized": [
        (
            {
                "global": "27489bf969e3f80855faad4f0d8752c2f37b26de55e83231a63251711fd1fb2e",
            },
            [
                "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,0,global,validation,1.63458,0",
                "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,1,global,train,0.528791,0.767442",
                "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,1,global,validation,0.0267708,1",
                "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,2,global,train,0.485323,0.860465",
                "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,2,global,validation,0.130925,1",
            ],
        ),
    ],
    "standalone": [
        (
            {
                "client_0": "12fd459a8cebd63e97ff27714a368c8ed8a0d059173e572d1e470f39f199c851",
                "client_1": "84c48170d74a514394973c1d5aefe3c51342f0424d60c22a1690e0b69b774b81",
            },
            [
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,0,client_0,validation,1.63458,0",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,0,client_1,validation,1.63458,0",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_0,train,0.384276,0.772727",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_0,validation,0.00274666,1",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_1,train,0.779933,0.590909",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_1,validation,0.0438261,1",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_0,train,0.659626,0.863636",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_0,validation,0.061128,1",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_1,train,0.605708,0.590909",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_1,validation,0.0827236,1",
            ],
        ),
    ],
    "federated": [
        (
            {
                "global": "8db883ec3c0c3bc67d168e3e729f73810737980fed029e50e17cc9053110f704",
            },
            [
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,0,global,validation,1.63458,0",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_0,train,0.384276,0.772727",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_0,validation,0.00274677,1",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_1,train,0.779933,0.590909",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_1,validation,0.664922,0.8",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,global,validation,0.00973447,1",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_0,train,0.582594,0.863636",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_0,validation,0.0720764,1",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_1,train,0.492722,0.863636",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_1,validation,1.70614,0.2",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,global,validation,0.0991543,1",
            ],
        ),
    ],
}


@pytest.mark.parametrize("case", sorted(PHASE_CASES))
def test_golden_two_phase_run(case, tmp_path):
    results = run_experiment(tiny_config(PHASE_CASES[case]))
    assert phase_goldens(results, tmp_path) == PHASE_GOLDEN[case]


@pytest.mark.parametrize("mode", ARTIFACT_MODES)
def test_golden_finetune_from_artifact(mode, tmp_path):
    pretrained = run_experiment(tiny_config(CASES["bert_mini_mlm_federated_channel"]))[0]
    artifact = tmp_path / "pretrained.flnp"
    save_params(pretrained.final_params, str(artifact))
    results = run_experiment(tiny_config(ARTIFACT_CASE, mode=mode, pretrained_params_path=str(artifact)))
    assert phase_goldens(results, tmp_path) == ARTIFACT_GOLDEN[mode]



# (preset, mode) -> SHA-256 of init_params(preset(name, 40, 16), 3, mode),
# recorded like the run goldens: initial weights come from Rng array draws.
INIT_GOLDEN = {
    ("bert", "mlm"): "8da33beb251f485058d451c4b41c3bd093f92a7b3456d0fa265ee719c9461d5f",
    ("bert_mini", "mlm"): "7d6f159510fa89132fa1b298a13cbf608e33d5352fb8a2a6e1a0d7801df72ccf",
    ("lstm", "classify"): "6bf2b927c6b23198bf67c92dd5513260b4980f4c3b81b928fd874bdad507f641",
}


@pytest.mark.parametrize("name, mode", sorted(INIT_GOLDEN))
def test_golden_init_params(name, mode):
    checksum = params_checksum(init_params(preset(name, 40, 16), 3, mode))
    assert checksum == INIT_GOLDEN[name, mode]
