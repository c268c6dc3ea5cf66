"""Golden runs: pinned final-params checksums and metrics rows.

Each case runs a tiny config end to end and compares the SHA-256 of its
final parameters and its metrics CSV (minus wall_time_ms) with values
recorded from an earlier version of the code. A refactor that leaves
behaviour alone passes this file unchanged; a change that alters float
rounding on purpose must update the values here and say so in CHANGES.md.
"""

import pytest

from flnp.experiment.config import config_from_dict
from flnp.experiment.metrics import emit_metrics, strip_wall_time
from flnp.experiment.runner import params_checksum, run_experiment, save_params

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
        "4577fbbca38dacffe230152b91abe9576861437ba873f9bc6dc7cbeadd444769",
        [
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,0,global,validation,0.449935,1",
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,1,global,train,0.877164,0.72093",
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,1,global,validation,0.0752289,1",
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,2,global,train,0.648054,0.674419",
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,2,global,validation,0.0664689,1",
        ],
    ),
    "bert_mini_mlm_federated_channel": (
        "4d5ca8fdff26255db2285a7ac77e0dcfa2ea9680f004cefbfa7bbd7f779e41f3",
        [
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,0,global,validation,4.73272,0",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,client_0,train,4.88781,0",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,client_0,validation,4.44083,0",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,client_1,train,4.51117,0.0555556",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,client_1,validation,4.0979,0",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,global,validation,4.82714,0.166667",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,client_0,train,4.5635,0.0967742",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,client_0,validation,4.2873,0",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,client_1,train,4.08078,0.111111",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,client_1,validation,4.20096,0.333333",
            "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,global,validation,4.81032,0.166667",
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
                "global": "4d5ca8fdff26255db2285a7ac77e0dcfa2ea9680f004cefbfa7bbd7f779e41f3",
            },
            [
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,0,global,validation,4.73272,0",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,client_0,train,4.88781,0",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,client_0,validation,4.44083,0",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,client_1,train,4.51117,0.0555556",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,client_1,validation,4.0979,0",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,1,global,validation,4.82714,0.166667",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,client_0,train,4.5635,0.0967742",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,client_0,validation,4.2873,0",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,client_1,train,4.08078,0.111111",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,client_1,validation,4.20096,0.333333",
                "pretrain_mlm-federated-bert_mini-i7,federated,bert_mini,2,global,validation,4.81032,0.166667",
            ],
        ),
        (
            {
                "global": "e5f9ce895cfe85116d0a80e2fb98b184d8144dd02ca55440a0f7cd0c7a9699fe",
            },
            [
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,0,global,validation,1.6345,0",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_0,train,0.384263,0.772727",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_0,validation,0.00274701,1",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_1,train,0.779905,0.590909",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_1,validation,0.664689,0.8",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,global,validation,0.0097396,1",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_0,train,0.582578,0.863636",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_0,validation,0.072041,1",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_1,train,0.492745,0.863636",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_1,validation,1.70708,0.2",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,global,validation,0.0990529,1",
            ],
        ),
    ],
    "bert_mini_two_phase_standalone": [
        (
            {
                "client_0": "1efb454d90bdcf0898a0dbdb5f6c725522a1a14058c03ce00cec1ffe6bfbb933",
                "client_1": "7ed25cf2e2887a5b880d03cc68058236bf630577346df8ae13dfd7cc086df7c5",
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
                "client_0": "862a8615c41c265439a087e01af26b06ee48014fb06caa971e9345e68b484b61",
                "client_1": "f548ce92e33505858793a70007cd81df515bc1a814d3504f1e336616c0a8c62e",
            },
            [
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,0,client_0,validation,1.62204,0",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,0,client_1,validation,1.62722,0",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_0,train,1.4196,0.5",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_0,validation,0.00958721,1",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_1,train,0.816808,0.590909",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_1,validation,0.0390591,1",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_0,train,0.592898,0.863636",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_0,validation,0.10304,1",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_1,train,0.997108,0.409091",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_1,validation,0.972941,0",
            ],
        ),
    ],
}

ARTIFACT_GOLDEN = {
    "centralized": [
        (
            {
                "global": "2e2458a75f3522fa62cde6fa11be3e4eb58d1f7edfe18cabe71e49add651f261",
            },
            [
                "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,0,global,validation,1.6345,0",
                "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,1,global,train,0.528852,0.767442",
                "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,1,global,validation,0.0267613,1",
                "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,2,global,train,0.485471,0.860465",
                "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,2,global,validation,0.130878,1",
            ],
        ),
    ],
    "standalone": [
        (
            {
                "client_0": "259b45e61e0dbec72bd419ddd6ad3028e3b73f982aaf016fbfe95edbcc129f04",
                "client_1": "b58f1dd0697f847acf95413087a8066c69193e7b808829b4cbc96d22133809e5",
            },
            [
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,0,client_0,validation,1.6345,0",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,0,client_1,validation,1.6345,0",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_0,train,0.384263,0.772727",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_0,validation,0.0027469,1",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_1,train,0.779905,0.590909",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_1,validation,0.0438897,1",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_0,train,0.65955,0.863636",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_0,validation,0.0611087,1",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_1,train,0.606005,0.590909",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_1,validation,0.0827351,1",
            ],
        ),
    ],
    "federated": [
        (
            {
                "global": "e5f9ce895cfe85116d0a80e2fb98b184d8144dd02ca55440a0f7cd0c7a9699fe",
            },
            [
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,0,global,validation,1.6345,0",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_0,train,0.384263,0.772727",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_0,validation,0.00274701,1",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_1,train,0.779905,0.590909",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_1,validation,0.664689,0.8",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,global,validation,0.0097396,1",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_0,train,0.582578,0.863636",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_0,validation,0.072041,1",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_1,train,0.492745,0.863636",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_1,validation,1.70708,0.2",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,global,validation,0.0990529,1",
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

