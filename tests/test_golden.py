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
from flnp.experiment.runner import params_checksum, run_experiment

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
        "632246fd78aed3deec924a70709ac4fcdacdb8b38a98bb6235b22925b44b3ae7",
        [
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,0,global,validation,0.449935,1",
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,1,global,train,0.877164,0.72093",
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,1,global,validation,0.0752288,1",
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,2,global,train,0.648058,0.674419",
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,2,global,validation,0.0664691,1",
        ],
    ),
    "bert_mini_mlm_federated_channel": (
        "a6808b884d22fa81ca4218ed700c6b232435007f9bca2ab5e8d5cff3e7d759bd",
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
        "18223607846634a14529b8a76b9fe3b8b783512ddc1e2dc3206fd3d80e5ef7f0",
        [
            "finetune_classify-federated-lstm-i7,federated,lstm,0,global,validation,0.693176,0.166667",
            "finetune_classify-federated-lstm-i7,federated,lstm,1,client_0,train,0.58403,0.727273",
            "finetune_classify-federated-lstm-i7,federated,lstm,1,client_0,validation,0.00565728,1",
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
        "bf5199d530dc76bf2e79fd5214a2f35eb20d519fc4b4e961eb3837fc7b166e2d",
        [
            "finetune_classify-standalone-lstm-i7,standalone,lstm,0,client_0,validation,0.693176,0.166667",
            "finetune_classify-standalone-lstm-i7,standalone,lstm,0,client_1,validation,0.693176,0.166667",
            "finetune_classify-standalone-lstm-i7,standalone,lstm,1,client_0,train,0.58403,0.727273",
            "finetune_classify-standalone-lstm-i7,standalone,lstm,1,client_0,validation,0.00584394,1",
            "finetune_classify-standalone-lstm-i7,standalone,lstm,1,client_1,train,0.608494,0.636364",
            "finetune_classify-standalone-lstm-i7,standalone,lstm,1,client_1,validation,0.00312359,1",
            "finetune_classify-standalone-lstm-i7,standalone,lstm,2,client_0,train,0.978643,0.863636",
            "finetune_classify-standalone-lstm-i7,standalone,lstm,2,client_0,validation,0.506593,1",
            "finetune_classify-standalone-lstm-i7,standalone,lstm,2,client_1,train,0.618977,0.863636",
            "finetune_classify-standalone-lstm-i7,standalone,lstm,2,client_1,validation,0.373298,1",
        ],
    ),
}


def run_case(case: str, tmp_path, **overrides):
    cfg = config_from_dict({
        "rounds": 2,
        "local_epochs": 1,
        "batch_size": 8,
        "max_seq_len": 16,
        "partition": {"n_clients": 2, "mode": "balanced"},
        "data": TINY_DATA,
        "seeds": {"corpus": 3, "partition": 5, "init": 7, "batch": 11},
        **CASES[case],
        **overrides,
    })
    result = run_experiment(cfg)[0]
    csv_path = tmp_path / f"{case}.csv"
    emit_metrics(result.records, str(csv_path))
    rows = [",".join(row) for row in strip_wall_time(str(csv_path))[1:]]
    return params_checksum(result.final_params), rows


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
