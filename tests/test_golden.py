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
        "d20783566019bcac7468b827b177242297e471c1af06ff988fcdd988170ce27c",
        [
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,0,global,validation,0.449935,1",
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,1,global,train,0.877164,0.72093",
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,1,global,validation,0.0752288,1",
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,2,global,train,0.648058,0.674419",
            "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,2,global,validation,0.0664691,1",
        ],
    ),
    "bert_mini_mlm_federated_channel": (
        "f34897b5701aa8060b0229e9ebeb9cbefaf257a2da97b0f2e038127bad7b54a7",
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
                "global": "f34897b5701aa8060b0229e9ebeb9cbefaf257a2da97b0f2e038127bad7b54a7",
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
                "global": "1f9fccfdaaefc1e21505cfac1bac7ca837570332a8f08608ccfc7afda86edb63",
            },
            [
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,0,global,validation,1.63455,0",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_0,train,0.384271,0.772727",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_0,validation,0.00274687,1",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_1,train,0.779912,0.590909",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_1,validation,0.664596,0.8",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,global,validation,0.00974132,1",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_0,train,0.582573,0.863636",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_0,validation,0.0720327,1",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_1,train,0.492759,0.863636",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_1,validation,1.70746,0.2",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,global,validation,0.0990227,1",
            ],
        ),
    ],
    "bert_mini_two_phase_standalone": [
        (
            {
                "client_0": "e8c1760d9284c7ddaebba7d03b284d3b3cf04663a8f034d4fba7685b2503a053",
                "client_1": "5a6bb1d071d2e27c50fea9f80b7d41ffc16017b071621eedf71b768de8cc81a4",
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
                "client_0": "651d4a4c1bcf07f68632858c2e82b361348cd19808b6157de3c56e797a6aa978",
                "client_1": "fc23466a4cea7b6c89de8cd0695d3deafa06938f2e06753ec29996aea01047a7",
            },
            [
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,0,client_0,validation,1.62203,0",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,0,client_1,validation,1.62722,0",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_0,train,1.41843,0.5",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_0,validation,0.00958173,1",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_1,train,0.816808,0.590909",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_1,validation,0.0390591,1",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_0,train,0.592893,0.863636",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_0,validation,0.103104,1",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_1,train,0.997107,0.409091",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_1,validation,0.972946,0",
            ],
        ),
    ],
}

ARTIFACT_GOLDEN = {
    "centralized": [
        (
            {
                "global": "f4a8dc4e5bbabeeab7cdd71e5d84d20b39634fdd2b07894e98fd59bf7322a41d",
            },
            [
                "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,0,global,validation,1.63455,0",
                "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,1,global,train,0.528844,0.767442",
                "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,1,global,validation,0.026764,1",
                "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,2,global,train,0.485453,0.860465",
                "finetune_classify-centralized-bert_mini-i7,centralized,bert_mini,2,global,validation,0.13088,1",
            ],
        ),
    ],
    "standalone": [
        (
            {
                "client_0": "91820a6ff06ea29e06df09f76b662068ec72e84b3c86e9d28e9acd86de8dffe8",
                "client_1": "6d508010865b9380e3d2099b7ad3412c51153cadd913db80ea6201e8fd53f422",
            },
            [
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,0,client_0,validation,1.63455,0",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,0,client_1,validation,1.63455,0",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_0,train,0.384271,0.772727",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_0,validation,0.00274677,1",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_1,train,0.779912,0.590909",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,1,client_1,validation,0.0439152,1",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_0,train,0.659563,0.863636",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_0,validation,0.0611093,1",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_1,train,0.606127,0.590909",
                "finetune_classify-standalone-bert_mini-i7,standalone,bert_mini,2,client_1,validation,0.082733,1",
            ],
        ),
    ],
    "federated": [
        (
            {
                "global": "1f9fccfdaaefc1e21505cfac1bac7ca837570332a8f08608ccfc7afda86edb63",
            },
            [
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,0,global,validation,1.63455,0",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_0,train,0.384271,0.772727",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_0,validation,0.00274687,1",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_1,train,0.779912,0.590909",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,client_1,validation,0.664596,0.8",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,1,global,validation,0.00974132,1",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_0,train,0.582573,0.863636",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_0,validation,0.0720327,1",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_1,train,0.492759,0.863636",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,client_1,validation,1.70746,0.2",
                "finetune_classify-federated-bert_mini-i7,federated,bert_mini,2,global,validation,0.0990227,1",
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

