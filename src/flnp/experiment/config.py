"""Declarative experiment configuration.

Configs load from a JSON file whose structure mirrors the dataclasses
below; any field can be overridden on the command line with repeated
`--set dotted.path=value` flags (values are parsed as JSON when they
parse, else taken as strings).
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
from dataclasses import dataclass, field
from typing import Any, get_args, get_origin, get_type_hints

from ..data import CorpusParams, MaskingConfig, PartitionSpec
from ..models import preset
from ..models.config import PRESETS, ConfigError, ModelConfig

MODES = ("centralized", "standalone", "federated")
PHASES = ("pretrain_mlm", "finetune_classify", "pretrain_then_finetune")
MODEL_NAMES = tuple(PRESETS)
DEFAULT_AUTH_TOKEN = "flnp-shared-token"


@dataclass(frozen=True)
class Seeds:
    corpus: int = 1
    partition: int = 2
    init: int = 3
    batch: int = 4


@dataclass(frozen=True)
class DataConfig:
    source: str = "synthetic"  # synthetic | file
    path: str | None = None
    n_records: int = 2000
    min_len: int = CorpusParams.min_len
    max_len: int = CorpusParams.max_len
    prevalence: float = CorpusParams.prevalence
    label_noise: float = CorpusParams.label_noise
    vocab_max_size: int = 2000
    val_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.source not in ("synthetic", "file"):
            raise ConfigError(f"unknown data source '{self.source}'")
        if self.source == "file" and not self.path:
            raise ConfigError("data.source=file requires data.path")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must lie in (0, 1), got {self.val_fraction}")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "federated"
    phase: str = "pretrain_mlm"
    model: str = "bert_mini"
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    rounds: int = 10
    local_epochs: int = 1
    batch_size: int = 32
    lr: float = 1e-2
    max_seq_len: int = 64
    seeds: Seeds = field(default_factory=Seeds)
    transport: str = "channel"  # channel | tcp
    addr: str = "127.0.0.1:7878"
    data: DataConfig = field(default_factory=DataConfig)
    masking: MaskingConfig = field(default_factory=MaskingConfig)
    holdout_frac: float = 0.2
    allow_single_client: bool = False
    pretrain_rounds: int | None = None
    pretrained_params_path: str | None = None
    auth_token: str = DEFAULT_AUTH_TOKEN
    run_id: str | None = None
    out_dir: str = "runs"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got '{self.mode}'")
        if self.phase not in PHASES:
            raise ConfigError(f"phase must be one of {PHASES}, got '{self.phase}'")
        if self.model not in MODEL_NAMES:
            raise ConfigError(f"model must be one of {MODEL_NAMES}, got '{self.model}'")
        if self.model == "lstm" and self.model_mode == "mlm":
            raise ConfigError("the lstm preset cannot pretrain with MLM")
        if self.transport not in ("channel", "tcp"):
            raise ConfigError(f"transport must be channel or tcp, got '{self.transport}'")
        if self.rounds < 0 or self.local_epochs < 0:
            raise ConfigError("rounds and local_epochs must be non-negative")
        if not 0.0 < self.lr < math.inf:  # NaN fails too
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if not 0.0 <= self.holdout_frac < 1.0:
            raise ConfigError(f"holdout_frac must lie in [0, 1), got {self.holdout_frac}")
        host, _, port = self.addr.rpartition(":")
        if not (host and port.isascii() and port.isdigit() and int(port) <= 0xFFFF):
            raise ConfigError(f"addr must be host:port with a port in [0, 65535], got '{self.addr}'")
        if (
            self.mode == "federated"
            and self.effective_clients() < 2
            and not self.allow_single_client
        ):
            raise ConfigError(
                "federated mode needs at least 2 clients "
                "(set allow_single_client=true for the equivalence test)"
            )

    def effective_clients(self) -> int:
        return 1 if self.partition.mode == "small" else self.partition.n_clients

    def model_config(self, vocab_size: int) -> ModelConfig:
        return preset(self.model, vocab_size=vocab_size, max_seq_len=self.max_seq_len)

    @property
    def model_mode(self) -> str:
        """The head this config's model trains; a chained run starts with MLM pretraining."""
        return "classify" if self.phase == "finetune_classify" else "mlm"

    def derived_run_id(self) -> str:
        if self.run_id:
            return self.run_id
        return f"{self.phase}-{self.mode}-{self.model}-i{self.seeds.init}"

    def phases(self) -> tuple["ExperimentConfig", ...]:
        """The single-phase configs this config runs, in order.

        A pretrain_then_finetune config runs MLM pretraining, then fine-tuning;
        an explicit run_id gets the phase name appended, so the two phases
        write separate outputs. Any other config is its own one phase.
        """
        if self.phase != "pretrain_then_finetune":
            return (self,)

        def phase(name: str, **changes) -> "ExperimentConfig":
            run_id = f"{self.run_id}-{name}" if self.run_id else None
            return dataclasses.replace(self, phase=name, run_id=run_id, **changes)

        rounds = self.pretrain_rounds if self.pretrain_rounds is not None else self.rounds
        return phase("pretrain_mlm", rounds=rounds), phase("finetune_classify")

    def host_port(self) -> tuple[str, int]:
        host, _, port = self.addr.rpartition(":")
        return host, int(port)


def _is_number(raw: Any) -> bool:
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _scalar(cls, key: str, hint: Any, raw: Any):
    """`raw` as field `key` of `cls` holds it; ConfigError if its JSON type does not fit.

    An int is no bool, a float may be an int, and a tuple holds numbers;
    null is accepted where the field allows None, and is the empty tuple.
    """
    options = get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    if raw is None and type(None) in options:
        return None
    hint = options[0]
    if get_origin(hint) is tuple:
        if raw is None:
            return ()
        if isinstance(raw, list) and all(_is_number(x) for x in raw):
            return tuple(raw)
        wanted = "a list of numbers"
    elif hint is float:
        if _is_number(raw):
            return raw
        wanted = "a number"
    elif isinstance(raw, hint) and not (hint is int and isinstance(raw, bool)):
        return raw
    else:
        wanted = {int: "an integer", bool: "true or false", str: "a string"}[hint]
    raise ConfigError(f"{cls.__name__}.{key} must be {wanted}, got {json.dumps(raw)}")


def _build(cls, value: Any):
    """Recursively construct a (frozen) dataclass tree from plain JSON data."""
    if not isinstance(value, dict):
        raise ConfigError(f"expected an object for {cls.__name__}, got {type(value).__name__}")
    hints = get_type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, raw in value.items():
        if key not in known:
            raise ConfigError(f"unknown config key '{key}' for {cls.__name__}")
        hint = hints[key]
        if dataclasses.is_dataclass(hint):
            kwargs[key] = _build(hint, raw)
        else:
            kwargs[key] = _scalar(cls, key, hint, raw)
    return cls(**kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, data)


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply `dotted.path=value` assignments onto a plain config dict."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got '{item}'")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = path.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot descend into '{part}' of '{path}'")
        node[parts[-1]] = value
    return data


def load_config(path: str, overrides: list[str] | None = None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    apply_overrides(data, overrides or [])
    return config_from_dict(data)
