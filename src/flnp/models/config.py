"""Model hyperparameter configs and the three built-in presets."""

from __future__ import annotations

from dataclasses import dataclass


N_CLASSES = 2  # every classifier is binary: corpora carry 0/1 labels only


class ConfigError(ValueError):
    """A configuration value is out of contract."""


@dataclass(frozen=True)
class ModelConfig:
    kind: str  # "lstm" | "transformer"
    d_model: int
    n_layers: int
    vocab_size: int
    max_seq_len: int
    n_heads: int | None = None  # transformer only

    def __post_init__(self) -> None:
        if self.kind not in ("lstm", "transformer"):
            raise ConfigError(f"unknown model kind '{self.kind}'")
        for field in ("d_model", "n_layers", "vocab_size", "max_seq_len"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be positive, got {getattr(self, field)}")
        if self.kind == "transformer":
            if self.n_heads is None or self.n_heads < 1:
                raise ConfigError("transformer config requires n_heads >= 1")
            if self.d_head < 1:
                raise ConfigError(
                    f"d_model={self.d_model} / n_heads={self.n_heads} leaves no head width"
                )

    @property
    def d_head(self) -> int:
        """Per-head width, floor(d_model / n_heads)."""
        assert self.n_heads is not None
        return self.d_model // self.n_heads

    @property
    def d_ffn(self) -> int:
        return 4 * self.d_model


# hidden dim / attention heads / layers per preset; the two transformer
# presets pretrain with MLM, the LSTM is classification only.
PRESETS: dict[str, dict] = {
    "bert": {"kind": "transformer", "d_model": 128, "n_heads": 6, "n_layers": 12},
    "bert_mini": {"kind": "transformer", "d_model": 50, "n_heads": 2, "n_layers": 6},
    "lstm": {"kind": "lstm", "d_model": 128, "n_layers": 3},
}


def preset(name: str, vocab_size: int, max_seq_len: int) -> ModelConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset '{name}' (expected one of {sorted(PRESETS)})")
    base = PRESETS[name]
    return ModelConfig(vocab_size=vocab_size, max_seq_len=max_seq_len, **base)
