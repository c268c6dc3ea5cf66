"""Shared model machinery: manifests, weight init, export/load."""

from __future__ import annotations

from itertools import zip_longest

import numpy as np

from ..params import ParameterSet
from ..rng import Rng
from ..tensor import Tensor, UsageError
from .config import ConfigError, ModelConfig

EMBED_STD = 0.02

# init kinds: "weight" uniform(+-1/sqrt(fan_in)), "embed" normal(0, 0.02),
# "bias" zeros, "gain" ones
ParamSpec = tuple[str, tuple[int, ...], str]


def init_array(spec: ParamSpec, rng: Rng) -> np.ndarray:
    name, shape, kind = spec
    if kind == "weight":
        bound = 1.0 / float(np.sqrt(shape[0]))
        return rng.uniform(-bound, bound, shape)
    if kind == "embed":
        return rng.normal(0.0, EMBED_STD, shape)
    if kind == "bias":
        return np.zeros(shape, dtype=np.float64)
    if kind == "gain":
        return np.ones(shape, dtype=np.float64)
    raise ValueError(f"unknown init kind '{kind}' for {name}")


class ModelBase:
    """Owns a config, a mode and the named parameter tensors.

    An instance is confined to one execution context; cloning a model
    means exporting and re-loading its ParameterSet.
    """

    def __init__(self, config: ModelConfig, mode: str, params: dict[str, Tensor]) -> None:
        self.config = config
        self.mode = mode
        self.params = params

    def manifest(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        _, specs = _model_class(self.config, self.mode)
        return tuple((name, shape) for name, shape, _ in specs)

    def export_params(self) -> ParameterSet:
        """The weights as a wire-precision set."""
        return ParameterSet((name, t.data) for name, t in self.params.items())

    def load_params(self, ps: ParameterSet) -> None:
        """Replace all weights with float32 copies; names and shapes must match the manifest."""
        _check_manifest(ps, self.manifest())
        for name in ps.names:
            self.params[name].data = np.array(ps[name], copy=True)


def _check_manifest(ps: ParameterSet, expected) -> None:
    """UsageError naming the first (name, shape) entry that differs."""
    got, want = ps.manifest(), tuple(expected)
    if got == want:
        return
    i = next(i for i, (g, w) in enumerate(zip_longest(got, want)) if g != w)

    def entry(manifest) -> str:
        return f"'{manifest[i][0]}' {manifest[i][1]}" if i < len(manifest) else "no entry"

    raise UsageError(
        f"parameter set manifest does not match model at entry {i}: "
        f"expected {entry(want)}, got {entry(got)} ({len(got)} vs {len(want)} entries)"
    )


def _model_class(config: ModelConfig, mode: str):
    """The model class for (config, mode) and its parameter specs."""
    from .lstm import LstmClassifier, lstm_manifest
    from .transformer import TransformerModel, transformer_manifest

    if mode not in ("mlm", "classify"):
        raise ConfigError(f"unknown mode '{mode}'")
    if config.kind == "lstm":
        if mode == "mlm":
            raise ConfigError("the LSTM model has no MLM head; it only classifies")
        return LstmClassifier, lstm_manifest(config)
    return TransformerModel, transformer_manifest(config, mode)


def init_model(config: ModelConfig, seed: int, mode: str = "classify"):
    """Fresh model with seed-deterministic weights drawn in manifest order,
    rounded to a ParameterSet first: the model holds exactly the set it exports."""
    _, specs = _model_class(config, mode)
    rng = Rng(seed)
    ps = ParameterSet((name, init_array((name, shape, kind), rng)) for name, shape, kind in specs)
    return build_model(config, mode, ps)


def build_model(config: ModelConfig, mode: str, ps: ParameterSet):
    """Model holding a writable float32 copy of a ParameterSet (no random init)."""
    cls, specs = _model_class(config, mode)
    _check_manifest(ps, [(name, shape) for name, shape, _ in specs])
    params = {name: Tensor(np.array(arr, copy=True), requires_grad=True) for name, arr in ps.items()}
    return cls(config, mode, params)
