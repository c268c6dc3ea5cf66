"""Shared model machinery: manifests, weight init, export/load."""

from __future__ import annotations

import math
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

    def __init__(self, config: ModelConfig, mode: str, ps: ParameterSet) -> None:
        """Model on `ps`'s own arrays; `build_model` checks the manifest first."""
        self.config = config
        self.mode = mode
        self.params = {name: Tensor(arr, requires_grad=True) for name, arr in ps.items()}
        self._source: ParameterSet | None = ps  # the set whose arrays `params` still are

    def manifest(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        _, specs = _model_class(self.config, self.mode)
        return tuple((name, shape) for name, shape, _ in specs)

    def export_params(self) -> ParameterSet:
        """The weights as a wire-precision set.

        While every weight is still the array of the set the model was
        built from or last loaded, that set is the export, with no copy.
        Otherwise the model lets go of that set, which it no longer
        computes on.
        """
        src = self._source
        if src is not None and all(t.data is src[name] for name, t in self.params.items()):
            return src
        self._source = None
        return ParameterSet((name, t.data) for name, t in self.params.items())

    def load_params(self, ps: ParameterSet) -> None:
        """Compute on the set's own read-only arrays; names and shapes must match the manifest.

        Nothing writes into them: an optimizer step replaces each array.
        """
        _check_manifest(ps, self.manifest())
        for name, arr in ps.items():
            self.params[name].data = arr
        self._source = ps


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


def init_params(config: ModelConfig, seed: int, mode: str = "classify") -> ParameterSet:
    """Seed-deterministic initial weights, drawn in manifest order.

    Each draw is rounded straight into its slot of the set as it is made,
    so one float64 tensor is alive at a time beside the set's buffer.
    """
    _, specs = _model_class(config, mode)
    rng = Rng(seed)

    def draw(flat: np.ndarray) -> None:
        used = 0
        for spec in specs:
            size = math.prod(spec[1])
            np.copyto(flat[used : used + size].reshape(spec[1]), init_array(spec, rng), casting="unsafe")
            used += size

    return ParameterSet.written(((name, shape) for name, shape, _ in specs), draw)


def init_model(config: ModelConfig, seed: int, mode: str = "classify"):
    """Fresh model on `init_params`: it holds, and exports, exactly that set."""
    return build_model(config, mode, init_params(config, seed, mode))


def build_model(config: ModelConfig, mode: str, ps: ParameterSet):
    """Model computing on a ParameterSet's own read-only arrays (no random init, no copy)."""
    cls, specs = _model_class(config, mode)
    _check_manifest(ps, [(name, shape) for name, shape, _ in specs])
    return cls(config, mode, ps)
