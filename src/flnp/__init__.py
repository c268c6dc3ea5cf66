"""Federated MLM pretraining and text classification at desk scale.

Self-contained: an autodiff tensor core (float32 compute, packed GEMMs),
LSTM and transformer encoder models, a synthetic clinical-style corpus
with a planted label rule, a FedAvg round protocol with a token
provisioning handshake, and interchangeable in-process / TCP transports
behind one wire format.
"""

__version__ = "0.1.0"

from .params import ParameterSet
from .rng import Rng

__all__ = ["ParameterSet", "Rng", "__version__"]
