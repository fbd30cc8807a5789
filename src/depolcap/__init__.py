"""Depolarizing-channel noise measures, decompositions, and capacity checks."""

__version__ = "0.1.0"

from .core import (
    BipartiteState,
    Channel,
    DensityMatrix,
    InvalidChannelError,
    InvalidStateError,
    PureState,
    SupportError,
)
from .depolarizing import DepolarizingChannel
from .phase_damping import PhaseDampingChannel
from .decomposition import full_decomposition
from .bounds import max_output_p_norm, min_output_entropy
from .capacity import (
    chi_additivity_check,
    holevo_quantity,
    shannon_capacity_depolarizing,
)

__all__ = [
    "__version__",
    "BipartiteState",
    "Channel",
    "DensityMatrix",
    "DepolarizingChannel",
    "InvalidChannelError",
    "InvalidStateError",
    "PhaseDampingChannel",
    "PureState",
    "SupportError",
    "chi_additivity_check",
    "full_decomposition",
    "holevo_quantity",
    "max_output_p_norm",
    "min_output_entropy",
    "shannon_capacity_depolarizing",
]
