"""scatchan: scattering-network assembly and the quantum channels it induces.

Compose local scattering matrices of a quantum graph into the global one
via the Redheffer star product, derive the port-to-port state-dependent
erasure channel, and bound its quantum capacity.
"""

from .capacity import (
    CapacityBounds,
    capacity_bounds,
    check_data_processing,
    detect_superactivation,
    erasure_capacity,
    singular_probabilities,
)
from .channel import ErasureChannel, transmission_operator
from .composer import (
    Wiring,
    kernel_decoupling_check,
    loop_matrix,
    pad_to_homogeneous,
    star,
    star_via_padding,
    star_via_series,
)
from .errors import (
    ConversionUnavailableError,
    DecouplingViolationError,
    InternalConsistencyError,
    InvalidInputError,
    NonUnitaryError,
    ScatchanError,
    SeriesDivergentError,
)
from .graph import QuantumGraph, contract, validate
from .physics import (
    BarrierParams,
    barrier_smatrix,
    closed_form_amplitudes,
    closed_form_m,
    energy_sweep,
    loss_smatrix,
    pipeline_amplitudes,
    translated_barrier,
)
from .smatrix import (
    PortSpec,
    ScatteringMatrix,
    TransferMatrix,
    s_to_t,
    t_to_s,
)

__version__ = "0.1.0"

__all__ = [
    "BarrierParams",
    "CapacityBounds",
    "ConversionUnavailableError",
    "DecouplingViolationError",
    "ErasureChannel",
    "InternalConsistencyError",
    "InvalidInputError",
    "NonUnitaryError",
    "PortSpec",
    "QuantumGraph",
    "ScatchanError",
    "ScatteringMatrix",
    "SeriesDivergentError",
    "TransferMatrix",
    "Wiring",
    "barrier_smatrix",
    "capacity_bounds",
    "check_data_processing",
    "closed_form_amplitudes",
    "closed_form_m",
    "contract",
    "detect_superactivation",
    "energy_sweep",
    "erasure_capacity",
    "kernel_decoupling_check",
    "loop_matrix",
    "loss_smatrix",
    "pad_to_homogeneous",
    "pipeline_amplitudes",
    "s_to_t",
    "singular_probabilities",
    "star",
    "star_via_padding",
    "star_via_series",
    "t_to_s",
    "transmission_operator",
    "translated_barrier",
    "validate",
]
