"""scatchan: scattering-network assembly and the quantum channels it induces.

Compose local scattering matrices of a quantum graph into the global one
via the Redheffer star product, derive the port-to-port state-dependent
erasure channel, and bound its quantum capacity.

The exported names resolve lazily, on first access, from the modules that
define them: ``import scatchan`` itself loads neither numpy nor any
submodule, so a process (the CLI, say) can configure numpy before it loads.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.
_EXPORTS = {
    "BarrierParams": "physics",
    "CapacityBounds": "capacity",
    "ConversionUnavailableError": "errors",
    "DecouplingViolationError": "errors",
    "ErasureChannel": "channel",
    "InternalConsistencyError": "errors",
    "InvalidInputError": "errors",
    "NonUnitaryError": "errors",
    "PortSpec": "smatrix",
    "QuantumGraph": "graph",
    "ScatchanError": "errors",
    "ScatteringMatrix": "smatrix",
    "SeriesDivergentError": "errors",
    "TransferMatrix": "smatrix",
    "Wiring": "composer",
    "barrier_smatrix": "physics",
    "capacity_bounds": "capacity",
    "check_data_processing": "capacity",
    "closed_form_amplitudes": "physics",
    "closed_form_m": "physics",
    "contract": "graph",
    "detect_superactivation": "capacity",
    "energy_sweep": "physics",
    "erasure_capacity": "capacity",
    "kernel_decoupling_check": "composer",
    "loss_smatrix": "physics",
    "pad_to_homogeneous": "composer",
    "pipeline_amplitudes": "physics",
    "s_to_t": "smatrix",
    "singular_probabilities": "capacity",
    "star": "composer",
    "star_via_padding": "composer",
    "star_via_series": "composer",
    "t_to_s": "smatrix",
    "transmission_operator": "channel",
    "translated_barrier": "physics",
    "validate": "graph",
}

__all__ = list(_EXPORTS)
# The submodules an eager import used to bind as attributes of the package.
_SUBMODULES = frozenset(_EXPORTS.values()) | {"numerics"}


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # binds the attribute too
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
