"""Effective couplings, spectra and dynamics of qubit-resonator systems.

The package builds truncated-Fock-space Hamiltonians for any number of
bosonic modes coupled to any number of qubits, computes lowest-order
path-sum effective couplings between resonant bare states, and checks the
resulting predictions (avoided crossings, oscillation rates, interference
zeros) against exact diagonalization and unitary time evolution. A catalog
of frequency-mixing processes and a classical polarization mixer round out
the toolbox.
"""

from .classical import (
    Susceptibilities,
    Tone,
    direct_polarization,
    effective_linear_susceptibility,
    evaluate_polarization,
    polarization_spectrum,
)
from .closed_forms import closed_form_geff
from .config import RunConfig, parse_config
from .dynamics import EvolutionSpec, PopulationTrace, evolve, extract_oscillation
from .errors import (
    BracketingError,
    CapacityError,
    ConfigError,
    DegenerateIntermediateError,
    DomainError,
    FlatTraceError,
    RabimixError,
    UnreachableError,
)
from .hamiltonian import (
    HermitianOperator,
    build_h0,
    build_hamiltonian,
    build_hint,
    commutator_norm,
    parity_operator,
    total_number_operator,
)
from .hilbert import BasisState, HilbertSpace, build_space
from .catalog import (
    CATALOG,
    ProcessEntry,
    VerifyReport,
    get_process,
    list_processes,
    resolve_resonance,
    verify_entry,
)
from .perturbation import (
    EffectiveCoupling,
    TransitionPath,
    diagonal_shift,
    dispersive_kerr_pathsum,
    effective_coupling,
    enumerate_paths,
    interaction_for,
    shortest_order,
)
from .spectra import (
    CrossingReport,
    SweepResult,
    SweepSpec,
    eigensystem,
    find_avoided_crossing,
    kerr_shift_numeric,
    track_levels,
)
from .system import (
    CouplingSpec,
    InteractionModel,
    ModeSpec,
    QubitSpec,
    SystemSpec,
    default_n_max,
)

__version__ = "0.1.0"

__all__ = [
    "BasisState",
    "BracketingError",
    "CATALOG",
    "CapacityError",
    "ConfigError",
    "CouplingSpec",
    "CrossingReport",
    "DegenerateIntermediateError",
    "DomainError",
    "EffectiveCoupling",
    "EvolutionSpec",
    "FlatTraceError",
    "HermitianOperator",
    "HilbertSpace",
    "InteractionModel",
    "ModeSpec",
    "PopulationTrace",
    "ProcessEntry",
    "QubitSpec",
    "RabimixError",
    "RunConfig",
    "Susceptibilities",
    "SweepResult",
    "SweepSpec",
    "SystemSpec",
    "Tone",
    "TransitionPath",
    "UnreachableError",
    "VerifyReport",
    "build_h0",
    "build_hamiltonian",
    "build_hint",
    "build_space",
    "closed_form_geff",
    "commutator_norm",
    "default_n_max",
    "diagonal_shift",
    "direct_polarization",
    "dispersive_kerr_pathsum",
    "effective_coupling",
    "effective_linear_susceptibility",
    "eigensystem",
    "enumerate_paths",
    "evaluate_polarization",
    "evolve",
    "extract_oscillation",
    "find_avoided_crossing",
    "get_process",
    "interaction_for",
    "kerr_shift_numeric",
    "list_processes",
    "parse_config",
    "polarization_spectrum",
    "resolve_resonance",
    "shortest_order",
    "total_number_operator",
    "track_levels",
    "verify_entry",
    "parity_operator",
]
__all__.sort()
