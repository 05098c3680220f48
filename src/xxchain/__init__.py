"""One-excitation simulator for XX spin chains with edge-bond impurities.

The package covers the full study pipeline: building the tridiagonal sector
Hamiltonian, exact diagonalization and band classification, localization
(inverse participation ratio) and pairwise entanglement (Wootters
concurrence), exact time evolution with transfer fidelity, the
impurity-strength optimization protocol, and a small brute-force
full-Hilbert-space oracle for cross-validation.
"""

from .chain import (
    ChainSpec,
    TridiagonalHamiltonian,
    build_hamiltonian,
    load_chain_config,
    mirror_impurities,
    parse_chain_config,
    single_impurity,
    validate_spec,
    with_alpha,
)
from .dynamics import (
    SeriesKind,
    TimeSeries,
    amplitude_matrix,
    concurrence_AN,
    fidelity,
    time_series,
    transfer_amplitude,
)
from .measures import (
    c12_from_energy_derivative,
    ipr,
    nn_concurrence_closed_form,
    reduced_density_two_sites,
    wootters_concurrence,
)
from .oracle import (
    FullState,
    full_evolve,
    full_hamiltonian,
    oracle_check,
    oracle_concurrence,
)
from .protocols import (
    Landscape,
    TransferReport,
    detect_refocus_time,
    fidelity_landscape,
    optimize_alpha,
    refocus_window,
    scaling_sweep,
)
from .spectral import (
    BandLabel,
    SpectralDecomposition,
    TransferSpectrum,
    classify_band,
    denergy_dalpha,
    eigendecompose,
    estimate_alpha_c,
    transfer_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BandLabel",
    "ChainSpec",
    "FullState",
    "Landscape",
    "SeriesKind",
    "SpectralDecomposition",
    "TimeSeries",
    "TransferReport",
    "TransferSpectrum",
    "TridiagonalHamiltonian",
    "amplitude_matrix",
    "build_hamiltonian",
    "c12_from_energy_derivative",
    "classify_band",
    "concurrence_AN",
    "denergy_dalpha",
    "detect_refocus_time",
    "eigendecompose",
    "estimate_alpha_c",
    "fidelity",
    "fidelity_landscape",
    "full_evolve",
    "full_hamiltonian",
    "ipr",
    "load_chain_config",
    "mirror_impurities",
    "nn_concurrence_closed_form",
    "optimize_alpha",
    "oracle_check",
    "oracle_concurrence",
    "parse_chain_config",
    "reduced_density_two_sites",
    "refocus_window",
    "scaling_sweep",
    "single_impurity",
    "time_series",
    "transfer_amplitude",
    "transfer_spectrum",
    "validate_spec",
    "with_alpha",
    "wootters_concurrence",
]
