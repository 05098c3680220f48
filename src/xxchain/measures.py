"""Localization and bipartite entanglement of one-excitation states.

Localization is quantified by the inverse participation ratio

    L_IPR = (sum_n |psi_n|^2)^2 / sum_n |psi_n|^4,

which is 1 for a state concentrated on a single site and N for a uniformly
spread one.  Entanglement between two sites is the Wootters concurrence of
their reduced density matrix; for a one-excitation state the nearest-neighbor
reduced matrix has the closed form C = 2 |psi_{i+1} psi_i|, and for the first
bond it also equals |(1/J) dE_j/dalpha| via the Hellmann-Feynman theorem.

c12_sweep and ipr_sweep hand the template and the alpha array to
spectral.first_bond_c12_batch and spectral.eigenstate_ipr_batch and return
their table as a StateSweep (alpha x state); the batches pick
the route once per grid: a bond-1 template is solved in batches from its
phase equation, without a matrix; any other row builds its matrix and reads
the eigenvectors of the requested states (spectral module docstring).

States are plain arrays: a one-excitation state is its 1-d vector of N site
amplitudes, whose unit norm ipr, reduced_density_two_sites and
nn_concurrence_closed_form check (NORM_TOL).  Two-qubit states are 4x4
density matrices in the basis {|uu>, |ud>, |du>, |dd>}, where u is spin up
and d is the (excited) down spin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, _frozen
from .errors import (
    BadSite,
    BadSitePair,
    NotDensityMatrix,
    NotNormalized,
)
from .spectral import denergy_dalpha, eigenstate_ipr_batch, first_bond_c12_batch

NORM_TOL = 1e-9
DENSITY_TOL = 1e-10
# c12_peak skips alpha below this cut, and calls its maximum dominant above
# this multiple of the next-largest local maximum.
C12_EXCLUDE_BELOW = 0.02
C12_DOMINANCE = 3.0

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
# sigma_y otimes sigma_y is real in the computational basis.
_YY = np.kron(_SY, _SY).real


def _amplitudes(state) -> np.ndarray:
    amps = np.asarray(state, dtype=complex)
    if amps.ndim != 1:
        raise ValueError("amplitudes must form a 1-d vector")
    return amps


def _require_normalized(amps: np.ndarray) -> np.ndarray:
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if not np.isfinite(amps).all() or abs(norm_sq - 1.0) > NORM_TOL:
        raise NotNormalized(f"|psi|^2 = {norm_sq!r}, expected 1 within {NORM_TOL}")
    return amps


def _check_density(matrix: np.ndarray) -> None:
    if matrix.shape != (4, 4):
        raise NotDensityMatrix(f"expected a 4x4 matrix, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise NotDensityMatrix("matrix entries must be finite")
    if np.max(np.abs(matrix - matrix.conj().T)) > DENSITY_TOL:
        raise NotDensityMatrix("matrix is not Hermitian")
    trace = complex(np.trace(matrix))
    if abs(trace - 1.0) > DENSITY_TOL:
        raise NotDensityMatrix(f"trace is {trace!r}, expected 1")
    eigenvalues = np.linalg.eigvalsh(matrix)
    if eigenvalues[0] < -DENSITY_TOL:
        raise NotDensityMatrix(f"negative eigenvalue {eigenvalues[0]!r}")


def ipr(state) -> float:
    """Inverse participation ratio of a normalized state; lies in [1, N]."""
    amps = _require_normalized(_amplitudes(state))
    return float(ipr_of_rows(amps[None, :])[0])


def reduced_density_two_sites(state, site_i: int, site_j: int) -> np.ndarray:
    """4x4 two-site reduced density matrix of a one-excitation state.

    Tracing out the other N-2 spins leaves populations
    (1 - |psi_i|^2 - |psi_j|^2, |psi_j|^2, |psi_i|^2, 0) and the single
    coherence psi_i psi_j* between |du> and |ud>.
    """
    amps = _require_normalized(_amplitudes(state))
    n = amps.size
    if not (1 <= site_i < site_j <= n):
        raise BadSitePair(f"need 1 <= i < j <= {n}, got ({site_i}, {site_j})")
    amp_i = amps[site_i - 1]
    amp_j = amps[site_j - 1]
    pop_i = abs(amp_i) ** 2
    pop_j = abs(amp_j) ** 2
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[0, 0] = max(1.0 - pop_i - pop_j, 0.0)
    matrix[1, 1] = pop_j
    matrix[2, 2] = pop_i
    matrix[1, 2] = amp_j * np.conj(amp_i)
    matrix[2, 1] = amp_i * np.conj(amp_j)
    return matrix


def _sqrtm_psd(matrix: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix, zeroing numerically-null modes."""
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    cutoff = 1e-12 * max(float(eigenvalues[-1]), 0.0)
    clipped = np.where(eigenvalues > cutoff, eigenvalues, 0.0)
    return (eigenvectors * np.sqrt(clipped)) @ eigenvectors.conj().T


def wootters_concurrence(rho) -> float:
    """Concurrence C = max(0, l1 - l2 - l3 - l4) of a two-qubit state.

    The l_i are the decreasingly-ordered square roots of the eigenvalues of
    rho * rho_tilde with rho_tilde = (sy x sy) rho* (sy x sy).  They are
    computed as the singular values of sqrt(rho) (sy x sy) sqrt(rho)*, which
    is exact for the same spectrum but does not lose half the significant
    digits on the zero modes the way sqrt-of-eigenvalue does.
    """
    matrix = np.asarray(rho, dtype=complex)
    _check_density(matrix)
    root = _sqrtm_psd(matrix)
    lam = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    value = lam[0] - lam[1] - lam[2] - lam[3]
    return float(min(max(value, 0.0), 1.0))


def nn_concurrence_closed_form(eigvec, site: int) -> float:
    """Nearest-neighbor concurrence 2 |psi_{site+1} psi_site| of a unit eigenstate."""
    amps = _require_normalized(_amplitudes(eigvec))
    if not 1 <= site <= amps.size - 1:
        raise BadSite(f"site must be in 1..{amps.size - 1}, got {site}")
    return float(2.0 * abs(amps[site] * amps[site - 1]))


def c12_from_energy_derivative(spec: ChainSpec, state_index: int) -> float:
    """First-bond concurrence |(1/J) dE_j/dalpha| by the Hellmann-Feynman route."""
    return abs(denergy_dalpha(spec, state_index) / spec.exchange_j)


def ipr_of_rows(states: np.ndarray) -> np.ndarray:
    """IPR of every row of an array of normalized amplitude vectors."""
    probabilities = np.abs(states)
    probabilities *= probabilities  # squared in place, here and below
    totals = probabilities.sum(axis=1)
    probabilities *= probabilities
    return totals * totals / probabilities.sum(axis=1)


@dataclass(frozen=True)
class StateSweep:
    """A per-eigenstate observable over an alpha grid: values[a, s] of state states[s] at alphas[a].

    Construction stores read-only copies of the three arrays.
    """

    alphas: np.ndarray
    states: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _frozen(self, alphas=self.alphas, states=self.states, values=self.values)


def _state_sweep(template, alphas, state_indices, batch) -> StateSweep:
    """The table of a per-eigenstate observable over an alpha grid.

    batch(template, alphas, (lo, hi)) returns the values of the states
    lo = min(indices) .. hi = max(indices) in order, one row per alpha.
    """
    states = np.array([int(j) for j in state_indices], dtype=int)
    alphas = np.asarray(alphas, dtype=float)
    if not states.size or not alphas.size:
        return StateSweep(alphas, states, np.empty((alphas.size, states.size)))
    lo, hi = int(states.min()), int(states.max())
    return StateSweep(alphas, states, batch(template, alphas, (lo, hi))[:, states - lo])


def ipr_sweep(template: ChainSpec, alphas, state_indices) -> StateSweep:
    """L_IPR of the requested 1-based eigenstate indices over the grid, from spectral.eigenstate_ipr_batch."""
    return _state_sweep(template, alphas, state_indices, eigenstate_ipr_batch)


def c12_sweep(template: ChainSpec, alphas, state_indices) -> StateSweep:
    """C_12 of the requested 1-based eigenstate indices over the grid, from spectral.first_bond_c12_batch."""
    return _state_sweep(template, alphas, state_indices, first_bond_c12_batch)


def sweep_alpha_grid() -> np.ndarray:
    """Default impurity-strength grid of c12_peak: 0 .. 2, step 0.005."""
    return 0.005 * np.arange(401)


@dataclass(frozen=True)
class ConcurrencePeak:
    """Location and height of a curve's largest maximum over alpha."""

    alpha: float
    height: float
    dominant: bool


def _local_maxima(values: np.ndarray) -> list[int]:
    """Interior indices k with values[k] at least both neighbours and above one."""
    left, mid, right = values[:-2], values[1:-1], values[2:]
    peak = (mid >= left) & (mid >= right) & ((mid > left) | (mid > right))
    return (np.flatnonzero(peak) + 1).tolist()


def c12_peak(template: ChainSpec, state_index: int, alphas=None) -> ConcurrencePeak:
    """Largest maximum of C_12(E_j, alpha) over an alpha grid.

    The region alpha < C12_EXCLUDE_BELOW is skipped (site 1 decouples at
    alpha=0 and the resulting degeneracy makes C_12 ill-defined there).  The
    maximum counts as dominant when it exceeds C12_DOMINANCE times the
    next-largest local maximum of the same curve.  The grid maximum is then
    polished by a golden-section search between its neighbors.
    """
    if alphas is None:
        alphas = sweep_alpha_grid()
    alphas = np.asarray(alphas, dtype=float)
    keep = alphas >= C12_EXCLUDE_BELOW
    alphas = alphas[keep]
    if alphas.size < 3:
        raise ValueError("need at least three alpha samples above the exclusion cut")
    curve = c12_sweep(template, alphas, [state_index]).values[:, 0]

    best = int(np.argmax(curve))
    maxima = _local_maxima(curve)
    others = [curve[k] for k in maxima if k != best]
    dominant = not others or curve[best] > C12_DOMINANCE * max(others)

    alpha_peak = float(alphas[best])
    height = float(curve[best])
    lo = alphas[max(best - 1, 0)]
    hi = alphas[min(best + 1, alphas.size - 1)]
    if hi > lo:
        alpha, value = _golden_max(
            lambda a: float(c12_sweep(template, [a], [state_index]).values[0, 0]), float(lo), float(hi), xatol=1e-6
        )
        if value >= height:
            alpha_peak, height = alpha, float(value)
    return ConcurrencePeak(alpha=alpha_peak, height=height, dominant=dominant)


def _golden_max(f, lo, hi, xatol):
    """Golden-section search for the maximum of a unimodal f on [lo, hi]: the better probe (x, f(x)).

    Each step keeps the part of the bracket on the side of the larger of its
    two probes, so the bracket shrinks by 1/phi per evaluation and holds the
    maximum, a bound included, until it is narrower than xatol.
    """
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > xatol:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - shrink * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + shrink * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 >= f2 else (x2, f2)
