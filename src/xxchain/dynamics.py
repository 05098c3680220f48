"""Exact time evolution in the one-excitation sector.

Evolution is done in the eigenbasis: starting from site s,

    psi_n(t) = sum_j exp(-i E_j t) psi_n^(j) psi_s^(j),

which is exact for every t (hbar = 1).  The end-to-end transfer amplitude is
f_N(t) = <N| exp(-i H t) |1>, the transfer fidelity F = |f_N|^2 is the excited
population of the receiving spin, and the entanglement protocol that shares a
Bell pair between an uncoupled ancilla A and site 1 delivers concurrence
C_{A,N}(t) = |f_N(t)| between A and site N.

Every production time grid is evenly spaced, t_k = t_0 + k dt.  On such a
grid transfer_amplitude writes k = a n_b + b with about sqrt(len(t)) coarse
anchors T_a = t_{a n_b} and fine offsets tau_b = b dt, so that

    f_N(T_a + tau_b) = sum_j [exp(-i E_j T_a) w_j] exp(-i E_j tau_b),
    w_j = psi_1^(j) psi_N^(j),

is one complex matrix product of shape (n_a x N) (N x n_b).  That needs
about 2 sqrt(len(t)) N complex exponentials instead of len(t) N, and leaves
the O(len(t) N) remainder to BLAS.  The split is exact algebra for any
spectrum (no field, parity or chirality assumption); in floating point the
phases E_j T_a and E_j tau_b carry the same rounding as E_j t_k, so the two
evaluations agree to a few 1e-15.  Propagator.amplitude_matrix, which needs
every site and not only f_N, builds its (len(t) x N) phase table from the
same two tables, exp(-i E_j t_k) = exp(-i E_j T_a) exp(-i E_j tau_b): one
complex multiply per entry in place of one exponential.  Scalar,
multi-dimensional and unevenly spaced t, grids with fewer than 6 samples and
grids whose len(t) N falls below FACTORED_MIN_PHASES take the per-sample
exponentials exp(-i E_j t_k) directly: there the two factor tables cost more
than they save.

Every chain the package builds has the constant diagonal h, so H - h is a
bipartite hopping matrix and its spectrum is chiral (Inui, Trugman and
Abrahams, PRB 49, 3190 (1994)): with D = diag((-1)^n), D (H - h) D = -(H - h),
so E_{N+1-j} - h = -(E_j - h) and psi^(N+1-j)_n = +-(-1)^n psi^(j)_n.  The
weights w_j = psi_n^(j) psi_s^(j) of a pair then differ by the sign
(-1)^(n - s), and from site s

    psi_n(t) = exp(-iht) Re Z_n(t)     on site s's sublattice,
    psi_n(t) = exp(-iht) i Im Z_n(t)   on the other one,
    Z_n(t) = sum over the upper half of c_j exp(-i (E_j - h) t) w_j,

where the upper half is the levels floor(N/2) + 1 .. N, c_j = 2, and odd N
adds its zero mode (E = h, its own partner) with c = 1.  In particular
f_N = exp(-iht) Re Z_N for odd N and exp(-iht) i Im Z_N for even N.  The
kernels above run unchanged on the upper half: half the exponentials of
transfer_amplitude (and so of fidelity, concurrence_AN, the landscape and
the optimizer).  The running IPR of time_series needs only |psi_n|^2, so it
reads the real rows Re Z and Im Z, two real (T x N/2)(N/2 x N/2) GEMMs
(Propagator._sublattice_rows), and builds no complex T x N array;
amplitude_matrix multiplies the same rows by their phases.  Timings are in
CHANGES.md.

The pairing is checked on the computed spectrum, not assumed.  Each kernel
rounds every phase E_j t to about eps |E_j t|, so its own round-off is
R = eps max|E| max|t| W, with W = max_n sum_j |w_j| (one column n per site
amplitude, or the single column of f_N).  Replacing E_{N+1-j} by 2h - E_j
and w_{N+1-j} by (-1)^(n - s) w_j moves every amplitude by at most

    B = max|t| W dE + dw,   dE = max_j |E_j + E_{N+1-j} - 2h|,
                            dw = max_n 1/2 sum_j |w_{N+1-j} - (-1)^(n - s) w_j|

(h is the midrange of the pair sums; the zero mode's terms are in both
sums).  A grid takes the upper half only when B <= PAIRING_ROUNDOFF R.  The
share of dE in B / R is dE / (eps max|E|) at every t.  dE adds the errors
of two computed levels, and the level errors of a backward-stable
tridiagonal solve accumulate like sqrt(N) eps max|E| over its O(N) steps, so
dE is about 2 sqrt(N) eps max|E|; the multiple 64 = 2 sqrt(1024) admits it
for every chain up to 1,024 sites, as COMPLETENESS_TOL does for the bordered
blocks (measured: dE is at most 4 eps max|E| on single-impurity and mirror
chains up to N = 400).  The share of dw does not grow with t and falls as
1 / max|t|; it is what refuses degenerate levels, whose eigenvectors LAPACK
returns in a basis that need not pair (the even-N alpha = 0 pair at E = h).
Under the guard the upper-half sum is within (1 + PAIRING_ROUNDOFF) R of the
exact sum over the computed spectrum, where the full sum is within R.  dE,
dw and W are measured once, when a Propagator or TransferSpectrum is built
(spectral._chiral_half); a call only compares its max|t| with the smallest
max|t| they allow.  A spectrum whose dE alone exceeds the multiple (a
generic non-constant diagonal), and a grid whose max|t| is too short, take
the full sum above, with its bytes.

transfer_amplitude, fidelity and concurrence_AN read only the energies E_j
and the weights w_j, so they take the TransferSpectrum of
spectral.transfer_spectrum, which solves a mirror chain as two parity blocks.
time_series picks the solve per observable: transfer_spectrum for the three
f_N kinds, so a given matrix has one f_N(t) whoever asks, and eigendecompose
for the running IPR, whose Propagator needs every site and every eigenpair
(a decomposition of a range of states is refused with IncompleteBasis).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .chain import TridiagonalHamiltonian
from .errors import BadSite, IncompleteBasis
from .measures import ipr_of_rows
from .spectral import (
    SpectralDecomposition,
    TransferSpectrum,
    _chiral_half,
    eigendecompose,
    transfer_spectrum,
)

# Smallest len(t) * N for which transfer_amplitude (and amplitude_matrix)
# factors an even grid.
# Measured with one BLAS thread on a 2-vCPU x86-64 VM, the factored kernel
# breaks even at about 0.8-1k phase evaluations for N <= 8, 1.2-2k for
# N = 16-200 and 2.4-3.2k for N = 400-1000.  Grids of fewer than 6 samples
# are never factored: their two factor tables hold as many exponentials as
# the grid itself.
FACTORED_MIN_PHASES = 2048
# An even grid may differ from t_0 + k dt by this many ulps of max|t|.
_EVEN_GRID_ULPS = 8


# The values are the names `evolve --kind` accepts.
class SeriesKind(enum.Enum):
    IPR = "ipr"
    FIDELITY = "fidelity"
    TRANSFER_AMPLITUDE = "amplitude"
    CONCURRENCE_AN = "concurrence"


@dataclass(frozen=True)
class TimeSeries:
    """One value per time on a strictly ascending grid."""

    times: np.ndarray
    values: np.ndarray
    kind: SeriesKind

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        values = np.array(self.values)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("time grid must be a nonempty 1-d array")
        if values.shape != times.shape:
            raise ValueError("times and values must have matching lengths")
        if times.size > 1 and np.any(np.diff(times) <= 0.0):
            raise ValueError("time grid must be strictly ascending")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


class Propagator:
    """Evolves a single-site initial excitation under a fixed decomposition.

    amplitude_matrix is the one route to site amplitudes: the state at a
    single time t is the plain array amplitude_matrix([t])[0].
    """

    def __init__(self, dec: SpectralDecomposition, init_site: int = 1):
        if dec.first_state != 1 or dec.energies.size != dec.n_sites:
            raise IncompleteBasis(
                f"time evolution needs all {dec.n_sites} eigenstates, the decomposition holds "
                f"states {dec.first_state}..{dec.first_state + dec.energies.size - 1}"
            )
        if not 1 <= init_site <= dec.n_sites:
            raise BadSite(f"init_site must be in 1..{dec.n_sites}, got {init_site}")
        self.dec = dec
        # weight of eigenstate j in the initial delta state
        self._weights = dec.vectors[:, init_site - 1].copy()
        # the paired route keeps the sites of init_site's sublattice first
        self._own = slice((init_site - 1) % 2, None, 2)
        self._other = slice(init_site % 2, None, 2)
        self._n_own = len(range(dec.n_sites)[self._own])
        products = dec.vectors * self._weights[:, None]
        products = np.hstack((products[:, self._own], products[:, self._other]))
        signs = np.where(np.arange(dec.n_sites) < self._n_own, 1.0, -1.0)
        self._half = _chiral_half(dec.energies, products, signs)

    def amplitude_matrix(self, times) -> np.ndarray:
        """Site amplitudes for every time: shape (len(times), N).

        On an even grid the phase table is the product of the coarse-anchor
        and fine-offset tables of transfer_amplitude, one multiply per entry.
        A paired spectrum sums over its upper half (_sublattice_rows).
        """
        times = np.asarray(times, dtype=float)
        if _paired(self._half, times):
            times = times.ravel()
            rows = self._sublattice_rows(times)
            phase = np.exp(-1j * self._half.centre * times)[:, None]
            amplitudes = np.empty(rows.shape, dtype=complex)
            amplitudes[:, self._own] = rows[:, : self._n_own] * phase
            amplitudes[:, self._other] = rows[:, self._n_own :] * (1j * phase)
            return amplitudes
        energies = self.dec.energies
        step = _factored_step(times, energies.size)
        if step is None:
            phases = np.exp(-1j * np.outer(times, energies)) * self._weights
        else:
            coarse, fine = _phase_tables(energies, times, step)
            coarse *= self._weights
            phases = (coarse[:, None, :] * fine[None, :, :]).reshape(-1, energies.size)
            phases = phases[: times.size]
        return phases @ self.dec.vectors

    def _sublattice_rows(self, times) -> np.ndarray:
        """Real r_n(t) with psi_n(t) = exp(-iht) r_n on init_site's sublattice, exp(-iht) i r_n off it.

        Columns are init_site's sublattice first, then the other one; r is
        Re Z and Im Z of Z_n = sum over the upper half of exp(-i (E_j - h) t)
        times the pair weights, as two real GEMMs.
        """
        half = self._half
        step = _factored_step(times, self.dec.n_sites)
        if step is None:
            phases = np.exp(-1j * np.outer(times, half.offsets))
        else:
            coarse, fine = _phase_tables(half.offsets, times, step)
            phases = (coarse[:, None, :] * fine[None, :, :]).reshape(-1, half.offsets.size)
            phases = phases[: times.size]
        cosines, sines = np.ascontiguousarray(phases.real), np.ascontiguousarray(phases.imag)
        del phases
        rows = np.empty((times.size, self.dec.n_sites))
        np.matmul(cosines, half.weights[:, : self._n_own], out=rows[:, : self._n_own])
        np.matmul(sines, half.weights[:, self._n_own :], out=rows[:, self._n_own :])
        return rows


def _paired(half, times: np.ndarray) -> bool:
    """Whether a grid takes the upper half of a paired spectrum (module docstring)."""
    return half is not None and float(np.abs(times).max(initial=0.0)) >= half.min_time


def _even_step(times: np.ndarray):
    """Step dt of a 1-d grid equal to t_0 + k dt to rounding, else None."""
    count = times.size
    step = (times[-1] - times[0]) / (count - 1)
    ideal = times[0] + step * np.arange(count)
    tol = _EVEN_GRID_ULPS * np.finfo(float).eps * max(abs(times[0]), abs(times[-1]))
    if np.all(np.abs(times - ideal) <= tol):
        return step
    return None


def _factored_step(times: np.ndarray, n_levels: int):
    """Step of a grid worth factoring over n_levels energies, else None."""
    if times.ndim == 1 and times.size >= 6 and times.size * n_levels >= FACTORED_MIN_PHASES:
        return _even_step(times)
    return None


def _phase_tables(energies, times, step):
    """Coarse-anchor and fine-offset tables exp(-i E T_a), exp(-i E tau_b)."""
    n_fine = math.isqrt(times.size - 1) + 1
    coarse = np.exp(-1j * np.outer(times[::n_fine], energies))
    fine = np.exp(-1j * np.outer(step * np.arange(n_fine), energies))
    return coarse, fine


def _factored_amplitude(energies, weights, times, step) -> np.ndarray:
    """f_N on an even grid as (coarse anchors * weights) @ fine offsets."""
    coarse, fine = _phase_tables(energies, times, step)
    return ((coarse * weights) @ fine.T).ravel()[: times.size]


def transfer_amplitude(spectrum: TransferSpectrum, t):
    """End-to-end amplitude f_N(t) = <N| exp(-i H t) |1>; scalar or array t."""
    times = np.asarray(t, dtype=float)
    half = spectrum._half
    paired = _paired(half, times)
    if paired:
        energies, weights = half.offsets, half.weights
    else:
        energies, weights = spectrum.energies, spectrum.transfer_weights
    step = _factored_step(times, spectrum.n_sites)
    if step is not None:
        flat = _factored_amplitude(energies, weights, times, step)
    else:
        flat = np.exp(-1j * np.outer(times.ravel(), energies)) @ weights
    if paired:
        # site N sits on site 1's sublattice for odd N only
        part = flat.real if spectrum.n_sites % 2 else 1j * flat.imag
        flat = np.exp(-1j * half.centre * times.ravel()) * part
    if times.ndim == 0:
        return complex(flat[0])
    return flat.reshape(times.shape)


def fidelity(spectrum: TransferSpectrum, t):
    """Transfer fidelity F(t) = |f_N(t)|^2, clipped into [0, 1]."""
    amplitude = transfer_amplitude(spectrum, t)
    value = np.minimum(np.abs(amplitude) ** 2, 1.0)
    if np.ndim(t) == 0:
        return float(value)
    return value


def receiver_pair_density(amplitude: complex) -> np.ndarray:
    """Reduced density matrix of (ancilla, site N) in the Bell-pair protocol.

    The pair basis is {|uu>, |ud>, |du>, |dd>} with the ancilla first.  The
    phase of the untouched all-up chain component is taken as zero; only the
    coherence magnitude |f_N|/2 enters the concurrence.
    """
    f = complex(amplitude)
    population = min(abs(f) ** 2, 1.0)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 0.5 * (1.0 - population)
    rho[1, 1] = 0.5 * population
    rho[2, 2] = 0.5
    rho[1, 2] = 0.5 * f
    rho[2, 1] = 0.5 * np.conj(f)
    return rho


def concurrence_AN(spectrum: TransferSpectrum, t):
    """Concurrence between the ancilla and site N: |f_N(t)|, clipped to 1.

    This is the closed form of the Wootters concurrence of
    receiver_pair_density(f_N(t)); the tests check the two against each other.
    """
    value = np.minimum(np.abs(transfer_amplitude(spectrum, t)), 1.0)
    if np.ndim(t) == 0:
        return float(value)
    return value


def time_series(hamiltonian: TridiagonalHamiltonian, kind: SeriesKind, t_grid) -> TimeSeries:
    """Evaluate one observable from site 1 on a whole time grid; the solve follows the kind."""
    times = np.asarray(t_grid, dtype=float)
    kind = SeriesKind(kind)
    if kind is SeriesKind.IPR:
        propagator = Propagator(eigendecompose(hamiltonian), 1)
        if _paired(propagator._half, times):
            rows = propagator._sublattice_rows(times)  # real, |r_n| = |psi_n|
        else:
            rows = propagator.amplitude_matrix(times)
        values = ipr_of_rows(rows)
    elif kind is SeriesKind.FIDELITY:
        values = fidelity(transfer_spectrum(hamiltonian), times)
    elif kind is SeriesKind.TRANSFER_AMPLITUDE:
        values = transfer_amplitude(transfer_spectrum(hamiltonian), times)
    else:
        values = concurrence_AN(transfer_spectrum(hamiltonian), times)
    return TimeSeries(times=times, values=values, kind=kind)
