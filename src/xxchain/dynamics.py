"""Exact time evolution in the one-excitation sector.

Evolution is done in the eigenbasis: starting from site s,

    psi_n(t) = sum_j exp(-i E_j t) psi_n^(j) psi_s^(j),

which is exact for every t (hbar = 1).  The end-to-end transfer amplitude is
f_N(t) = <N| exp(-i H t) |1>, the transfer fidelity F = |f_N|^2 is the excited
population of the receiving spin, and the entanglement protocol that shares a
Bell pair between an uncoupled ancilla A and site 1 delivers concurrence
C_{A,N}(t) = |f_N(t)| between A and site N.

Every time grid is read as anchors T_a plus offsets tau_b (_phase_tables).
An evenly spaced 1-d grid t_k = t_0 + k dt of at least two samples writes
k = a n_b + b with about sqrt(len(t)) coarse anchors T_a = t_0 + a n_b dt
and fine offsets tau_b = b dt, so that

    f_N(T_a + tau_b) = sum_j [exp(-i E_j T_a) w_j] exp(-i E_j tau_b),
    w_j = psi_1^(j) psi_N^(j),

is one complex matrix product of shape (n_a x N) (N x n_b).  Both tables
are geometric in their row: the offsets are z^b with z = exp(-i E dt), the
anchors exp(-i E t_0) Z^a with Z = exp(-i E n_b dt).  Each is doubled from
one exponential row (_powers): rows [k, 2k) are rows [0, k) times the k-th
power, the square of the (k/2)-th.  That needs three rows of N complex
exponentials instead of len(t) N, and about (n_a + n_b) N complex
products; BLAS does the O(len(t) N) remainder.  The split is exact algebra
for any spectrum (no field, parity or chirality assumption); its round-off
is P below.  Any other t (a scalar, one sample, an uneven or a
multi-dimensional grid) has the single anchor 0, a row of ones, and every
sample as an offset: the same product then computes the
per-sample exponentials exp(-i E_j t_k), bit for bit.  The grid alone picks
the tables, whatever the number of levels; a NaN or infinite sample is a
ValueError before any arithmetic on t.  The site amplitudes, which need
every site and not only f_N, read the same two tables block by block,
exp(-i E_j t_k) = exp(-i E_j T_a) exp(-i E_j tau_b) (_site_row_blocks).

Every chain the package builds has the constant diagonal h, so H - h is a
bipartite hopping matrix and its spectrum is chiral (Inui, Trugman and
Abrahams, PRB 49, 3190 (1994)): with D = diag((-1)^n), D (H - h) D = -(H - h),
so E_{N+1-j} - h = -(E_j - h) and psi^(N+1-j)_n = +-(-1)^n psi^(j)_n.  The
weights w_j = psi_n^(j) psi_s^(j) of a pair then differ by the sign
(-1)^(n - s), and from site s

    psi_n(t) = exp(-iht) Re Z_n(t)     on site s's sublattice,
    psi_n(t) = exp(-iht) i Im Z_n(t)   on the other one,
    Z_n(t) = sum over the upper half of exp(-i (E_j - h) t) (w_j + (-1)^(n - s) w_{N+1-j}),

where the upper half is the levels floor(N/2) + 1 .. N, each with the
weight of its pair (2 w_j on a paired spectrum), and odd N adds its zero
mode (E = h, its own partner) with w alone.  In particular
f_N = exp(-iht) Re Z_N for odd N and exp(-iht) i Im Z_N for even N.  The
kernels above run unchanged on the upper half: half the table rows of
transfer_amplitude (and so of fidelity, concurrence_AN, the landscape and
the optimizer).  fidelity and concurrence_AN read |f_N| as |Re Z_N| or
|Im Z_N| (_transfer_sum) and never form exp(-iht): on the upper half h
enters them only through the rounding of E_j - h.  The running IPR of time_series needs only
|psi_n|^2, so it reads the real rows Re Z and Im Z, two real
(block x N/2)(N/2 x N/2) GEMMs per block of whole anchors of at most
BLOCK_ROWS times (_site_row_blocks), and builds no len(t) x N table;
amplitude_matrix fills its output from the same blocks, times their
phases.  Timings are in CHANGES.md.

The pairing is checked on the computed spectrum, not assumed.  Each kernel
rounds every phase E_j t to about eps |E_j t|, so its own round-off is
R = eps max|E| max|t| W, with W = max_n sum_j |w_j| (one column n per site
amplitude, or the single column of f_N).  The doubled tables of an even
grid add

    P = (n_a + n_b) (1 + sqrt 2) eps W:

offset row b carries b times the rounding of z (an exponential, within
eps) and of one complex product (within sqrt 2 eps; Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., section 3.6), anchor row a
a times that of Z, and the start row and the final product once.  A
product of rounded factors is no more accurate for being taken in log2 n
steps (ibid., section 3.1): squaring doubles the error of its factor, so P
grows with n_a + n_b, about 2 sqrt(len(t)), while R grows with max|t|.
Both tables read t_0 + k dt, which the grid test admits within
_EVEN_GRID_ULPS ulps of max|t| of t_k, that is within _EVEN_GRID_ULPS R.

Replacing E_{N+1-j} by 2h - E_j and dropping the part of each pair that the
sublattice projection drops, (w_{N+1-j} - (-1)^(n - s) w_j) i sin((E_j - h) t),
moves every amplitude by at most

    B = max|t| W dE + dw,   dE = max_j |E_j + E_{N+1-j} - 2h|,
                            dw = max_n 1/2 sum_j |w_{N+1-j} - (-1)^(n - s) w_j|

(h is the midrange of the pair sums; the zero mode's terms are in both
sums).  A grid takes the upper half only when B <= PAIRING_ROUNDOFF R.  The
share of dE in B / R is dE / (eps max|E|) at every t.  dE adds the errors
of two computed levels, and the level errors of a backward-stable
tridiagonal solve accumulate like sqrt(N) eps max|E| over its O(N) steps, so
dE is about 2 sqrt(N) eps max|E|; the multiple 64 = 2 sqrt(1024) admits it
for every chain up to 1,024 sites (measured: dE is at most 4 eps max|E| on
single-impurity and mirror chains up to N = 400).  The share of dw does not
grow with t and falls as 1 / max|t|; it is what refuses degenerate levels,
whose eigenvectors LAPACK returns in a basis that need not pair (the even-N
alpha = 0 pair at E = h).  The pair weights keep the cancellation of a
near-degenerate pair's eigenvector rotation (with 2 w_j instead, f_N of an
N = 47 chain with bonds 7 and 40 at 1e-4 missed the full sum by 4.3e-12).
A mirror chain read from its phase equation has dw = 0.
Under the guard the upper-half sum is within (1 + PAIRING_ROUNDOFF) R of the
exact sum over the computed spectrum, where the full sum is within R (on an
even grid both add P).  Each kernel call measures dE, dw and W and checks
its own max|t| (_upper_half).
A spectrum whose dE alone exceeds the multiple (a generic non-constant
diagonal), and a grid whose max|t| is too short, take the full sum above,
with its bytes.

transfer_amplitude, fidelity and concurrence_AN read only the energies E_j
and the weights w_j, so they take the TransferSpectrum of
spectral.transfer_spectrum, which reads a mirror chain from its phase equation.
time_series picks the solve per observable: transfer_spectrum for the three
f_N kinds, so a given matrix has one f_N(t) whoever asks, and eigendecompose
for the running IPR, whose site rows need every site and every eigenpair.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .chain import TridiagonalHamiltonian, _frozen
from .errors import BadSite
from .measures import ipr_of_rows
from .spectral import SpectralDecomposition, TransferSpectrum, eigendecompose, transfer_spectrum

# An even grid may differ from t_0 + k dt by this many ulps of max|t|.
_EVEN_GRID_ULPS = 8
# The time kernels sum over the upper half of a chirally paired spectrum when
# the pairing's error bound is within this many units of their own round-off;
# the bound and the derivation of the multiple are in the module docstring.
PAIRING_ROUNDOFF = 64
# Times per block of the site-amplitude kernel, a cache budget: at N = 200 a
# block's phase, cosine, sine and row arrays take about 1 MiB of a 4 MiB L2.
BLOCK_ROWS = 256


# The values are the names `evolve --kind` accepts.
class SeriesKind(enum.Enum):
    IPR = "ipr"
    FIDELITY = "fidelity"
    TRANSFER_AMPLITUDE = "amplitude"
    CONCURRENCE_AN = "concurrence"


@dataclass(frozen=True)
class TimeSeries:
    """One value per time on a finite, strictly ascending grid."""

    times: np.ndarray
    values: np.ndarray
    kind: SeriesKind

    def __post_init__(self):
        times = _series_grid(self.times)
        values = np.asarray(self.values)
        if values.shape != times.shape:
            raise ValueError("times and values must have matching lengths")
        _frozen(self, times=times, values=values)


def _series_grid(t_grid) -> np.ndarray:
    """t_grid as a float array; ValueError unless it is nonempty, 1-d, finite and strictly ascending."""
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("time grid must be a nonempty 1-d array")
    if not np.isfinite(times).all() or np.any(np.diff(times) <= 0.0):
        raise ValueError("time grid must be finite and strictly ascending")
    return times


def amplitude_matrix(dec: SpectralDecomposition, times, init_site: int = 1) -> np.ndarray:
    """Site amplitudes from a delta on init_site for every time: shape (times.size, N).

    This is the one route to site amplitudes: the state at a single time t is
    the plain array amplitude_matrix(dec, [t])[0].  init_site must lie in
    1..N (BadSite).
    """
    times = np.asarray(times, dtype=float)
    flat = times.ravel()
    amplitudes = np.empty((flat.size, dec.n_sites), dtype=complex)
    for start, rows, centre in _site_row_blocks(dec, times, init_site):
        block = amplitudes[start : start + len(rows)]
        if centre is None:
            block[...] = rows
            continue
        phase = np.exp(-1j * centre * flat[start : start + len(rows)])[:, None]
        own = block[:, (init_site - 1) % 2 :: 2]  # views of the two sublattices
        own[...] = rows[:, : own.shape[1]] * phase
        block[:, init_site % 2 :: 2] = rows[:, own.shape[1] :] * (1j * phase)
    return amplitudes


def _site_row_blocks(dec: SpectralDecomposition, times: np.ndarray, init_site: int):
    """(start, rows, h or None) per block: amplitudes from init_site at t.flat[start:][:len(rows)].

    A block is whole anchors of _phase_tables times every offset, at most
    BLOCK_ROWS times; a longer anchor is cut into runs of offsets.  A grid
    that takes the upper half (_upper_half) gets real rows r_n, with
    psi_n(t) = exp(-iht) r_n on init_site's sublattice and exp(-iht) i r_n
    off it, init_site's sublattice in the first columns: Re Z_n and Im Z_n as
    two real GEMMs into reused buffers, valid until the next block is read.
    Any other grid gets the complex psi_n(t) in site order.
    """
    n_sites = dec.n_sites
    if not 1 <= init_site <= n_sites:
        raise BadSite(f"init_site must be in 1..{n_sites}, got {init_site}")
    if not times.size:
        return
    even = _even_grid(times)
    # weight of eigenstate j in the initial delta state
    weights = dec.vectors[:, init_site - 1]
    n_own = (n_sites + init_site % 2) // 2
    products = dec.vectors * weights[:, None]
    products = np.hstack((products[:, (init_site - 1) % 2 :: 2], products[:, init_site % 2 :: 2]))
    signs = np.where(np.arange(n_sites) < n_own, 1.0, -1.0)
    half = _upper_half(dec.energies, products, signs, times)
    centre, energies, pair_weights = half or (None, dec.energies, None)
    coarse, fine = _phase_tables(energies, times, even)
    if half is None:
        coarse = coarse * weights  # the full sum carries the weights on the anchors
    else:  # buffers for the longest block
        cosines, sines = np.empty((2, min(times.size, BLOCK_ROWS), energies.size))
        rows = np.empty((len(cosines), n_sites))
    n_fine = fine.shape[0]
    anchors, span = max(1, BLOCK_ROWS // n_fine), min(n_fine, BLOCK_ROWS)
    for a in range(0, coarse.shape[0], anchors):
        for b in range(0, min(n_fine, times.size - a * n_fine), span):
            start = a * n_fine + b
            phases = (coarse[a : a + anchors, None] * fine[None, b : b + span]).reshape(-1, energies.size)
            phases = phases[: times.size - start]
            if half is None:
                yield start, phases @ dec.vectors, None
                continue
            count = len(phases)
            np.copyto(cosines[:count], phases.real)
            np.copyto(sines[:count], phases.imag)
            np.matmul(cosines[:count], pair_weights[:, :n_own], out=rows[:count, :n_own])
            np.matmul(sines[:count], pair_weights[:, n_own:], out=rows[:count, n_own:])
            yield start, rows[:count], centre


def _upper_half(energies, products, signs, times):
    """(h, E_j - h, pair weights) of the upper half, or None where the grid takes the full sum.

    products[j] holds the weights w_j of level j (one column per amplitude),
    signs the sign (-1)^(n - s) each column takes under the pairing.  The
    grid pairs when B <= PAIRING_ROUNDOFF R (module docstring), that is when
    max|t| >= dw / (W slack) with slack = PAIRING_ROUNDOFF eps max|E| - dE.
    """
    sums = energies + energies[::-1]
    low, high = float(sums.min()), float(sums.max())
    slack = PAIRING_ROUNDOFF * np.finfo(float).eps * float(np.abs(energies).max()) - 0.5 * (high - low)
    if not slack > 0.0:
        return None
    defect = 0.5 * float(np.abs(products[::-1] - signs * products).sum(axis=0).max())
    norm = float(np.abs(products).sum(axis=0).max())
    if defect and float(np.abs(times).max(initial=0.0)) < defect / (norm * slack):
        return None
    centre = 0.25 * (low + high)
    upper = energies.size // 2
    weights = products[upper:] + signs * products[: energies.size - upper][::-1]
    if energies.size % 2:
        weights[0] *= 0.5  # the zero mode of odd N is its own partner
    return centre, energies[upper:] - centre, weights


def _even_grid(times) -> bool:
    """Whether t is an even 1-d grid of at least 2 samples: t_0 + k dt within _EVEN_GRID_ULPS ulps of max|t|.

    ValueError if a sample is NaN or infinite.  Every sample of an even grid
    lies within the tolerance of a finite t_0 + k dt, so only the samples of
    an uneven t are checked one by one.
    """
    count = times.size
    if times.ndim == 1 and count >= 2 and math.isfinite(times[0]) and math.isfinite(times[-1]):
        step = (times[-1] - times[0]) / (count - 1)
        ideal = times[0] + step * np.arange(count)
        tol = _EVEN_GRID_ULPS * np.finfo(float).eps * max(abs(times[0]), abs(times[-1]))
        if np.all(np.abs(times - ideal) <= tol):
            return True
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    return False


def _phase_tables(energies, times, even=None):
    """Anchor and offset tables exp(-i E T_a), exp(-i E tau_b) whose products cover t.

    An even grid (_even_grid, which refuses a non-finite t; even passes its
    verdict when the caller has it) gets about sqrt(len(t)) complex anchors
    t_0 + a n_b dt and offsets b dt, each table doubled from one exponential
    row (_powers); any other t the single real anchor row of ones and every
    sample as an offset.
    """
    if even is None:
        even = _even_grid(times)
    if not even:
        return np.ones((1, energies.size)), np.exp(-1j * np.outer(times, energies))
    count = times.size
    step = (times[-1] - times[0]) / (count - 1)
    n_fine = math.isqrt(count - 1) + 1
    coarse = _powers(np.exp(-1j * times[0] * energies), np.exp(-1j * (n_fine * step) * energies),
                     (count - 1) // n_fine + 1)
    return coarse, _powers(1.0, np.exp(-1j * step * energies), n_fine)


def _powers(first, base, count):
    """Rows first * base^k for k < count, by doubling: rows [k, 2k) are rows [0, k) times base^k."""
    table = np.empty((count, base.size), dtype=complex)
    table[0] = first
    k = 1
    while k < count:
        rows = table[k : 2 * k]
        np.multiply(table[: len(rows)], base, out=rows)
        k *= 2
        if k < count:
            base = base * base
    return table


def _transfer_sum(spectrum: TransferSpectrum, times: np.ndarray, even=None):
    """f_N over times.flat as (s, h), with f_N = s where the grid takes the full sum (h None).

    even is _phase_tables' grid verdict, None to decide it here.

    On the upper half s is real, f_N = exp(-iht) s for odd N and exp(-iht) i s
    for even N: site N sits on site 1's sublattice for odd N only.
    """
    if even is None:
        even = _even_grid(times)
    sign = 1.0 if spectrum.n_sites % 2 else -1.0  # (-1)^(N - 1)
    half = _upper_half(spectrum.energies, spectrum.transfer_weights, sign, times)
    if half is None:
        energies, weights = spectrum.energies, spectrum.transfer_weights
    else:
        centre, energies, weights = half
    # (anchors * weights) @ offsets: no len(t) x N table on an even grid
    coarse, fine = _phase_tables(energies, times, even)
    flat = ((coarse * weights) @ fine.T).ravel()[: times.size]
    if half is None:
        return flat, None
    return (flat.real if spectrum.n_sites % 2 else flat.imag), centre


def transfer_amplitude(spectrum: TransferSpectrum, t):
    """End-to-end amplitude f_N(t) = <N| exp(-i H t) |1>; scalar or array t."""
    times = np.asarray(t, dtype=float)
    flat, centre = _transfer_sum(spectrum, times)
    if centre is not None:
        part = flat if spectrum.n_sites % 2 else 1j * flat
        flat = np.exp(-1j * centre * times.ravel()) * part
    if times.ndim == 0:
        return complex(flat[0])
    return flat.reshape(times.shape)


def fidelity(spectrum: TransferSpectrum, t, *, _even=None):
    """Transfer fidelity F(t) = |f_N(t)|^2, clipped into [0, 1].

    _even is _even_grid(t) from a caller that reads one grid for many spectra.
    """
    times = np.asarray(t, dtype=float)
    value = np.minimum(np.abs(_transfer_sum(spectrum, times, _even)[0]) ** 2, 1.0).reshape(times.shape)
    if times.ndim == 0:
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
    times = np.asarray(t, dtype=float)
    value = np.minimum(np.abs(_transfer_sum(spectrum, times)[0]), 1.0).reshape(times.shape)
    if times.ndim == 0:
        return float(value)
    return value


def time_series(hamiltonian: TridiagonalHamiltonian, kind: SeriesKind, t_grid) -> TimeSeries:
    """Evaluate one observable from site 1 on a whole time grid; the solve follows the kind."""
    times = _series_grid(t_grid)
    kind = SeriesKind(kind)
    if kind is SeriesKind.IPR:
        values = np.empty(times.size)
        for start, rows, _ in _site_row_blocks(eigendecompose(hamiltonian), times, 1):
            values[start : start + len(rows)] = ipr_of_rows(rows)  # |rows| = |psi_n|
    elif kind is SeriesKind.FIDELITY:
        values = fidelity(transfer_spectrum(hamiltonian), times)
    elif kind is SeriesKind.TRANSFER_AMPLITUDE:
        values = transfer_amplitude(transfer_spectrum(hamiltonian), times)
    else:
        values = concurrence_AN(transfer_spectrum(hamiltonian), times)
    return TimeSeries(times=times, values=values, kind=kind)
