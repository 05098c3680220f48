"""Exact diagonalization of the sector Hamiltonian and spectrum analysis.

The homogeneous-chain magnon energies fill the band h - 2|J| <= E <= h + 2|J|
(a uniform field h shifts every level by h).  A strong enough edge impurity
splits one level below and one above the band; classify_band is the one
band rule, and the critical strength where the lowest level exits the band
is found here by bisection on that rule's label for state 1.  The derivative
of an eigenvalue with respect to the impurity strength follows from the
Hellmann-Feynman theorem and only needs the eigenvector's first two
components:

    dE_j / dalpha = 2 J psi_1 psi_2

eigendecompose can return a contiguous range of states lo..hi instead of
all N.  A range of k states with k * SELECT_SITES_PER_STATE <= N is solved
by LAPACK bisection and inverse iteration (scipy's eigh_tridiagonal with
select="i"), at about O(k N) cost for separated levels; a wider range takes
the full O(N^2) solve and is sliced, because selection then costs more than
it saves.  Either way each returned vector gets the same sign convention and
residual check, with max|E| taken over the returned energies.  Measured with timeit (best of 9, 1 BLAS
thread, 2-vCPU x86-64 VM) on single-impurity and mirror chains for ranges at
the band edge and at the band centre, selection is faster for every k up to
N/16 at N = 24-800 (one state: 0.18 ms against 2.2 ms at N = 200, 0.49 ms
against 43 ms at N = 800); at N/12 mid-band mirror ranges already lose by up
to 17%, at N/6 by up to 2.2x.

Every f_N(t) = sum_j exp(-i E_j t) psi_1^(j) psi_N^(j) in the package
(evolve, the landscape, the optimizer, the oracle check) reads the energies
and weights of transfer_spectrum, and every mirror chain is palindromic: diag and offdiag equal their own
reverses, so H commutes with the reflection n -> N+1-n.  transfer_spectrum
tests for that (exact array equality) and then solves the two parity blocks
in the basis (|n> +- |N+1-n>)/sqrt(2), n = 1..floor(N/2):

    even N: two blocks of size N/2, the same as H[1..N/2] except that the
            last diagonal entry is h +- J_{N/2} (J_{N/2} couples the two
            middle sites);
    odd N:  the even block has size (N+1)/2 and joins the middle site to
            site (N-1)/2 through sqrt(2) J_{(N-1)/2}; the odd block is
            H[1..(N-1)/2], since the middle site carries no odd amplitude.

An even block eigenvector phi has psi_1 = psi_N = phi_1/sqrt(2), an odd one
psi_1 = -psi_N = phi_1/sqrt(2), so the transfer weight is +phi_1^2/2 for
even and -phi_1^2/2 for odd states.  The change of basis is orthogonal, so
each block's residual equals the full one.  Any other matrix takes
eigendecompose, and its weights are psi_1 psi_N read off the first and last
eigenvector components.

The impurity strength enters each block only through its border
b = offdiag[0], so a block is site 1 (diagonal d_1) bordering the
alpha-independent bulk block[1:, 1:] (the edge-bond secular equation of
Wojcik et al., PRA 72, 034303 (2005); the bordered eigenproblem of Gu and
Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172 (1995)).  With the bulk modes
mu_k and their first components z_k, every block energy E is a root of

    g(E) = E - d_1 - b^2 S_1,   S_1 = sum_k z_k^2 / (E - mu_k),

and the first component of its unit eigenvector is

    phi_1^2 = 1 / (1 + b^2 sum_k z_k^2 / (E - mu_k)^2) = 1 / g'(E).

Each bulk is solved once with eigenvectors (eigh_tridiagonal and the
residual check of eigendecompose), and mu_k, z_k^2 and the bulk residual
are kept in a two-entry cache keyed on the bulk's bytes, which holds one
mirror chain's two parity bulks for all the alphas of a sweep.  Per alpha a
block takes its eigenvalues only (LAPACK dsterf) and refines them.  g' and
S_1 are ruled by the mode nearest E, and E - mu_k formed from a stepped E
keeps only the absolute accuracy eps |E|, all of the difference for a level
within ~1e-12 of its mode (small alpha, band edges, tiny inner bonds): one
plain Newton step missed f_N by 4e-11 on an N = 3 mirror chain at
alpha = 1e-6, and C_12 of band-edge states by 2.1e-3 relative at N = 400,
alpha = 0.00069.  The refinement therefore
works in offset form (R.-C. Li, LAPACK Working Note 89, as in dlaed4): the
differences E - mu_k are formed once from the dsterf energies, exact
(Sterbenz) wherever a level is close to a mode, tau = E - p with p the
nearer of the two modes that bracket E is carried beside them, and each
Newton step on

    g(tau) = (p - d_1) + tau - b^2 sum_k z_k^2 / (E - mu_k)

is subtracted from tau and from every difference, until every step is
within OFFSET_STEP_TOL units of round-off.  That takes two evaluations for
most alphas and up to 6 at N = 400-800, alpha < 1e-3, where dsterf leaves a
level next to its mode with little of tau right; the cap is
OFFSET_STEPS_MAX.  phi_1^2, g and S_1 are read at the last tau, and the
block is kept only if

    the E_j and the mu_k interlace strictly,
    |sum_j phi_1^2 - 1| <= COMPLETENESS_TOL, and
    max_j phi_1 |g(E_j)| + sqrt(m) (bulk residual) <= RESIDUAL_TOL (max|E| + 1),

where the left side of the last line bounds ||H v_j - E_j v_j|| for the unit
vectors v_j that the bulk modes imply (m bulk sites); it is the block's
residual_bound.  That bound does not see a level that has lost digits next
to a mode which barely touches site 1: on chains with a mirror pair of
impurity bonds at alpha = 1e-3 to 3e-9 (N = 3-60), every chain whose f_N
missed by more than 1e-12 (up to 1.3e-8; all with inner bonds) had a
residual bound below 2.2e-14, but missed completeness by at least 838 eps,
where the blocks of the canonical studies and of mirror and bond-1 chains up
to N = 800 stay within 6 eps.  A one-site block (N = 2, the odd block of
N = 3) is exact: E = d_1, phi_1^2 = 1, S_1 = 0, bound 0.  A zero border
(alpha = 0, site 1 decoupled), a failed bulk or eigenvalue solve, a
refinement that does not converge or a failed check refuses the block, and
its caller takes eigendecompose, which raises ConvergenceFailure if it
fails too.

transfer_spectrum reads the weights +-phi_1^2/2 of the two parity blocks.
A chain that is not palindromic or has a refused block takes
eigendecompose instead, so transfer_spectrum has two routes; no mirror
chain with N = 3-800, alpha = 0.001-10 and three (J, h) is refused.  f_N(t)
agrees with the full eigendecomposition to 2e-13 for N = 31-400,
alpha = 0.005-3 and three (J, h).

A chain whose only impurity is bond 1 needs no solver at all
(first_bond_c12, eigenstate_ipr).  With a constant diagonal h, bulk bonds
J = offdiag[1:] and b = alpha J = offdiag[0] (the edge-bond secular
equation of Wojcik et al.; the closed forms of W.-C. Yueh, Appl. Math.
E-Notes 5, 66 (2005)), put E = h + 2J cos theta.  Rows 2..N of
H psi = E psi then give

    psi_n = sin((N + 1 - n) theta),  n >= 2,   psi_1 = sin(N theta) / alpha,

and row 1 quantizes theta:

    F(theta) = alpha^2 sin((N - 1) theta) - 2 cos theta sin(N theta) = 0,
    i.e. G(theta) = N theta + beta - k pi = 0,  beta = atan2(q, p),
    p = (2 - alpha^2) cos theta,  q = alpha^2 sin theta,  R^2 = p^2 + q^2.

At a root sin(N theta) = +-q / R and sin((N - 1) theta) = +-sin(2 theta) / R,
so |psi_1| = alpha sin theta / R, |psi_2| = |sin 2 theta| / R, and the
Dirichlet sums over n >= 2 close without any large argument N theta:

    S_2 = (N - 1) / 2 + p cos theta / R^2,
    S_4 = 3 (N - 1) / 8 + p cos theta / R^2
          - (p cos theta - q sin theta) (p^2 - q^2) / (4 R^4),
    IPR = (S_2 + psi_1^2)^2 / (S_4 + psi_1^4),
    C_12 = 2 |psi_1 psi_2| / (S_2 + psi_1^2),

O(1) per state.  The roots interlace strictly with the bulk modes k pi / N:
beta lies in (0, pi/2] for alpha^2 <= 2 and in [pi/2, pi) above, so root k
lies in [(k - 1/2) pi / N, k pi / N) or ((k - 1) pi / N, (k - 1/2) pi / N].
G is convex on (0, pi/2] for alpha^2 < 1 and alpha^2 > 2 and concave for
1 < alpha^2 < 2, so Newton started at the right (convex) or left (concave)
end of the bracket moves monotonically onto the root; a step that would
leave the bracket bisects it instead.  For alpha^2 > 2 state 1 solves
tan(N theta) = kappa tan theta, kappa = alpha^2 / (alpha^2 - 2): it lies in
(0, pi / (2N)) while alpha^2 < alpha_c^2 = 2N / (N - 1) (kappa > N) and on
theta = i eta above, below the band with e^(2 eta) -> alpha^2 - 1.  Its
trivial root theta = 0 is divided out:

    U(t) = atan(tan(N theta) / kappa) / theta - 1,   t = theta^2 > 0,
    U(t) = atanh(tanh(N eta) / kappa) / eta - 1,     t = -eta^2 < 0,

is one increasing function of t through the band edge t = 0; Newton in t
starts from the better of a line through U(0) and the far-side limit.
Newton in theta from pi / (2N) took 16-21 steps at N = 200,
alpha_c - 1e-7 and - 1e-9.  Roots above pi/4 are solved for
d = pi/2 - theta, so cos theta = sin d keeps its digits next to the band
centre (in theta the centre pair of even N lost 2e-11 of its IPR at
alpha = 5e-4).  Newton stops once |G| (or |U|) is within PHASE_STEP_TOL eps
of the magnitudes it sums, which took at most 6 evaluations for N = 2-800
and alpha = 1e-6-1000, alpha_c +- 1e-13 and sqrt2 +- 1e-12 included; a
root still outside after PHASE_STEPS_MAX evaluations refuses the chain.

The chain is bipartite with a constant diagonal, so state N + 1 - j has the
same |psi_n| as state j and E - h negated.  Only theta <= pi/2 is solved:
the roots min(j, N + 1 - j) of the states lo..hi, at most ceil(N/2).  J < 0
makes ascending E ascending theta and J > 0 reverses it; with the pairing
both give E_j = h - 2|J| cos theta_j for j <= N/2 and
h + 2|J| cos theta_(N+1-j) above.  For odd N state (N + 1)/2 is
theta = pi/2 exactly, where the closed form of S_4 is 0/0.

The closed forms lose about cond = sum |terms| / S units of round-off,
and a direct sum of the N positive terms sin^2, sin^4 at most about N.
S_2 can cancel only if p cos theta / R^2 >= -1 / (alpha^2 - 2) reaches
-(N - 1)/2, which needs 2 < alpha^2 <= alpha_c^2 and q << p, theta << 1/N:
state 1 near alpha_c, where the terms, of size N, cancel to
S ~ N^3 theta^2 without bound (2e-8 relative at N = 200, alpha_c - 1e-7).
For every other root cond stayed below 1.5, S_4 included (N = 2-800,
alpha = 0.001-5).  State 1 beyond alpha^2 = 2 is therefore always summed
directly, O(N) for one state, in the band and below it, where its terms
sinh(m eta) are scaled by exp(-N eta); so is the theta = pi/2 state of
odd N.

Every returned state passes two checks, or the chain is refused: its root
lies strictly inside ((k - 1) pi / N, k pi / N) (state 1: 0 < theta < pi/N,
or eta > 0), and the row-1 residual |J| |alpha psi_2 - 2 cos theta psi_1| /
||psi|| of psi_1 = sin(N theta) / alpha and psi_2 = sin((N - 1) theta),
evaluated directly, is within RESIDUAL_TOL (max|E| + 1).  Rows 2..N hold by
construction, so that is ||H v - E v|| of the unit vector the root implies;
round-off in N theta makes it about eps N / alpha, which refuses
alpha <= 1e-5 at N = 200 and <= 3e-5 at N = 400-800.  alpha = 0, N = 1,
any other matrix and a refused chain take eigendecompose(H, (lo, hi)).

Against 40-digit roots of F (N = 40, 41, 200; alpha = 5e-5-3 with
alpha_c +- 1e-7, +- 1e-9 and sqrt2 +- 1e-3; three (J, h)) the phase route
is within 6.4e-15 relative on IPR and 1.6e-14 on C_12, eigendecompose
within 2.4e-11 and 5.7e-10.  Per alpha (timeit best of 5, 1 BLAS thread,
2-vCPU x86-64 VM, alpha = 0.005-3) all states take 0.20-0.25 ms at
N = 100-200 and 0.27-0.41 ms at N = 400-800, against 0.8, 3.0, 13 and
55 ms for eigendecompose and IPR; one state takes 0.11-0.24 ms at
N = 200 against 0.17-0.21 ms for a selected eigendecompose (0.11-0.32 and
0.30-0.64 ms at N = 400-800).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal, eigvalsh_tridiagonal

from .chain import ChainSpec, TridiagonalHamiltonian, _tridiagonal_matvec, build_hamiltonian, with_alpha
from .errors import ConvergenceFailure, NoBracket, TooSmallN, WrongConfiguration

# Leading coefficients smaller than this are skipped by the sign convention.
SIGN_EPS = 1e-12
# Residual contract: max_j ||H v_j - E_j v_j|| <= RESIDUAL_TOL * (max|E| + 1).
RESIDUAL_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
# A bordered block is kept only if its weights phi_1^2 sum to 1 within this.
# The weights are positive and each is 1 / g' with g' a sum of m positive
# terms, so rounding moves their sum by about sqrt(m) eps (at most 6 eps
# measured up to N = 800); 64 eps = 2 sqrt(1024) eps allows blocks of up to
# 1,024 sites.  A level that has lost digits next to a mode misses by
# hundreds of eps (module docstring).
COMPLETENESS_TOL = 64 * _EPS
# Band boundary tolerance: energies this close to h +- 2|J| count as in-band.
BAND_EDGE_TOL = 1e-9
# eigendecompose selects a range of k states when k * SELECT_SITES_PER_STATE
# <= N and solves fully otherwise; measured crossover in the module docstring.
SELECT_SITES_PER_STATE = 16
# The offset-form Newton steps of a bordered block stop once every step is at
# most OFFSET_STEP_TOL eps (|tau| + (|p - d_1| + |tau|) / g'), a few units of
# round-off in tau; a level still moving after OFFSET_STEPS_MAX evaluations
# refuses the block.
OFFSET_STEP_TOL = 4.0
OFFSET_STEPS_MAX = 12
# The Newton steps of the bond-1 phase route stop once |G| is at most
# PHASE_STEP_TOL eps times the magnitudes that G sums, a few units of
# round-off in theta; a root still outside that after PHASE_STEPS_MAX
# evaluations refuses the chain.
PHASE_STEP_TOL = 4.0
PHASE_STEPS_MAX = 12


class BandLabel(enum.Enum):
    IN_BAND = "in_band"
    ISOLATED_BELOW = "isolated_below"
    ISOLATED_ABOVE = "isolated_above"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues with orthonormal, sign-fixed eigenvectors.

    vectors[j] is the eigenvector belonging to energies[j]; its first
    coefficient with modulus above SIGN_EPS is positive.  A decomposition may
    hold a contiguous range of states only: energies[0] is then the 1-based
    state first_state, so state j sits at index j - first_state.
    """

    energies: np.ndarray
    vectors: np.ndarray
    residual_bound: float
    first_state: int = 1

    def __post_init__(self):
        energies = np.asarray(self.energies, dtype=float)
        vectors = np.asarray(self.vectors, dtype=float)
        energies.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "vectors", vectors)

    @property
    def n_sites(self) -> int:
        """Chain length N, also when only some states are held."""
        return self.vectors.shape[1]


@dataclass(frozen=True)
class TransferSpectrum:
    """Ascending energies E_j with their transfer weights psi_1^(j) psi_N^(j).

    This is all that f_N(t) = sum_j exp(-i E_j t) psi_1^(j) psi_N^(j) needs;
    transfer_spectrum computes it, for a mirror chain without eigenvectors of H.
    """

    energies: np.ndarray
    transfer_weights: np.ndarray
    residual_bound: float

    def __post_init__(self):
        for name in ("energies", "transfer_weights"):
            array = np.asarray(getattr(self, name), dtype=float)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n_sites(self) -> int:
        return self.energies.size


def eigendecompose(
    hamiltonian: TridiagonalHamiltonian, states: tuple[int, int] | None = None
) -> SpectralDecomposition:
    """Eigendecomposition with a fixed sign convention.

    states=(lo, hi) returns only the 1-based eigenpairs lo..hi (inclusive);
    None returns all of them.  Ranges of at most N / SELECT_SITES_PER_STATE
    states are solved by bisection and inverse iteration, wider ones by a
    full solve that is then sliced.  Raises ConvergenceFailure if the solver
    fails or a returned pair misses the residual bound
    RESIDUAL_TOL * (max|E| + 1), max over the returned energies.
    """
    n = hamiltonian.n_sites
    lo, hi = _state_range(n, states)
    diag, offdiag = hamiltonian.diag, hamiltonian.offdiag
    if (hi - lo + 1) * SELECT_SITES_PER_STATE <= n:
        energies, vectors = _eigh_rows(diag, offdiag, select="i", select_range=(lo - 1, hi - 1))
    else:
        energies, vectors = _eigh_rows(diag, offdiag)
        energies, vectors = energies[lo - 1 : hi], vectors[lo - 1 : hi]

    count = vectors.shape[0]
    lead = np.argmax(np.abs(vectors) > SIGN_EPS, axis=1)
    signs = np.sign(vectors[np.arange(count), lead])
    signs[signs == 0.0] = 1.0
    vectors *= signs[:, None]

    return SpectralDecomposition(
        energies=energies,
        vectors=vectors,
        residual_bound=_checked_residual(diag, offdiag, energies, vectors),
        first_state=lo,
    )


def _state_range(n: int, states: tuple[int, int] | None) -> tuple[int, int]:
    """1-based (lo, hi) of a state range; None is all n states, ValueError outside 1..n."""
    lo, hi = (1, n) if states is None else (int(states[0]), int(states[1]))
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"states must satisfy 1 <= lo <= hi <= {n}, got {states}")
    return lo, hi


def _eigh_rows(diag, offdiag, **select):
    """eigh_tridiagonal with the eigenvectors as contiguous rows."""
    try:
        energies, columns = eigh_tridiagonal(diag, offdiag, **select)
    except LinAlgError as exc:
        raise ConvergenceFailure(f"tridiagonal eigensolver failed: {exc}") from exc
    return energies, np.ascontiguousarray(columns.T)


def _checked_residual(diag, offdiag, energies, vectors) -> float:
    """max_j ||H v_j - E_j v_j||; ConvergenceFailure above RESIDUAL_TOL * (max|E| + 1)."""
    residual = _tridiagonal_matvec(diag, offdiag, vectors)
    residual -= energies[:, None] * vectors
    residual_bound = float(np.sqrt(np.max(np.sum(residual * residual, axis=1))))
    scale = float(np.max(np.abs(energies))) + 1.0
    if residual_bound > RESIDUAL_TOL * scale:
        raise ConvergenceFailure(
            f"residual {residual_bound:.3e} exceeds {RESIDUAL_TOL:.0e} * {scale:.3e}"
        )
    return residual_bound


def _parity_blocks(hamiltonian: TridiagonalHamiltonian):
    """(diag, offdiag, weight sign) of the even and the odd reflection block."""
    diag, offdiag = hamiltonian.diag, hamiltonian.offdiag
    half = hamiltonian.n_sites // 2
    inner = offdiag[: half - 1]
    if hamiltonian.n_sites % 2:
        joined = np.append(inner, np.sqrt(2.0) * offdiag[half - 1])
        return (diag[: half + 1], joined, 1.0), (diag[:half], inner, -1.0)
    even, odd = diag[:half].copy(), diag[:half].copy()
    even[-1] += offdiag[half - 1]
    odd[-1] -= offdiag[half - 1]
    return (even, inner, 1.0), (odd, inner, -1.0)


@functools.lru_cache(maxsize=2)
def _bulk_modes(diag_bytes: bytes, offdiag_bytes: bytes):
    """Modes mu_k, squared first components z_k^2 and checked residual of a bulk.

    Keyed on the bytes of the bulk's diag and offdiag: two entries hold one
    mirror chain's two parity bulks at every alpha of a sweep.
    """
    diag, offdiag = np.frombuffer(diag_bytes), np.frombuffer(offdiag_bytes)
    modes, vectors = _eigh_rows(diag, offdiag)
    bound = _checked_residual(diag, offdiag, modes, vectors)
    first = vectors[:, 0] ** 2
    modes.setflags(write=False)
    first.setflags(write=False)
    return modes, first, bound


def _refine(energies, site, border, modes, first):
    """(E, phi_1^2, g(E), S_1) from Newton steps in offset form, or None.

    p is the nearer of the two modes that bracket E in interlacing order.
    The differences E - mu_k are formed once and every step is subtracted
    from them and from tau = E - p, so a level next to its mode keeps the
    digits of tau (module docstring).  Everything is evaluated at the last
    tau, where the next step would stay within the round-off bound of
    OFFSET_STEP_TOL; None if some step is still larger after
    OFFSET_STEPS_MAX evaluations.
    """
    lower = np.concatenate(([-np.inf], modes))
    upper = np.concatenate((modes, [np.inf]))
    poles = np.where(energies - lower < upper - energies, lower, upper)
    offsets = poles - site
    spread = np.abs(offsets)
    tau = energies - poles
    gaps = energies[:, None] - modes
    border2 = border * border
    weighted = border2 * first
    inverse = np.empty_like(gaps)
    for _ in range(OFFSET_STEPS_MAX):
        np.reciprocal(gaps, out=inverse)
        total = inverse @ weighted
        inverse *= inverse
        slope = 1.0 + inverse @ weighted
        secular = offsets + tau - total
        step = secular / slope
        size = np.abs(tau)
        if (np.abs(step) <= OFFSET_STEP_TOL * _EPS * (size + (spread + size) / slope)).all():
            return poles + tau, 1.0 / slope, secular, total / border2
        tau -= step
        gaps -= step[:, None]
    return None


def _bordered_block(diag, offdiag):
    """(E, phi_1^2, S_1, residual bound) of a block from its bulk modes, or None.

    The dsterf energies are refined by _refine, and S_1 = sum_k
    z_k^2 / (E - mu_k) at the refined energies.  A one-site block is its own
    mode (E = d_1, phi_1^2 = 1, S_1 = 0, bound 0) and calls no solver.  None
    means the border is 0, the bulk or the eigenvalue solve failed, the
    refinement gave up or a check failed (module docstring); the bulk is not
    solved for a zero border.
    """
    if not offdiag.size:
        return diag, np.ones(1), np.zeros(1), 0.0
    if offdiag[0] == 0.0:
        return None
    try:
        modes, first, bulk_bound = _bulk_modes(diag[1:].tobytes(), offdiag[1:].tobytes())
        energies = eigvalsh_tridiagonal(diag, offdiag, lapack_driver="sterf")
    except (ConvergenceFailure, LinAlgError):
        return None
    with np.errstate(all="ignore"):  # a level on a mode fails the checks below
        refined = _refine(energies, diag[0], offdiag[0], modes, first)
        if refined is None:
            return None
        energies, weights, secular, sums = refined
        bound = float(np.max(np.sqrt(weights) * np.abs(secular))) + modes.size ** 0.5 * bulk_bound
    if (
        np.all(energies[:-1] < modes)
        and np.all(modes < energies[1:])
        and abs(float(np.sum(weights)) - 1.0) <= COMPLETENESS_TOL
        and bound <= RESIDUAL_TOL * (float(np.max(np.abs(energies))) + 1.0)
    ):
        return energies, weights, sums, bound
    return None


def _newton(evaluate, x, lo, hi):
    """Roots in [lo, hi] of an increasing function by Newton steps kept in the bracket.

    evaluate(x) returns the values, the slopes and the magnitudes each value
    is rounded against.  An entry whose |value| is within PHASE_STEP_TOL eps
    of its magnitude stays where it is; the others narrow their bracket to
    the sign of the value and take a Newton step, or bisect the bracket if
    the step would leave it.  x is returned once every entry has settled,
    None if some has not after PHASE_STEPS_MAX evaluations.
    """
    for _ in range(PHASE_STEPS_MAX):
        value, slope, scale = evaluate(x)
        settled = np.abs(value) <= PHASE_STEP_TOL * _EPS * scale
        if settled.all():
            return x
        lo = np.where(value < 0.0, x, lo)
        hi = np.where(value > 0.0, x, hi)
        step = x - value / slope
        x = np.where(settled, x, np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi)))
    return None


def _phase(x, upper, sign, offset, n, a2):
    """G of each root as an increasing function of its offset x, its slope and magnitude.

    x is theta, or d = pi/2 - theta where upper.  G = N theta + beta - k pi
    is then N x + beta - k pi, or -(N x - beta - (N - 2k) pi/2) where upper:
    N x + sign beta + offset with sign = +-1 and offset = -k pi or
    -(N - 2k) pi/2.
    """
    sin, cos = np.sin(x), np.cos(x)
    p, q = (2.0 - a2) * np.where(upper, sin, cos), a2 * np.where(upper, cos, sin)
    beta = np.arctan2(q, p)
    turn = n * x
    return turn + sign * beta + offset, n + a2 * (2.0 - a2) / (p * p + q * q), turn + beta - offset


def _edge_phase(t, n, kappa):
    """U(t) of state 1 for alpha^2 > 2, dU/dt and the magnitude of U's terms (module docstring)."""
    t = float(t[0])
    if t == 0.0:
        ratio = drive = n / kappa
        slope = n**3 * (kappa * kappa - 1.0) / (3.0 * kappa**3)
    else:
        root = math.sqrt(abs(t))
        x = n * root
        if t > 0.0:
            sin, cos = math.sin(x), math.cos(x)
            ratio = math.atan2(sin, kappa * cos) / root
            drive = n * kappa / ((kappa * cos) ** 2 + sin * sin)
        else:
            tanh = math.tanh(x)
            ratio = math.atanh(tanh / kappa) / root
            drive = n * kappa * (1.0 - tanh) * (1.0 + tanh) / ((kappa - tanh) * (kappa + tanh))
        slope = (drive - ratio) / (2.0 * t)
    return np.array([ratio - 1.0]), np.array([slope]), np.array([ratio + 1.0 + drive])


def _edge_root(n, a2):
    """t = theta^2 (or -eta^2) of state 1 for alpha^2 > 2, or None (module docstring).

    Newton starts from the better of two models: the line through U(0)
    with slope U'(0), right near alpha_c, and the far-side limit, right
    where the root is far from t = 0: theta = atan(kappa tan(pi/2N)) / N
    in the band, eta = atanh(1 / kappa) (e^(2 eta) = alpha^2 - 1) below it.
    """
    kappa = a2 / (a2 - 2.0)
    offset = n / kappa - 1.0  # U(0): above 0 state 1 has left the band
    if offset > 0.0:
        lo, hi = -math.atanh(1.0 / kappa) ** 2, 0.0
        far = lo
    elif offset < 0.0:
        lo, hi = 0.0, (0.5 * np.pi / n) ** 2
        far = (math.atan(kappa * math.tan(0.5 * np.pi / n)) / n) ** 2
    else:
        return None
    near = min(max(-offset * 3.0 * kappa**3 / (n**3 * (kappa * kappa - 1.0)), lo), hi)
    fits = []
    for t in (far, near):
        value = _edge_phase([t], n, kappa)[0][0]
        if value < 0.0:
            lo = max(lo, t)
        else:
            hi = min(hi, t)
        fits.append((abs(value), t))
    solved = _newton(lambda t: _edge_phase(t, n, kappa), np.array([min(fits)[1]]), lo, hi)
    return None if solved is None else float(solved[0])


def _phase_roots(roots, n, a2):
    """sin theta, cos theta and theta of the roots k <= ceil(N/2), and eta, or None.

    Roots above pi/4 are solved for d = pi/2 - theta, so cos theta = sin d
    keeps its digits next to the band centre.  theta is NaN at an exterior
    root 1, and eta is None if there is none.  None if a root is refused:
    Newton did not settle or the root is not strictly inside its
    interlacing interval ((k - 1) pi / N, k pi / N).
    """
    edge = roots[0] == 1 and a2 > 2.0
    upper = 4 * roots > n
    upper[0] &= not edge
    x, eta = np.zeros(roots.size), None  # odd N: state (N+1)/2 is theta = pi/2, d = 0
    solve = np.flatnonzero(2 * roots != n + 1)[int(edge):]
    if solve.size:
        k, up = roots[solve], upper[solve]
        unit = 0.5 * np.pi / n
        # the interlacing interval and the half of it that holds the root
        # (beta <= pi/2 for alpha^2 <= 2, beta >= pi/2 above), in units of x
        left = np.where(up, n - 2 * k, 2 * k - 2)
        lo = (left + (up == (a2 > 2.0))) * unit
        hi = lo + unit
        # G is convex in theta for alpha^2 < 1 and alpha^2 > 2, concave
        # between: start on the side from which Newton moves monotonically
        start = np.where(up == (not 1.0 <= a2 <= 2.0), lo, hi)
        if a2 < 1.0:
            # G rises by about pi/2 within kappa' = alpha^2 / (2 - alpha^2) of
            # pi/2, so the centre root of even N, d = sqrt(kappa' / (N d tan d))
            # at most, starts at d = sqrt(kappa' / N)
            start[2 * k == n] = min(unit, math.sqrt(a2 / ((2.0 - a2) * n)))
        sign = np.where(up, -1.0, 1.0)
        offset = np.where(up, n - 2 * k, 2 * k) * (-0.5 * np.pi)
        solved = _newton(lambda at: _phase(at, up, sign, offset, n, a2), start, lo, hi)
        if solved is None or not ((left * unit < solved) & (solved < (left + 2) * unit)).all():
            return None
        x[solve] = solved
    if edge:
        t = _edge_root(n, a2)
        if t is None or t == 0.0 or not -np.inf < t < (np.pi / n) ** 2:
            return None
        if t > 0.0:
            x[0] = math.sqrt(t)
        else:
            x[0], eta = np.nan, math.sqrt(-t)
    sin, cos = np.sin(x), np.cos(x)
    return np.where(upper, cos, sin), np.where(upper, sin, cos), np.where(upper, 0.5 * np.pi - x, x), eta


def _phase_states(hamiltonian: TridiagonalHamiltonian, lo: int, hi: int):
    """(E, IPR, C_12) of the states lo..hi of a bond-1 chain from its phase equation, or None.

    The matrix must have a constant diagonal, a uniform nonzero bulk
    offdiag[1:] and a nonzero offdiag[0]; None for any other matrix and for
    a chain whose roots fail the checks of the module docstring.
    """
    diag, offdiag = hamiltonian.diag, hamiltonian.offdiag
    n = diag.size
    if (n < 2 or offdiag[0] == 0.0 or offdiag[-1] == 0.0 or (diag != diag[0]).any()
            or (offdiag[2:] != offdiag[1:-1]).any()):
        return None
    coupling = abs(float(offdiag[-1]))  # offdiag[0] itself for N = 2
    alpha = abs(float(offdiag[0])) / coupling
    a2 = alpha * alpha
    roots = np.arange(min(lo, n + 1 - hi), min(hi, n + 1 - lo, (n + 1) // 2) + 1)
    with np.errstate(all="ignore"):  # a NaN or a lost root fails the checks below
        solved = _phase_roots(roots, n, a2)
        if solved is None:
            return None
        sin, cos, theta, eta = solved
        p, q = (2.0 - a2) * cos, a2 * sin
        r2 = p * p + q * q
        first = alpha * sin / np.sqrt(r2)
        second = 2.0 * sin * cos / np.sqrt(r2)
        edge = p * cos / r2
        half = 0.5 * (n - 1)
        norm = half + edge + first * first
        quartic = 0.75 * half + edge - (p * cos - q * sin) * (p * p - q * q) / (4.0 * r2 * r2) + first**4
        residual = np.abs(alpha * np.sin((n - 1) * theta) - 2.0 * cos * np.sin(n * theta) / alpha)
        # state 1 beyond alpha^2 = 2 and the theta = pi/2 state of odd N
        # are summed directly (module docstring)
        direct = [0] if roots[0] == 1 and a2 > 2.0 else []
        if 2 * roots[-1] == n + 1:
            direct.append(roots.size - 1)
        sites = np.arange(1, n)
        for i in direct:
            if eta is not None and i == 0:  # below the band: sinh(m eta) exp(-N eta), psi_1 alike
                profile = -0.5 * np.exp((sites - n) * eta) * np.expm1(-2.0 * sites * eta)
                first[0] = -np.expm1(-2.0 * n * eta) / (2.0 * alpha)
                cos[0] = math.cosh(eta)
                residual[0] = abs(alpha * profile[-1] - 2.0 * cos[0] * first[0])
            else:
                profile = np.sin(sites * theta[i])
            second[i] = profile[-1]
            squares = profile * profile
            norm[i] = first[i] ** 2 + squares.sum()
            quartic[i] = first[i] ** 4 + squares @ squares
        ipr = norm * norm / quartic
        c12 = 2.0 * first * np.abs(second) / norm
        residual *= coupling / np.sqrt(norm)
    states = np.arange(lo, hi + 1)
    index = np.minimum(states, n + 1 - states) - roots[0]
    energies = diag[0] + np.where(2 * states <= n, -2.0, 2.0) * coupling * cos[index]
    if (residual <= RESIDUAL_TOL * (np.abs(energies).max() + 1.0)).all() and np.isfinite(ipr * c12).all():
        return energies, ipr[index], c12[index]
    return None


def first_bond_c12(hamiltonian: TridiagonalHamiltonian, states: tuple[int, int]) -> np.ndarray:
    """First-bond concurrence 2 |psi_1 psi_2| of the 1-based states lo..hi.

    A bond-1 chain reads it from the phase equation, without a solver; any
    other matrix and a refused chain take eigendecompose(H, (lo, hi))
    (module docstring).  Raises ValueError for a range outside 1..N and
    ConvergenceFailure if eigendecompose fails.
    """
    lo, hi = _state_range(hamiltonian.n_sites, states)
    phases = _phase_states(hamiltonian, lo, hi)
    if phases is not None:
        return phases[2]
    vectors = eigendecompose(hamiltonian, (lo, hi)).vectors
    return 2.0 * np.abs(vectors[:, 0] * vectors[:, 1])


def eigenstate_ipr(hamiltonian: TridiagonalHamiltonian, states: tuple[int, int]) -> np.ndarray:
    """Inverse participation ratio of the 1-based states lo..hi.

    Routed like first_bond_c12: the phase equation for a bond-1 chain,
    measures.ipr_of_rows of eigendecompose(H, (lo, hi)) otherwise.  Raises
    ValueError for a range outside 1..N and ConvergenceFailure if
    eigendecompose fails.
    """
    lo, hi = _state_range(hamiltonian.n_sites, states)
    phases = _phase_states(hamiltonian, lo, hi)
    if phases is not None:
        return phases[1]
    from .measures import ipr_of_rows  # measures imports this module

    return ipr_of_rows(eigendecompose(hamiltonian, (lo, hi)).vectors)


def transfer_spectrum(hamiltonian: TridiagonalHamiltonian) -> TransferSpectrum:
    """Energies and transfer weights psi_1 psi_N of every state.

    A palindromic matrix whose two reflection-parity blocks both pass the
    bordered solve (module docstring) is assembled from those blocks; every
    other matrix takes eigendecompose.  Raises ConvergenceFailure if
    eigendecompose fails or misses its residual bound.
    """
    diag, offdiag = hamiltonian.diag, hamiltonian.offdiag
    if np.array_equal(diag, diag[::-1]) and np.array_equal(offdiag, offdiag[::-1]):
        blocks = []
        for block_diag, block_offdiag, sign in _parity_blocks(hamiltonian):
            block = _bordered_block(block_diag, block_offdiag)
            if block is None:
                break
            blocks.append((block[0], 0.5 * sign * block[1], block[3]))
        else:
            energies, weights, bounds = zip(*blocks)
            energies = np.concatenate(energies)
            order = np.argsort(energies, kind="stable")
            return TransferSpectrum(energies[order], np.concatenate(weights)[order], max(bounds))
    dec = eigendecompose(hamiltonian)
    return TransferSpectrum(dec.energies, dec.vectors[:, 0] * dec.vectors[:, -1], dec.residual_bound)


def classify_band(dec: SpectralDecomposition, spec: ChainSpec) -> tuple[BandLabel, ...]:
    """Label each state against the band h - 2|J| <= E <= h + 2|J| of the spec."""
    edge = 2.0 * abs(spec.exchange_j)
    labels = []
    for energy in dec.energies - spec.field_h:
        if energy < -edge - BAND_EDGE_TOL:
            labels.append(BandLabel.ISOLATED_BELOW)
        elif energy > edge + BAND_EDGE_TOL:
            labels.append(BandLabel.ISOLATED_ABOVE)
        else:
            labels.append(BandLabel.IN_BAND)
    return tuple(labels)


def sweep(template: ChainSpec, alphas, solve):
    """Yield (alpha, solve(H)) for each impurity strength in turn.

    Every impurity bond of the template takes the strength alpha, and
    solve maps the Hamiltonian to a spectrum: eigendecompose, a state range
    of it, or transfer_spectrum.  One spectrum is computed per step, so a
    caller that keeps none holds one at a time.
    """
    for alpha in alphas:
        alpha = float(alpha)
        yield alpha, solve(build_hamiltonian(with_alpha(template, alpha)))


def estimate_alpha_c(
    template: ChainSpec, alpha_range: tuple[float, float] = (1.0, 2.0), tol: float = 1e-4
) -> float:
    """Bisect for the smallest impurity strength at which state 1 leaves the band.

    State 1 has left once classify_band labels it isolated below h - 2|J|.
    The swept strength is applied to every impurity bond of the template.
    Raises TooSmallN for chains shorter than 10 sites and NoBracket when the
    interval does not straddle the exit point (or E_1 fails to decrease
    monotonically on it).
    """
    if template.n_sites < 10:
        raise TooSmallN(f"need n_sites >= 10, got {template.n_sites}")
    lo, hi = float(alpha_range[0]), float(alpha_range[1])
    if not lo < hi:
        raise ValueError(f"alpha_range must satisfy lo < hi, got {alpha_range}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")

    samples: list[tuple[float, float]] = []

    def exited(alpha: float) -> bool:
        dec = eigendecompose(build_hamiltonian(with_alpha(template, alpha)), (1, 1))
        samples.append((alpha, float(dec.energies[0])))
        return classify_band(dec, template)[0] is BandLabel.ISOLATED_BELOW

    if exited(lo):
        raise NoBracket(f"E_1 already below h - 2|J| at alpha={lo}")
    if not exited(hi):
        raise NoBracket(f"E_1 still inside the band at alpha={hi}")

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if exited(mid):
            hi = mid
        else:
            lo = mid

    samples.sort()
    energies = np.array([energy for _, energy in samples])
    if np.any(np.diff(energies) > 1e-12):
        raise NoBracket("E_1(alpha) is not monotone on the bracket")
    return 0.5 * (lo + hi)


def denergy_dalpha(spec: ChainSpec, state_index: int) -> float:
    """Hellmann-Feynman derivative dE_j/dalpha = 2 J psi_1 psi_2.

    Only defined for the single-impurity-at-bond-1 layout; state_index is
    1-based (state 1 has the lowest energy).
    """
    if len(spec.impurities) != 1 or spec.impurities[0][0] != 1:
        raise WrongConfiguration(
            f"need exactly one impurity on bond 1, got impurities={spec.impurities}"
        )
    if not 1 <= state_index <= spec.n_sites:
        raise ValueError(f"state_index must be in 1..{spec.n_sites}, got {state_index}")
    dec = eigendecompose(build_hamiltonian(spec))
    vector = dec.vectors[state_index - 1]
    return float(2.0 * spec.exchange_j * vector[0] * vector[1])
