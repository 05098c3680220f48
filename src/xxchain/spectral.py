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

_eigh_rows is the one solver call: one dense numpy.linalg.eigh call over a
stack of matrices, which solves each matrix with the bits of a stack of one,
checks the residual of every pair of a matrix against max|E| over that
matrix's whole spectrum, and fixes the signs.  eigendecompose is its stack
of one; _dense_rows solves the rows of an alpha grid in stacks.

Every f_N(t) = sum_j exp(-i E_j t) psi_1^(j) psi_N^(j) in the package
(evolve, the landscape, the optimizer, the oracle check) reads the energies
and weights of transfer_spectrum.  Chains whose only impurity is bond 1 and
mirror chains need no solver: both are a uniform bulk bordered by impurity
bonds, and one phase equation gives their states, to first_bond_c12 and
eigenstate_ipr for both layouts and to transfer_spectrum for mirror chains.
Any other matrix takes the dense solve, and its weights are psi_1 psi_N
read off the first and last eigenvector components.

With a constant diagonal h, bulk bonds J and end bonds b = alpha J (the
edge-bond secular equation of Wojcik et al., PRA 72, 034303 (2005); the
closed forms of W.-C. Yueh, Appl. Math. E-Notes 5, 66 (2005)), put
E = h + 2J cos theta, p = (2 - alpha^2) cos theta, q = alpha^2 sin theta,
R^2 = p^2 + q^2 and beta = atan2(q, p).  The bulk rows of H psi = E psi hold
for a sine wave, and each impurity end turns its phase by beta.  With e
impurity ends (e = 1: bond 1 only, offdiag[1:] = J; e = 2: a mirror chain,
offdiag[0] = offdiag[-1] = b, offdiag[1:-1] = J) the states are the roots
k = 1..N, ascending in theta, of

    G(theta) = M theta + e beta - k pi = 0,   M = N + 1 - e.

Against a bulk wave of amplitude 1, each impurity end has |psi_1| =
alpha sin theta / R and its neighbour |psi_2| = |sin 2 theta| / R, so with
the bulk sums S_2 and S_4 of psi_n^2 and psi_n^4 over the N - e bulk sites

    norm = e psi_1^2 + S_2,   IPR = norm^2 / (e psi_1^4 + S_4),
    C_12 = 2 |psi_1 psi_2| / norm,

O(1) per state once S_2 and S_4 close.  For a bond-1 chain
psi_n = sin((N + 1 - n) theta) for n >= 2 and psi_1 = sin(N theta) / alpha;
at a root sin(N theta) = +-q / R and sin((N - 1) theta) = +-sin(2 theta) / R,
and the Dirichlet sums over n >= 2 close without any large argument N theta:

    S_2 = (N - 1) / 2 + p cos theta / R^2,
    S_4 = 3 (N - 1) / 8 + p cos theta / R^2
          - (p cos theta - q sin theta) (p^2 - q^2) / (4 R^4).

A mirror chain commutes with the reflection n -> N + 1 - n: root k has
even parity for odd k and odd parity for even k, its bulk wave is
cos((c - n) theta) or sin((c - n) theta), c = (N + 1)/2, and psi_1 = +-psi_N
is that wave continued to site 1, over alpha.  Since sin((N - 2) theta) =
(-1)^(k+1) sin(2 beta + theta) at a root,

    S_2 = (N - 2)/2 + (2 alpha^2 p cos theta + p^2 - q^2) / (2 R^2),
    S_4 = 3 (N - 2)/8 + (2 alpha^2 p cos theta + p^2 - q^2) / (2 R^2)
          - [2 alpha^2 (2 - alpha^2) (p^2 - q^2) cos 2 theta
             + (p^2 - q^2)^2 - 4 p^2 q^2] / (8 R^4),

and the transfer weight is w = +-psi_1^2 / norm, + for odd k.  Both S_4
sum cos 4 (c - n) theta, a Dirichlet kernel that is 0/0 at theta = pi/2,
the centre state of odd N: there every bulk amplitude is 0 or +-1 and
S_4 = S_2.  N = 2 and 3 are uniform chains, alpha = 1 against the middle
bond.  A uniform chain is both: its IPR and C_12 read e = 1, its transfer
weights e = 2.

The roots interlace strictly with k pi / M.  beta lies in (0, pi/2] for
alpha^2 <= 2 and in [pi/2, pi) above, so bond-1 root k lies in
[(k - 1/2) pi / N, k pi / N) or ((k - 1) pi / N, (k - 1/2) pi / N], and
mirror root k in [(k - 1) pi / M, k pi / M) or ((k - 2) pi / M,
(k - 1) pi / M].  G'' has the sign of beta'': G is convex on (0, pi/2] for
alpha^2 < 1 and alpha^2 > 2 and concave for 1 < alpha^2 < 2, so Newton
started at the right (convex) or left (concave) end of the bracket moves
monotonically onto the root; a step that would leave the bracket bisects
it instead.  Where G bends sharply, three roots start inside: for
alpha^2 < 1 the root next to the centre (2k = M) at sqrt(e kappa' / M)
from pi/2, kappa' = alpha^2 / (2 - alpha^2), and the centre root of a
mirror chain of even N at kappa' / (1 + 2 M kappa' / pi) from pi/2; below
alpha^2 = 2 mirror root 1, where 2 beta rises to pi within
c = (2 - alpha^2) / alpha^2 of theta = 0, at sqrt(2c / M).

For alpha^2 > 2 the edge states are solved apart, kappa = alpha^2 /
(alpha^2 - 2).  Bond-1 state 1 solves tan(N theta) = kappa tan theta: it
lies in (0, pi / (2N)) while alpha^2 < alpha_c^2 = 2N / (N - 1)
(kappa > N) and on theta = i eta above, below the band with
e^(2 eta) -> alpha^2 - 1.  Its trivial root theta = 0 is divided out:

    U(t) = atan(tan(N theta) / kappa) / theta - 1,   t = theta^2 > 0,
    U(t) = atanh(tanh(N eta) / kappa) / eta - 1,     t = -eta^2 < 0,

is one increasing function of t through the band edge t = 0 (Newton in
theta took 16-21 steps at N = 200, alpha_c - 1e-7); Newton in t starts from
the better of a line through U(0) and the far-side limit.  A mirror chain
has two, m = (N - 1)/2: the odd one (k = 2) solves
tan(m theta) = kappa tan theta, U(t) with N -> m, and leaves the band at
alpha^2 = 2 (N - 1) / (N - 3); the even one (k = 1) solves
cot(m theta) = -kappa tan theta, which has no root in the band for
alpha^2 > 2, and below it coth(m eta) = kappa tanh eta.

Roots above pi/4 are solved for d = pi/2 - theta, so cos theta = sin d
keeps its digits next to the band centre (in theta the centre pair of even
N lost 2e-11 of its IPR at alpha = 5e-4).  Newton stops once |G| (or |U|)
is within PHASE_STEP_TOL eps of the magnitudes it sums (|offset| too: the
offset of the centre root k = N/2 of an even mirror chain is +pi/2): at most 6
evaluations for bond-1 chains (N = 2-800, alpha = 1e-6-1000, alpha_c
+- 1e-13 and sqrt2 +- 1e-12), at most 7 for mirror chains (N = 4-800,
alpha = 1e-6-10, the exits +- 1e-12) and 5 on the scaling and landscape
grids.  A root still outside after PHASE_STEPS_MAX evaluations refuses the
chain.

The chain is bipartite with a constant diagonal, so state N + 1 - j has the
same |psi_n| as state j, E - h negated and psi_1 psi_N times (-1)^(N - 1).
Only theta <= pi/2 is solved: the roots min(j, N + 1 - j) of the states
lo..hi.  J < 0 makes ascending E ascending theta and J > 0 reverses it; with
the pairing both give E_j = h - 2|J| cos theta_j for j <= N/2 and
h + 2|J| cos theta_(N+1-j) above.  transfer_spectrum builds each partner as
E = 2h - E_j and w = (-1)^(N - 1) w_j, an exactly paired spectrum for the
time kernels (dynamics docstring).

The closed forms lose about cond = sum |terms| / S units of round-off,
and a direct sum of the N positive terms sin^2, sin^4 at most about N.
S_2 can cancel only if p cos theta / R^2 >= -1 / (alpha^2 - 2) reaches
-(N - 1)/2, which needs 2 < alpha^2 <= alpha_c^2 and q << p, theta << 1/N:
bond-1 state 1 near alpha_c, where the terms, of size N, cancel to
S ~ N^3 theta^2 without bound (2e-8 relative at N = 200, alpha_c - 1e-7).
The mirror norm cancels alike for the odd edge state near its exit.  For
every other root cond stayed below 1.5 (bond-1, S_4 included) and 1.93
(mirror S_2), N up to 800, alpha = 0.001-5; the mirror S_4 below 2.2 for
N >= 10 (10.5 at N = 4).  The edge states beyond alpha^2 = 2 are therefore
summed directly, O(N) for one state, below the band scaled by exp(-N eta)
or exp(-m eta).

Every returned state passes two checks, or the chain is refused: its root
lies inside its interlacing interval (bond-1 state 1 beyond alpha^2 = 2:
0 < theta < pi/N, or eta > 0), and ||H v - E v|| of the vector the route
reads is within RESIDUAL_TOL (max|E| + 1), a finite bound.  A root may
equal the end of its bracket at the larger theta: once e beta falls below
an ulp of theta the root rounds onto k pi / M (bond-1 chains at
alpha <= 1e-7 for N = 200 and alpha <= 1e-6 for N = 400-800, mirror chains
at alpha <= 1e-7 for N = 200-400 and alpha = 1e-6 for N = 800, which a
strict check refused).  The vector has psi_1 = s alpha sin theta / R and
the bulk wave from site 2 on, which continues to psi~_1 at site 1, so only
two rows per impurity end are not zero by construction:

    row 1 = |J| alpha |psi_2 - s sin(2 theta) / R|,
    row 2 = |J| |s alpha psi_1 - psi~_1|,

with s the sign a root puts on psi~_1, (-1)^(k+1) for bond-1 roots and
(-1)^floor((k-1)/2) for mirror roots (below the band psi_1 = psi~_1 /
alpha).  Round-off makes them about eps N, with no 1/alpha: the row-1 check
of psi_1 = sin(N theta) / alpha refused alpha <= 1e-5 at N = 200, and roots
moved off by 1e-10 relative are still refused.  alpha = 0, N = 1, any other
matrix and a refused chain take the dense solve.

The kernels (_phase_roots, _phase_states) solve one chain per row and
return arrays shaped (alpha, root) with a mask of the rows that passed.
Every entry is an elementwise function of its own row, and Newton moves
each entry on its own, so a row gives the same bits in a batch as alone;
the edge roots beyond alpha^2 = 2 and the direct O(N) sums run row by row,
in scalar math and in the row's own reduction order.

An alpha grid is one matrix stack (_grid): row i of diag (m, N) and
offdiag (m, N - 1) is build_hamiltonian(with_alpha(template, alpha_i)), and
a bare matrix is a stack of one.  _phase_rule routes every row from bonds
1, N - 1 and (N + 1) // 2 and two uniformity tests, and a row has two
routes.  _phase_rows solves the rows it accepts in batches of up to
PHASE_BATCH_ENTRIES (alpha, root) entries (40 alphas of an N = 200 sweep of
every state, the whole grid for one state or for the N = 31 landscape) and
drops the rows it refuses; _dense_rows solves any other row (alpha = 0,
another layout, a refused row) with _eigh_rows, in stacks of at most
_EIGH_ENTRIES matrix entries (ten N = 40 matrices, one N = 200 matrix).
first_bond_c12_batch, eigenstate_ipr_batch and transfer_spectrum_batch read
both; first_bond_c12, eigenstate_ipr and transfer_spectrum are grids of one
row.  energies_batch reads every row from _dense_rows: the phase-route
energies differ from LAPACK's in the last bits.

Against 40-digit roots (N = 40, 41, 200, three (J, h)) the bond-1 route is
within 6.4e-15 relative on IPR and 1.6e-14 on C_12 (alpha = 5e-5-3 with
alpha_c +- 1e-7, +- 1e-9 and sqrt2 +- 1e-3), eigendecompose within 2.4e-11
and 5.7e-10; the mirror route is within 5.9e-16 relative on the energies
and 1.1e-14 on f_N(t <= 1.5 N) (alpha = 5e-5-3 with both exits +- 1e-9),
the full sum over eigendecompose within 1.9e-14, and within 2.1e-14 on IPR
and 2.9e-14 on C_12 (alpha = 5e-4-3 with sqrt2 +- 1e-3, 1.6, 1.75 and the
odd exit +- 1e-9), eigendecompose within 2.5e-13 and 1.9e-12 on the states
1e-4 (max|E| + 1) or farther from their neighbours; closer, the bound pair
of each end, it returns an arbitrary mix of the parity states.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, TridiagonalHamiltonian, _frozen, _tridiagonal_matvec, build_hamiltonian, validate_spec, with_alpha
from .errors import ConvergenceFailure, NoBracket, TooSmallN, WrongConfiguration

# Leading coefficients smaller than this are skipped by the sign convention.
SIGN_EPS = 1e-12
# Residual contract: max_j ||H v_j - E_j v_j|| <= RESIDUAL_TOL * (max|E| + 1).
RESIDUAL_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
# Band boundary tolerance: energies this close to h +- 2|J| count as in-band.
BAND_EDGE_TOL = 1e-9
# The Newton steps of the phase route stop once |G| is at most
# PHASE_STEP_TOL eps times the magnitudes that G sums, a few units of
# round-off in theta; a root still outside that after PHASE_STEPS_MAX
# evaluations refuses the chain.
PHASE_STEP_TOL = 4.0
PHASE_STEPS_MAX = 12
# A batch holds at most this many (alpha, state) entries, the states of a
# range or the roots of a mirror chain: each kernel array then stays near
# 32 kB, where whole-grid batches of 320 kB arrays left the heap fragmented
# and grew the peak RSS of a sweeps pass by 9 MB.
PHASE_BATCH_ENTRIES = 4096
# A stack of dense matrices for one eigh call holds at most this many matrix
# entries: ten N = 40 matrices.  The N = 40 spectrum grid of 301 alphas took
# 66, 56, 48, 46, 49, 52 and 67 ms in stacks of 1, 2, 5, 10, 20, 41 and 301
# matrices (best of 7, one BLAS thread).
_EIGH_ENTRIES = 16384


class BandLabel(enum.Enum):
    IN_BAND = "in_band"
    ISOLATED_BELOW = "isolated_below"
    ISOLATED_ABOVE = "isolated_above"


_BAND_LABELS = tuple(BandLabel)


def _freeze(instance, name, rank):
    """Store read-only copies of energies and the named array; ValueError unless their shapes are (N,) and (N,) * rank.

    chain._frozen makes the copies, as for every result type.
    """
    energies = np.asarray(instance.energies, dtype=float)
    array = np.asarray(getattr(instance, name), dtype=float)
    if energies.ndim != 1 or array.shape != energies.shape * rank:
        shape = " x ".join("N" * rank)
        raise ValueError(f"need 1-d energies and {name} of shape {shape}, got {energies.shape} and {array.shape}")
    _frozen(instance, energies=energies, **{name: array})


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues with orthonormal, sign-fixed eigenvectors of all N states.

    vectors[j] is the eigenvector belonging to energies[j]; its first
    coefficient with modulus above SIGN_EPS is positive.  Construction
    refuses energies that are not 1-d and vectors that are not N x N, and
    stores read-only copies of both.
    """

    energies: np.ndarray
    vectors: np.ndarray
    residual_bound: float

    def __post_init__(self):
        _freeze(self, "vectors", 2)

    @property
    def n_sites(self) -> int:
        return self.energies.size


@dataclass(frozen=True)
class TransferSpectrum:
    """Ascending energies E_j with their transfer weights psi_1^(j) psi_N^(j).

    This is all that f_N(t) = sum_j exp(-i E_j t) psi_1^(j) psi_N^(j) needs;
    transfer_spectrum computes it, for a mirror chain without eigenvectors of H.
    Construction refuses energies that are not 1-d and weights of another length.
    """

    energies: np.ndarray
    transfer_weights: np.ndarray
    residual_bound: float

    def __post_init__(self):
        _freeze(self, "transfer_weights", 1)

    @property
    def n_sites(self) -> int:
        return self.energies.size


def eigendecompose(hamiltonian: TridiagonalHamiltonian) -> SpectralDecomposition:
    """Eigendecomposition of all N states with a fixed sign convention, a stack of one matrix.

    Raises ConvergenceFailure if the solver fails or any pair misses the
    finite residual bound RESIDUAL_TOL * (max|E| + 1).
    """
    energies, vectors, bounds = _eigh_rows(hamiltonian.diag[None], hamiltonian.offdiag[None])
    return SpectralDecomposition(energies=energies[0], vectors=vectors[0], residual_bound=float(bounds[0]))


def _eigh_rows(diag, offdiag):
    """Energies, sign-fixed eigenvector rows and residual bounds of a stack of tridiagonal matrices.

    diag (m, N) and offdiag (m, N - 1) hold one matrix per row.  One
    numpy.linalg.eigh call solves the dense stack, matrix by matrix, with
    the bits of a stack of one.  Every matrix is held to its own residual
    bound (_checked_residuals); each eigenvector's first coefficient with
    modulus above SIGN_EPS is positive, and a zero coefficient is +0.
    """
    count, n = diag.shape
    dense = np.zeros((count, n * n))
    # + 0.0: the entries of TridiagonalHamiltonian.to_dense, a zero coupling as +0
    dense[:, :: n + 1] = diag + 0.0
    dense[:, 1 :: n + 1] = dense[:, n :: n + 1] = offdiag + 0.0
    try:
        energies, columns = np.linalg.eigh(dense.reshape(count, n, n))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    vectors = np.ascontiguousarray(columns.swapaxes(1, 2))
    bounds = _checked_residuals(diag, offdiag, energies, vectors)
    lead = np.argmax(np.abs(vectors) > SIGN_EPS, axis=2)
    signs = np.sign(np.take_along_axis(vectors, lead[:, :, None], axis=2))
    signs[signs == 0.0] = 1.0
    vectors *= signs
    vectors += 0.0  # -0 becomes +0; every other bit stays
    return energies, vectors, bounds


def _checked_residuals(diag, offdiag, energies, vectors):
    """max_j ||H v_j - E_j v_j|| of every matrix; ConvergenceFailure unless _healthy passes each (finite, within RESIDUAL_TOL * (max|E| + 1))."""
    with np.errstate(all="ignore"):  # a NaN or an infinity fails the check below
        scale = np.abs(energies).max(axis=1) + 1.0
        # squared in units of a power of two near max|E| + 1: exact, and no square overflows
        unit = np.ldexp(1.0, 1 - np.maximum(np.frexp(scale)[1], 1))
        residual = _tridiagonal_matvec(diag[:, None], offdiag[:, None], vectors)
        residual -= energies[:, :, None] * vectors
        residual *= unit[:, None, None]
        bounds = np.sqrt(np.max(np.sum(residual * residual, axis=2), axis=1)) / unit
        for i in np.flatnonzero(~_healthy(bounds[:, None], energies))[:1]:
            raise ConvergenceFailure(f"residual {bounds[i]:.3e} exceeds {RESIDUAL_TOL:.0e} * {scale[i]:.3e}")
    return bounds


def _healthy(residual, energies):
    """Rows whose energies are finite and whose residuals are all within RESIDUAL_TOL * (max|E| + 1)."""
    bound = RESIDUAL_TOL * (np.abs(energies).max(axis=1) + 1.0)
    return (residual <= bound[:, None]).all(axis=1) & (bound < np.inf)


def _newton(evaluate, x, lo, hi):
    """Roots in [lo, hi] of increasing functions by Newton steps kept in the bracket.

    evaluate(x) returns the values, the slopes and the magnitudes each value
    is rounded against.  An entry whose |value| is within PHASE_STEP_TOL eps
    of its magnitude has settled and stays where it is; the others narrow
    their bracket to the sign of the value and take a Newton step, or bisect
    the bracket if the step would leave it.  Every entry moves on its own,
    so it ends where it would end solved alone.  Returns x and the mask of
    the entries that settled within PHASE_STEPS_MAX evaluations.
    """
    for _ in range(PHASE_STEPS_MAX):
        value, slope, scale = evaluate(x)
        settled = np.abs(value) <= PHASE_STEP_TOL * _EPS * scale
        if settled.all():
            break
        lo = np.where(value < 0.0, x, lo)
        hi = np.where(value > 0.0, x, hi)
        step = x - value / slope
        x = np.where(settled, x, np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi)))
    return x, settled


def _phase(x, upper, sign, offset, turns, a2, ends):
    """G of each root as an increasing function of its offset x, its slope and magnitude.

    x is theta, or d = pi/2 - theta where upper.  G = M theta + e beta - k pi
    (M = turns = N + 1 - e, e = ends) is then M x + e beta - k pi, or
    -(M x - e beta - (M - 2k) pi/2) where upper: M x + sign e beta + offset
    with sign = +-1 and offset = -k pi or -(M - 2k) pi/2.
    """
    sin, cos = np.sin(x), np.cos(x)
    p, q = (2.0 - a2) * np.where(upper, sin, cos), a2 * np.where(upper, cos, sin)
    beta = np.arctan2(q, p)
    if ends == 2:
        beta *= 2.0
    turn = turns * x
    return turn + sign * beta + offset, turns + ends * a2 * (2.0 - a2) / (p * p + q * q), turn + beta + np.abs(offset)


def _edge_phase(t, n, kappa, excess):
    """U(t) of the odd edge state for alpha^2 > 2, dU/dt and the magnitude of U's terms (module docstring).

    excess = kappa - 1 = 2 / (alpha^2 - 2), from alpha itself: below the band
    atanh(y), y = tanh(n eta) / kappa, reads 1 - y above y = 1/2 as
    (excess + 1 - tanh(n eta)) / kappa, which keeps its digits as y nears 1
    for large alpha.
    """
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
            if tanh < 0.5 * kappa:
                ratio = math.atanh(tanh / kappa) / root
            else:
                decay = math.exp(-2.0 * x)
                gap = (excess + 2.0 * decay / (1.0 + decay)) / kappa
                ratio = 0.5 * (math.log1p(tanh / kappa) - math.log(gap)) / root
            drive = n * kappa * (1.0 - tanh) * (1.0 + tanh) / ((kappa - tanh) * (kappa + tanh))
        slope = (drive - ratio) / (2.0 * t)
    return np.array([ratio - 1.0]), np.array([slope]), np.array([ratio + 1.0 + drive])


def _edge_root(n, a2):
    """t = theta^2 (or -eta^2) of the odd edge state for alpha^2 > 2, or None (module docstring).

    It solves tan(n theta) = kappa tan theta: n = N for a bond-1 chain,
    n = (N - 1)/2 for a mirror chain.  Newton starts from the better of two
    models: the line through U(0) with slope U'(0), right near the exit,
    and the far-side limit, right where the root is far from t = 0:
    theta = atan(kappa tan(pi/2n)) / n in the band, eta = atanh(1 / kappa)
    (e^(2 eta) = alpha^2 - 1) below it.
    """
    kappa, excess = a2 / (a2 - 2.0), 2.0 / (a2 - 2.0)
    offset = n / kappa - 1.0  # U(0): above 0 the state has left the band
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
        value = _edge_phase([t], n, kappa, excess)[0][0]
        if value < 0.0:
            lo = max(lo, t)
        else:
            hi = min(hi, t)
        fits.append((abs(value), t))
    solved, settled = _newton(lambda t: _edge_phase(t, n, kappa, excess), np.array([min(fits)[1]]), lo, hi)
    return float(solved[0]) if settled[0] else None


def _even_edge_root(m, a2):
    """eta of the even edge state of a mirror chain for alpha^2 > 2, or None (module docstring).

    coth(m eta) = kappa tanh eta is solved as log tanh(m eta) + log tanh eta
    + log kappa = 0, concave and increasing in eta, by Newton from the lower
    bound max(atanh(1 / kappa), 1 / sqrt(m kappa)), which is the root far
    below and right next to the band.  log tanh x is read as
    log1p(-2 / (e^(2x) + 1)) above x = 1/2, so it keeps its digits where
    tanh x is close to 1.
    """
    kappa = a2 / (a2 - 2.0)
    start = max(math.atanh(1.0 / kappa), 1.0 / math.sqrt(m * kappa))
    shift = -math.log1p(-2.0 / a2)  # log kappa

    def evaluate(eta):
        logs = [np.where(x > 0.5, np.log1p(-2.0 / (np.exp(2.0 * x) + 1.0)), np.log(np.tanh(x)))
                for x in (m * eta, eta)]
        slope = 2.0 * m / np.sinh(2.0 * m * eta) + 2.0 / np.sinh(2.0 * eta)
        return logs[0] + logs[1] + shift, slope, shift - logs[0] - logs[1]

    # the start is the root to rounding far below the band: bracket from 0
    solved, settled = _newton(evaluate, np.array([start]), 0.0, math.atanh(1.0 / math.sqrt(kappa)))
    return float(solved[0]) if settled[0] else None


def _phase_roots(roots, n, a2, ends):
    """sin theta, cos theta, theta and eta of the roots k <= ceil(N/2), and a mask of passed rows.

    a2 holds one alpha^2 per row, and every array has the shape
    (alpha, root).  ends is e of the phase equation: 1 for a bond-1 chain,
    2 for a mirror chain.  Roots above pi/4 are solved for d = pi/2 - theta,
    so cos theta = sin d keeps its digits next to the band centre.  theta is
    NaN at a root below the band, and eta is its decay rate there (0 at
    every other root).  A row fails if one of its roots is refused: Newton
    did not settle or the root is not inside its interlacing interval; and
    for alpha^2 >= 1 / eps, where the edge states' kappa rounds to 1.
    """
    turns = n + 1 - ends
    ok = a2 * _EPS < 1.0  # beyond, kappa = alpha^2 / (alpha^2 - 2) rounds to 1
    big = a2 > 2.0
    # beyond alpha^2 = 2 the leading roots k <= e are edge states, solved apart
    edges = np.where(big, max(0, min(ends + 1 - roots[0], roots.size)), 0)
    column = np.arange(roots.size)
    # and mirror root 1 stays next to theta = 0
    upper = (4 * roots > turns) & (column >= edges[:, None]) & (roots >= ends)
    x, eta = np.zeros(upper.shape), np.zeros(upper.shape)  # odd N: theta = pi/2, d = 0
    row, col = np.nonzero((2 * roots != n + 1) & (column >= edges[:, None]) & ok[:, None])
    if row.size:
        k, up, a2k, bigk = roots[col], upper[row, col], a2[row], big[row]
        unit = 0.5 * np.pi / turns
        # the interlacing interval ((k - 1) pi / M, k pi / M) in units of x,
        # one interval lower for a mirror chain with alpha^2 > 2, cut at
        # theta = pi/2; for a bond-1 chain the root lies in its lower half
        # for alpha^2 <= 2 (beta <= pi/2) and in its upper half above
        shift = 2 * (ends - 1) * bigk
        left = np.where(up, turns - 2 * k + shift, 2 * k - 2 - shift)
        if ends == 2:
            left = np.maximum(left, 0)
        lo = (left + (ends == 1) * (up == bigk)) * unit
        hi = lo + ends * unit
        # G is convex in theta for alpha^2 < 1 and alpha^2 > 2, concave
        # between: start on the side from which Newton moves monotonically
        start = np.where(up == ((a2k < 1.0) | (a2k > 2.0)), lo, hi)
        # e beta rises by about e pi/2 within kappa' = alpha^2 / (2 - alpha^2)
        # of pi/2, so for alpha^2 < 1 the root next to the centre (2k = M),
        # at d = sqrt(e kappa' / (M d tan d)) at most, starts at
        # sqrt(e kappa' / M), and the centre root of a mirror chain of even N
        # (2k = N), at M d + 2 atan(tan d / kappa') = pi/2, at
        # kappa' / (1 + 2 M kappa' / pi)
        near = (a2k < 1.0) & (2 * k == turns)
        start[near] = np.minimum(ends * unit, np.sqrt(ends * a2k[near] / ((2.0 - a2k[near]) * turns)))
        if ends == 2:
            near = (a2k < 1.0) & (2 * k == n)
            start[near] = np.minimum(ends * unit, a2k[near] / (2.0 - a2k[near] + 2.0 * turns * a2k[near] / np.pi))
            # for 1 <= alpha^2 < 2, 2 beta rises to pi within
            # c = (2 - alpha^2) / alpha^2 of theta = 0, so root 1 of a mirror
            # chain, M theta = 2c / theta for c << 1/M, starts at sqrt(2c / M)
            near = (1.0 <= a2k) & (a2k < 2.0) & (k == 1) & ~up
            start[near] = np.minimum(ends * unit, np.sqrt(2.0 * (2.0 - a2k[near]) / (a2k[near] * turns)))
        sign = np.where(up, -1.0, 1.0)
        offset = np.where(up, turns - 2 * k, 2 * k) * (-0.5 * np.pi)
        solved, settled = _newton(lambda at: _phase(at, up, sign, offset, turns, a2k, ends), start, lo, hi)
        # a root within an ulp of k pi / M (e beta below an ulp of theta)
        # rounds onto the end of its bracket at the larger theta
        inside = (left * unit < solved) & (solved < (left + 2) * unit)
        ok[row[~(settled & (inside | (solved == np.where(up, lo, hi))))]] = False
        x[row, col] = solved
    for i in np.flatnonzero(ok & (edges > 0)):
        ok[i] = _edge_roots(edges[i], roots, turns, float(a2[i]), ends, x[i], eta[i])
    sin, cos = np.sin(x), np.cos(x)
    return np.where(upper, cos, sin), np.where(upper, sin, cos), np.where(upper, 0.5 * np.pi - x, x), eta, ok


def _edge_roots(edges, roots, turns, a2, ends, x, eta):
    """Write the edge roots k <= e of one alpha^2 > 2 row into its x and eta; False if one is refused."""
    for i in range(edges):
        if roots[i] < ends:  # the even edge state of a mirror chain
            decay = _even_edge_root(0.5 * turns, a2)
            if decay is None or not 0.0 < decay < np.inf:
                return False
            x[i], eta[i] = np.nan, decay
            continue
        t = _edge_root(turns / ends, a2)
        if t is None or t == 0.0 or not -np.inf < t < (np.pi / turns) ** 2:
            return False
        if t > 0.0:
            x[i] = math.sqrt(t)
        else:
            x[i], eta[i] = np.nan, math.sqrt(-t)
    return True


def _wave(n, ends, k, theta, eta):
    """The bulk wave of root k from the far end down to its continuation at site 1 (module docstring).

    Below the band (eta > 0) it is scaled by exp(-N eta) or exp(-m eta).
    """
    if ends == 1:
        back = np.arange(1, n + 1)  # N + 1 - n
        if eta > 0.0:
            return -0.5 * np.exp((back - n) * eta) * np.expm1(-2.0 * back * eta)
        return np.sin(back * theta)
    sites = np.arange(n - 1, 0, -1)
    if eta > 0.0:
        near, far = np.exp((1 - sites) * eta), np.exp((sites - n) * eta)
        return near + far if k % 2 else near - far
    return (np.cos if k % 2 else np.sin)((0.5 * (n + 1) - sites) * theta)


def _phase_states(n, roots, alpha, field, coupling, ends):
    """E, |psi_1|, |psi_2|, norm, sum psi^4 and residual of the roots k of chains with e impurity ends.

    alpha, field and coupling hold one chain of N sites per row: its
    impurity strength, its field h and its bulk |J| (_phase_rule).  Every
    array has the shape (alpha, root), E = h - 2|J| cos theta is state k's
    (module docstring); the mask of the rows whose roots pass comes last.
    """
    with np.errstate(all="ignore"):  # a NaN or a lost root fails the checks below
        sin, cos, theta, eta, ok = _phase_roots(roots, n, alpha * alpha, ends)
        alpha, field, coupling = alpha[:, None], field[:, None], coupling[:, None]
        a2 = alpha * alpha
        p, q = (2.0 - a2) * cos, a2 * sin
        pp, qq = p * p, q * q
        r2 = pp + qq
        first = alpha * sin / np.sqrt(r2)
        second = 2.0 * sin * cos / np.sqrt(r2)
        half = 0.5 * (n - ends)
        # each layout keeps its own order of summation, and with it its bits
        if ends == 1:
            span = p * cos / r2
            fold = (p * cos - q * sin) * (pp - qq) / (4.0 * r2 * r2)
            norm = half + span + first * first
            # psi_n = sin((N + 1 - n) theta) continues to sin(N theta) at site 1
            sign, tilde, inner = np.where(roots % 2, 1.0, -1.0), np.sin(n * theta), np.sin((n - 1) * theta)
        else:
            span = (2.0 * a2 * p * cos + pp - qq) / (2.0 * r2)
            fold = (2.0 * a2 * (2.0 - a2) * (pp - qq) * (cos - sin) * (cos + sin) + (pp - qq) ** 2
                    - 4.0 * pp * qq) / (8.0 * r2 * r2)
            norm = 2.0 * first * first + half + span
            # the bulk wave cos((n - c) theta) or sin((c - n) theta), c = (N + 1)/2,
            # continues to site 1 as the same wave at m theta = (c - 1) theta
            even, turn = roots % 2 == 1, 0.5 * (n - 1) * theta
            sign = np.where((roots - 1) // 2 % 2, -1.0, 1.0)
            tilde = np.where(even, np.cos(turn), np.sin(turn))
            inner = np.where(even, np.cos(turn - theta), np.sin(turn - theta))
        # at theta = pi/2 every bulk amplitude is 0 or +-1: S_4 = S_2
        quartic = np.where(2 * roots == n + 1, half + span, 0.75 * half + span - fold) + ends * first**4
        # rows 1 and 2 of H v - E v at an impurity end, in units of |J| (module docstring):
        # v has psi_1 = sign first, and the bulk wave continues to tilde at site 1
        rows = np.hypot(alpha * (inner - sign * second), sign * alpha * first - tilde)
        # the edge states beyond alpha^2 = 2 are summed directly (module docstring)
        for i, j in zip(*np.nonzero((roots[:ends] <= ends) & (a2 > 2.0) & ok[:, None])):
            wave = _wave(n, ends, roots[j], theta[i, j], eta[i, j])
            if eta[i, j] > 0.0:  # below the band psi_1 is the wave's continuation over alpha
                first[i, j] = wave[-1] / alpha[i, 0]
                cos[i, j] = math.cosh(eta[i, j])
                rows[i, j] = abs(alpha[i, 0] * wave[-2] - 2.0 * cos[i, j] * first[i, j])
            bulk = wave[:-1]
            squares = bulk * bulk
            second[i, j] = bulk[-1]
            norm[i, j] = ends * first[i, j] ** 2 + bulk @ bulk
            quartic[i, j] = ends * first[i, j] ** 4 + squares @ squares
        energies = field - 2.0 * coupling * cos
        residual = coupling * rows * np.sqrt(ends / norm)
        # cos theta is largest at the first root: max|E| = |h| + 2|J| cos theta there
        ok &= _healthy(residual, np.abs(field) + 2.0 * coupling * cos[:, :1])
        ok &= np.isfinite(first * second / norm / quartic).all(axis=1)
    return energies, first, second, norm, quartic, residual, ok


def _phase_rule(diag, offdiag):
    """(ok, alpha, h, J) per row of a chain stack diag (m, N), offdiag (m, N - 1): the one route rule.

    The phase route takes a constant diagonal h and equal bonds 2..N - e,
    J read off bond (N + 1) // 2, bordered by e impurity bonds alpha J, read
    off bond 1, with alpha J and J nonzero.  ok[e - 1] marks those rows: e = 1
    a bond-1 chain, e = 2 a mirror chain (bond N - 1 equal to bond 1; N = 2
    and 3 are uniform chains against their middle bond).
    """
    n = diag.shape[1]
    end, far, bulk = offdiag[:, 0], offdiag[:, -1], offdiag[:, (n - 1) // 2]
    flat = (diag == diag[:, :1]).all(axis=1)
    steps = offdiag[:, 2:] == offdiag[:, 1:-1]  # bond b + 1 against bond b, b = 2..N - 2
    ok = np.array([flat & steps[:, : n - 2 - e].all(axis=1) for e in (1, 2)])
    ok &= (bulk != 0.0) & (end != 0.0)
    ok[1] &= end == far
    with np.errstate(all="ignore"):  # a refused row may divide by 0 or overflow
        alpha = np.abs(end) / np.abs(bulk)
    return ok, alpha, diag[:, 0], bulk


def _grid(template, alphas):
    """(diag, offdiag, _phase_rule(diag, offdiag)) of the template at every alpha of a grid.

    Row i of diag (m, N), a broadcast view of h, and offdiag (m, N - 1) is
    build_hamiltonian(with_alpha(template, alpha_i)) entry for entry.  The
    template is validated once, at the first alpha (a J > 0 template warns
    there); the first alpha validate_spec refuses (NaN, infinite, negative,
    |h| + 2 max|coupling| overflowing) raises its error before any solve.
    With alphas None the template is a bare matrix: a stack of one.
    """
    if alphas is None:
        diag, offdiag = template.diag[None], template.offdiag[None]
        return diag, offdiag, _phase_rule(diag, offdiag)
    n, coupling, alphas = template.n_sites, template.exchange_j, np.asarray(alphas, dtype=float)
    bonds = {bond for bond, _ in template.impurities}
    if alphas.size:
        validate_spec(with_alpha(template, alphas[0]))
    with np.errstate(all="ignore"):
        scaled = alphas * coupling
        top = np.abs(scaled) if len(bonds) == n - 1 else np.maximum(np.abs(scaled), abs(coupling))
        failed = ~(alphas >= 0.0) | ~np.isfinite(abs(template.field_h) + 2.0 * top)
    for alpha in alphas[failed][:1] if bonds else ():
        validate_spec(with_alpha(template, alpha))
    offdiag = np.full((alphas.size, n - 1), coupling)
    offdiag[:, [bond - 1 for bond in bonds]] = scaled[:, None]
    diag = np.broadcast_to(np.full(n, template.field_h), (alphas.size, n))
    return diag, offdiag, _phase_rule(diag, offdiag)


def _batches(ok, width, budget=PHASE_BATCH_ENTRIES):
    """Indices of the rows ok marks, at most budget // width (at least one) per batch."""
    rows = np.flatnonzero(ok)
    step = max(1, budget // width)
    return (rows[start : start + step] for start in range(0, rows.size, step))


def _phase_rows(grid, roots, ends, rows):
    """(rows, E, |psi_1|, |psi_2|, norm, sum psi^4, residual) of the roots of the marked grid rows that pass.

    _phase_states solves the rows in _batches; a refused row is dropped
    before the caller does any arithmetic on its states.
    """
    diag, _, (_, alpha, field, bulk) = grid
    for batch in _batches(rows, roots.size):
        *states, passed = _phase_states(diag.shape[1], roots, alpha[batch], field[batch], np.abs(bulk[batch]), ends)
        yield batch[passed], *(state[passed] for state in states)


def _dense_rows(diag, offdiag, rows):
    """(rows, energies, vectors, bounds) of the marked rows of a matrix stack.

    _eigh_rows solves them in stacks of at most _EIGH_ENTRIES matrix entries.
    """
    for batch in _batches(rows, diag.shape[1] ** 2, budget=_EIGH_ENTRIES):
        yield batch, *_eigh_rows(diag[batch], offdiag[batch])


def _state_table(grid, states, read):
    """IPR (read "ipr") or C_12 (read "c12") of the states lo..hi, one row per grid row.

    Bond-1 rows (e = 1, the uniform chain too) and mirror rows (e = 2) read
    root min(j, N + 1 - j) of state j (_phase_rows); any other row reads the
    vectors lo..hi of the dense solve of its matrix (_dense_rows).
    ValueError unless 1 <= lo <= hi <= N.
    """
    from .measures import ipr_of_rows  # measures imports this module

    diag, offdiag, (ok, alpha, _, _) = grid
    n = diag.shape[1]
    lo, hi = int(states[0]), int(states[1])
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"states must satisfy 1 <= lo <= hi <= {n}, got {states}")
    states = np.arange(lo, hi + 1)
    roots = np.arange(min(lo, n + 1 - hi), min(hi, n + 1 - lo, (n + 1) // 2) + 1)
    index = np.minimum(states, n + 1 - states) - roots[0]
    table = np.empty((alpha.size, states.size))
    solved = np.zeros(alpha.size, bool)
    for ends, rows in ((1, ok[0]), (2, ok[1] & ~ok[0])):
        for batch, _, first, second, norm, quartic, _ in _phase_rows(grid, roots, ends, rows):
            values = norm * norm / quartic if read == "ipr" else 2.0 * first * np.abs(second) / norm
            table[batch] = values[:, index]
            solved[batch] = True
    for batch, _, vectors, _ in _dense_rows(diag, offdiag, ~solved):
        vectors = vectors[:, lo - 1 : hi]
        table[batch] = ipr_of_rows(vectors) if read == "ipr" else 2.0 * np.abs(vectors[..., 0] * vectors[..., 1])
    return table


def first_bond_c12_batch(template: ChainSpec, alphas, states: tuple[int, int]) -> np.ndarray:
    """first_bond_c12 of the template at every alpha of the grid, one row per alpha.

    Bond-1 and mirror templates read the phase equation in batches, any
    other row the dense solve of its matrix in stacks (_grid, module
    docstring).  Raises the typed error of the first alpha validate_spec
    refuses, ValueError for a range outside 1..N and ConvergenceFailure if a
    dense solve fails.
    """
    return _state_table(_grid(template, alphas), states, "c12")


def first_bond_c12(hamiltonian: TridiagonalHamiltonian, states: tuple[int, int]) -> np.ndarray:
    """First-bond concurrence 2 |psi_1 psi_2| of the 1-based states lo..hi, a grid of one row."""
    return _state_table(_grid(hamiltonian, None), states, "c12")[0]


def eigenstate_ipr_batch(template: ChainSpec, alphas, states: tuple[int, int]) -> np.ndarray:
    """eigenstate_ipr of the template at every alpha of the grid, routed like first_bond_c12_batch."""
    return _state_table(_grid(template, alphas), states, "ipr")


def eigenstate_ipr(hamiltonian: TridiagonalHamiltonian, states: tuple[int, int]) -> np.ndarray:
    """Inverse participation ratio of the 1-based states lo..hi, a grid of one row."""
    return _state_table(_grid(hamiltonian, None), states, "ipr")[0]


def _transfer_spectra(grid) -> list[TransferSpectrum]:
    """transfer_spectrum of every grid row: mirror chains (e = 2) by _phase_rows, the others by _dense_rows."""
    diag, offdiag, (ok, alpha, field, bulk) = grid
    n = diag.shape[1]
    roots = np.arange(1, (n + 1) // 2 + 1)
    half, pair = n // 2, 1.0 if n % 2 else -1.0
    spectra = [None] * alpha.size
    for batch, low, first, _, norm, _, residual in _phase_rows(grid, roots, 2, ok[1]):
        weights = np.where(roots % 2, 1.0, -1.0) * first * first / norm
        weights *= np.where(bulk[batch] > 0.0, pair, 1.0)[:, None]
        centre = field[batch, None]
        low = low[:, :half]
        energies = np.concatenate((low, np.repeat(centre, n % 2, axis=1), 2.0 * centre - low[:, ::-1]), axis=1)
        weights = np.concatenate((weights, pair * weights[:, :half][:, ::-1]), axis=1)
        for i, energy_row, weight_row, bound in zip(batch, energies, weights, residual.max(axis=1)):
            spectra[i] = TransferSpectrum(energy_row, weight_row, float(bound))
    for batch, energies, vectors, bounds in _dense_rows(diag, offdiag, [spectrum is None for spectrum in spectra]):
        for i, energy_row, weight_row, bound in zip(batch, energies, vectors[..., 0] * vectors[..., -1], bounds):
            spectra[i] = TransferSpectrum(energy_row, weight_row, float(bound))
    return spectra


def transfer_spectrum_batch(template: ChainSpec, alphas) -> list[TransferSpectrum]:
    """transfer_spectrum of the template at every alpha of the grid, routed like first_bond_c12_batch."""
    return _transfer_spectra(_grid(template, alphas))


def transfer_spectrum(hamiltonian: TridiagonalHamiltonian) -> TransferSpectrum:
    """Energies and transfer weights psi_1 psi_N of every state, a grid of one row."""
    return _transfer_spectra(_grid(hamiltonian, None))[0]


def energies_batch(template: ChainSpec, alphas) -> np.ndarray:
    """Ascending energies of the template at every alpha of the grid, one row per alpha.

    Every row of the _grid stack is a dense solve (_dense_rows).  Raises the
    typed error of the first alpha validate_spec refuses and
    ConvergenceFailure if a solve fails.
    """
    diag, offdiag, _ = _grid(template, alphas)
    energies = np.empty(diag.shape)
    for rows, values, _, _ in _dense_rows(diag, offdiag, np.ones(len(diag), bool)):
        energies[rows] = values
    return energies


def _band_codes(energies, spec: ChainSpec) -> np.ndarray:
    """The band rule: index into tuple(BandLabel) of every energy against h - 2|J| <= E <= h + 2|J|."""
    edge = 2.0 * abs(spec.exchange_j)
    shifted = energies - spec.field_h
    return np.where(shifted < -edge - BAND_EDGE_TOL, 1, np.where(shifted > edge + BAND_EDGE_TOL, 2, 0))


def classify_band(dec: SpectralDecomposition, spec: ChainSpec) -> tuple[BandLabel, ...]:
    """Label each state against the band h - 2|J| <= E <= h + 2|J| of the spec (_band_codes)."""
    return tuple(map(_BAND_LABELS.__getitem__, _band_codes(dec.energies, spec).tolist()))


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
        dec = eigendecompose(build_hamiltonian(with_alpha(template, alpha)))
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
    vector = eigendecompose(build_hamiltonian(spec)).vectors[state_index - 1]
    return float(2.0 * spec.exchange_j * vector[0] * vector[1])
