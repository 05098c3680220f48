"""The phase route of spectral.first_bond_c12 and spectral.eigenstate_ipr.

A chain whose only impurity is bond 1 (constant diagonal, uniform bulk
offdiag[1:], nonzero offdiag[0]) is solved from its phase equation
F(theta) = alpha^2 sin((N-1) theta) - 2 cos theta sin(N theta) = 0, without
any solver.  These tests pin that route against eigendecompose, against the
edge-bond secular equation and against 40-digit mpmath roots of F, and check
which matrices and alphas take which route: alpha = 0, a refused root and
any layout but bond-1 and mirror chains read the states lo..hi off the
dense solve of their matrix (routes.solver_spy records it), and a bond-1
chain never reaches the kernel with e = 2 ends (mirror chains:
test_parity.py).
"""

import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xxchain import spectral
from xxchain.chain import (
    ChainSpec,
    TridiagonalHamiltonian,
    build_hamiltonian,
    mirror_impurities,
    single_impurity,
    with_alpha,
)
from xxchain.errors import ConvergenceFailure
from xxchain.measures import c12_sweep, ipr_of_rows, ipr_sweep
from xxchain.spectral import eigendecompose, eigenstate_ipr, first_bond_c12

from routes import failed_solver, same_matrices, solver_spy

# Pairs of values both at or above TINY agree within a relative REL_TOL,
# others within an absolute ABS_TOL: an exact zero, such as C_12 of the
# E = h state of an odd chain, comes out of either route as round-off.
TINY = 1e-14
REL_TOL = 1e-10
ABS_TOL = 1e-13
# Against 40-digit roots of F both observables hold this relative bar.
ROOT_TOL = 1e-11


def hamiltonian_of(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # J > 0 sign warning; same physics
        return build_hamiltonian(spec)


def eigenvector_c12(hamiltonian, states=None):
    """C_12 of the states lo..hi (all by default) of the full solve."""
    lo, hi = states or (1, hamiltonian.n_sites)
    vectors = eigendecompose(hamiltonian).vectors[lo - 1 : hi]
    return 2.0 * np.abs(vectors[:, 0] * vectors[:, 1])


def mirror_route_spy():
    """A spy on the phase kernel; mirror_calls lists its calls with e = 2 ends."""
    return mock.patch.object(spectral, "_phase_states", wraps=spectral._phase_states)


def mirror_calls(spy):
    return [call for call in spy.call_args_list if call.args[-1] == 2]


def phase_states(hamiltonian, lo, hi, ends=1):
    """(E, IPR, C_12) of the states lo..hi from the phase kernel, None if it refuses the chain."""
    accepted, alpha, field, bulk = spectral._phase_rule(hamiltonian.diag[None], hamiltonian.offdiag[None])
    if not accepted[ends - 1, 0]:
        return None
    n = hamiltonian.n_sites
    roots = np.arange(1, (n + 1) // 2 + 1)
    low, first, second, norm, quartic, _, ok = spectral._phase_states(n, roots, alpha, field, np.abs(bulk), ends)
    if not ok[0]:
        return None
    states = np.arange(lo, hi + 1)
    index = np.minimum(states, n + 1 - states) - 1
    energies = np.where(2 * states <= n, low[0, index], 2.0 * field[0] - low[0, index])
    return energies, (norm * norm / quartic)[0, index], (2.0 * first * np.abs(second) / norm)[0, index]


def phase_route(hamiltonian, states=None):
    """(E, IPR, C_12) of the states (all by default), asserting that no LAPACK routine ran."""
    lo, hi = states or (1, hamiltonian.n_sites)
    with mirror_route_spy() as mirror, solver_spy() as lapack:
        c12 = first_bond_c12(hamiltonian, (lo, hi))
        ipr = eigenstate_ipr(hamiltonian, (lo, hi))
    assert not mirror_calls(mirror) and not lapack
    phases = phase_states(hamiltonian, lo, hi)
    assert np.array_equal(phases[1], ipr) and np.array_equal(phases[2], c12)
    return phases


def assert_close(values, reference):
    values, reference = np.asarray(values), np.asarray(reference)
    large = np.minimum(values, reference) >= TINY
    assert np.all(np.abs(values - reference)[large] <= REL_TOL * reference[large])
    assert np.all(np.abs(values - reference)[~large] <= ABS_TOL)


@st.composite
def bond1_chains(draw):
    """Bond-1 chains: N <= 300, alpha in [5e-4, 3], either J sign, h != 0."""
    exchange_j = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 1.5))
    field_h = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.1, 2.0))
    return single_impurity(draw(st.integers(2, 300)), draw(st.floats(5e-4, 3.0)),
                           exchange_j=exchange_j, field_h=field_h)


@settings(max_examples=80, deadline=None)
@given(spec=bond1_chains())
def test_bordered_c12_matches_the_eigenvectors(spec):
    # the chain is site 1 bordering a uniform bulk; its phase route gives the
    # energies, IPR and C_12 of the full eigendecomposition
    hamiltonian = hamiltonian_of(spec)
    energies, ipr, c12 = phase_route(hamiltonian)
    dec = eigendecompose(hamiltonian)
    scale = float(np.max(np.abs(dec.energies))) + 1.0
    assert np.max(np.abs(energies - dec.energies)) <= 1e-12 * scale
    assert_close(c12, eigenvector_c12(hamiltonian))
    assert_close(ipr, ipr_of_rows(dec.vectors))


def secular_c12(n, alpha, exchange_j, field_h, states):
    """C_12 of the given states from 40-digit roots of the edge-bond secular equation.

    The bulk of a bond-1 chain is the uniform chain of N - 1 sites, with
    modes mu_k = h + 2J cos(k pi / N) and first components
    z_k^2 = (2 / N) sin^2(k pi / N).  State j is the root of
    g(E) = E - h - b^2 sum_k z_k^2 / (E - mu_k), b = alpha J, between the
    ascending modes j - 1 and j, where g rises from -inf to +inf; then
    psi_1^2 = 1 / g'(E) and C_12 = 2 psi_1^2 |b sum_k z_k^2 / (E - mu_k)|.
    """
    with mpmath.workdps(40):
        h, coupling = mpmath.mpf(field_h), mpmath.mpf(exchange_j)
        bulk = sorted(
            (h + 2 * coupling * mpmath.cos(k * mpmath.pi / n), 2 * mpmath.sin(k * mpmath.pi / n) ** 2 / n)
            for k in range(1, n)
        )
        border = mpmath.mpf(alpha) * coupling

        def sums(energy, power):
            return mpmath.fsum(weight / (energy - mode) ** power for mode, weight in bulk)

        reach = abs(h) + 2 * abs(coupling) + abs(border) + 1
        gap = mpmath.mpf(10) ** -35
        values = []
        for j in states:
            lo = bulk[j - 2][0] + gap if j > 1 else h - reach
            hi = bulk[j - 1][0] - gap if j < n else h + reach
            energy = mpmath.findroot(
                lambda e: e - h - border**2 * sums(e, 1), (lo, hi), solver="anderson"
            )
            weight = 1 / (1 + border**2 * sums(energy, 2))
            values.append(float(2 * weight * abs(border * sums(energy, 1))))
    return np.array(values)


@pytest.mark.parametrize("n", [40, 60])
@pytest.mark.parametrize("alpha", [5e-4, 5e-3, 1.0])
def test_both_routes_match_the_secular_roots(n, alpha):
    states = [1, 2, n - 1, n]
    reference = secular_c12(n, alpha, -1.0, 0.0, states)
    hamiltonian = build_hamiltonian(single_impurity(n, alpha))
    for values in (phase_route(hamiltonian)[2], eigenvector_c12(hamiltonian)):
        got = values[np.array(states) - 1]
        assert np.all(np.abs(got - reference) <= 1e-11 * reference)


def phase_roots_reference(hamiltonian, states):
    """(IPR, C_12) of the states from 40-digit roots of F(theta) = 0.

    alpha^2 is the matrix's own (offdiag[0] / offdiag[1])^2.  State j and
    state N + 1 - j share |psi_n|, so root k = min(j, N + 1 - j) with
    theta_k <= pi/2 serves both: the root of
    G = N theta + atan2(alpha^2 sin theta, (2 - alpha^2) cos theta) - k pi
    in ((k - 1) pi / N, k pi / N), theta = pi/2 for k = (N + 1)/2, and for
    k = 1 beyond alpha^2 = 2 the root of tan(N theta) = kappa tan theta,
    kappa = alpha^2 / (alpha^2 - 2), in (0, pi / 2N), or of
    tanh(N eta) = kappa tanh eta (theta = i eta) above alpha_c.  The centre
    root k = N/2 of even N lies about alpha / sqrt(2N) below its bracket end
    pi/2, where G steps by pi/2 over a width of order alpha^2 that stalls
    illinois; it is bisected in delta = pi/2 - theta, as the phase route
    carries it, on G = atan2(alpha^2 cos delta, (2 - alpha^2) sin delta)
    - N delta over (0, pi / N).  The observables are summed over
    psi_1 = sin(N theta) / alpha and psi_n = sin((N + 1 - n) theta), sinh
    for theta = i eta.
    """
    n = hamiltonian.n_sites
    with mpmath.workdps(40):
        a2 = (mpmath.mpf(hamiltonian.offdiag[0]) / mpmath.mpf(hamiltonian.offdiag[-1])) ** 2
        tiny = mpmath.mpf(10) ** -30
        values = []
        for j in states:
            k = min(j, n + 1 - j)
            if k == 1 and (n - 1) * a2 > 2 * n:
                kappa = a2 / (a2 - 2)
                eta = mpmath.findroot(lambda e: mpmath.atanh(mpmath.tanh(n * e) / kappa) / e - 1,
                                      (tiny, mpmath.atanh(1 / kappa)), solver="illinois")
                sine = mpmath.sinh
                angle = eta
            else:
                if 2 * k == n + 1:
                    angle = mpmath.pi / 2
                elif k == 1 and a2 > 2:
                    kappa = a2 / (a2 - 2)
                    angle = mpmath.findroot(lambda t: mpmath.atan(mpmath.tan(n * t) / kappa) / t - 1,
                                            (tiny, mpmath.pi / (2 * n) * (1 - tiny)), solver="illinois")
                elif 2 * k == n:
                    delta = mpmath.findroot(
                        lambda d: mpmath.atan2(a2 * mpmath.cos(d), (2 - a2) * mpmath.sin(d)) - n * d,
                        (0, mpmath.pi / n), solver="bisect")
                    angle = mpmath.pi / 2 - delta
                else:
                    lo = (k - 1) * mpmath.pi / n if k > 1 else tiny
                    angle = mpmath.findroot(
                        lambda t: n * t - k * mpmath.pi
                        + mpmath.atan2(a2 * mpmath.sin(t), (2 - a2) * mpmath.cos(t)),
                        (lo, k * mpmath.pi / n), solver="illinois")
                sine = mpmath.sin
            psi = [sine(n * angle) / mpmath.sqrt(a2)] + [sine(m * angle) for m in range(n - 1, 0, -1)]
            norm = mpmath.fsum(x * x for x in psi)
            ipr = norm * norm / mpmath.fsum(x**4 for x in psi)
            values.append((float(ipr), float(2 * abs(psi[0] * psi[1]) / norm)))
    return np.array(values)


ALPHAS = {
    # the residual check reads the returned vector, psi_1 = alpha sin theta / R,
    # so round-off no longer refuses these (it did up to alpha = 1e-5 at N = 200)
    "1e-6": lambda n: 1e-6,
    "1e-5": lambda n: 1e-5,
    "5e-4": lambda n: 5e-4,
    "0.7": lambda n: 0.7,
    "1.3": lambda n: 1.3,
    "sqrt2-1e-3": lambda n: math.sqrt(2.0) - 1e-3,
    "sqrt2+1e-3": lambda n: math.sqrt(2.0) + 1e-3,
    "alpha_c-1e-7": lambda n: math.sqrt(2.0 * n / (n - 1)) - 1e-7,
    "alpha_c+1e-7": lambda n: math.sqrt(2.0 * n / (n - 1)) + 1e-7,
    "alpha_c-1e-9": lambda n: math.sqrt(2.0 * n / (n - 1)) - 1e-9,
    "alpha_c+1e-9": lambda n: math.sqrt(2.0 * n / (n - 1)) + 1e-9,
    "2": lambda n: 2.0,
    "3": lambda n: 3.0,
}


@pytest.mark.parametrize("n", [40, 41, 200])
@pytest.mark.parametrize("alpha_of_n", ALPHAS.values(), ids=ALPHAS.keys())
def test_phase_route_matches_40_digit_roots(n, alpha_of_n):
    # all three regimes: the band, the dip of G below pi near theta = 0 for
    # sqrt2 < alpha < alpha_c, and state 1 below the band; at alpha_c -+ 1e-7
    # and 1e-9 the closed-form sums of state 1 cancel (module docstring)
    alpha = alpha_of_n(n)
    states = sorted({1, 2, 3, n // 2, n // 2 + 1, (n + 1) // 2, n - 1, n})
    for exchange_j, field_h in [(-1.0, 0.0), (-0.8, 0.3), (0.8, 0.3)]:
        hamiltonian = hamiltonian_of(single_impurity(n, alpha, exchange_j=exchange_j, field_h=field_h))
        _, ipr, c12 = phase_route(hamiltonian)
        reference = phase_roots_reference(hamiltonian, states)
        got = np.c_[ipr, c12][np.array(states) - 1]
        small = reference < TINY  # C_12 of the theta = pi/2 state of odd N is 0
        assert np.all(np.abs(got - reference)[~small] <= ROOT_TOL * reference[~small])
        assert np.all(np.abs(got - reference)[small] <= ABS_TOL)


@pytest.mark.parametrize("n, alpha", [(200, 1e-7), (400, 1e-6), (800, 1e-6)])
def test_roots_on_their_interval_end_take_the_phase_route(n, alpha):
    # beta is below an ulp of theta here, so roots round onto k pi / N, the
    # end of their interlacing interval: they are accepted there (the strict
    # interval check sent these chains to the dense solve) and meet the
    # 40-digit roots
    states = sorted({1, 2, 3, n // 2, n // 2 + 1, n - 1, n})
    for exchange_j, field_h in [(-1.0, 0.0), (-0.8, 0.3), (0.8, 0.3)]:
        hamiltonian = hamiltonian_of(single_impurity(n, alpha, exchange_j=exchange_j, field_h=field_h))
        _, ipr, c12 = phase_route(hamiltonian)
        reference = phase_roots_reference(hamiltonian, states)
        got = np.c_[ipr, c12][np.array(states) - 1]
        assert np.all(np.abs(got - reference) <= ROOT_TOL * reference)


def test_every_state_at_alpha_1e9_meets_the_40_digit_roots():
    # the centre root k = N/2 lies 5e-11 below pi/2 here, and states 1 and N
    # have C_12 of about 2.5e-15: all still hold the relative bar
    hamiltonian = hamiltonian_of(single_impurity(200, 1e-9, exchange_j=-0.8, field_h=0.3))
    _, ipr, c12 = phase_route(hamiltonian)
    reference = phase_roots_reference(hamiltonian, range(1, 201))
    assert np.all(np.abs(np.c_[ipr, c12] - reference) <= ROOT_TOL * reference)


def alpha_of(hamiltonian):
    return abs(hamiltonian.offdiag[0] / hamiltonian.offdiag[-1])


def assert_phase_route(template, states, observable, refused=()):
    """A bond-1 sweep over alpha = 0..3 solves only alpha = 0 and the refused alphas.

    Those take the dense solve of H and read the rows lo..hi of its vectors;
    every other alpha reads the phase route.  The kernel never runs with
    e = 2 ends.
    """
    alphas = 0.005 * np.arange(601)
    phase_roots = spectral._phase_roots

    def refusing(roots, n, a2, ends):
        *solved, ok = phase_roots(roots, n, a2, ends)
        return (*solved, ok & ~np.any(np.abs(a2[:, None] - np.square(refused)) <= 1e-12, axis=1))

    with solver_spy() as solved, mirror_route_spy() as mirror, \
            mock.patch.object(spectral, "_phase_roots", refusing):
        rows = observable(template, alphas, range(states[0], states[1] + 1))
    assert not mirror_calls(mirror)
    assert [alpha_of(hamiltonian) for hamiltonian in solved] == pytest.approx([0.0, *refused])
    width = states[1] - states[0] + 1
    assert rows.values.shape == (alphas.size, width)
    reads = {c12_sweep: lambda vectors: 2.0 * np.abs(vectors[:, 0] * vectors[:, 1]),
             ipr_sweep: ipr_of_rows}[observable]
    fallbacks = [0, *(round(alpha / 0.005) for alpha in refused)]
    for step in [1, 150, 283, 284, 600, *fallbacks]:
        vectors = eigendecompose(hamiltonian_of(with_alpha(template, alphas[step]))).vectors
        expected = reads(vectors[states[0] - 1 : states[1]])
        values = rows.values[step].tolist()
        if step in fallbacks:
            assert values == expected.tolist()
        else:
            assert_close(values, expected)


def test_bond1_sweeps_take_the_phase_route():
    # wide and narrow ranges alike: only alpha = 0 (site 1 decoupled) needs
    # the eigenvectors, and a refused alpha falls back on its own
    template = single_impurity(200, 1.0)
    for states in [(2, 100), (2, 13), (1, 1), (1, 200), (150, 200)]:
        assert_phase_route(template, states, c12_sweep, refused=(1.5,))
    assert_phase_route(single_impurity(200, 1.0, exchange_j=-0.8, field_h=0.3), (1, 100), ipr_sweep,
                       refused=(0.5, 2.25))


@pytest.mark.parametrize(
    "template, states",
    [
        (ChainSpec(200, -1.0, 0.0, ((2, 1.0),)), (2, 13)),
        (ChainSpec(200, -1.0, 0.0, ((2, 1.0),)), (1, 1)),
        (ChainSpec(200, -1.0, 0.0, ((1, 1.0), (198, 1.0))), (2, 100)),
        (ChainSpec(60, -1.0, 0.0, ((1, 1.0), (30, 1.0))), (1, 60)),
    ],
)
def test_narrow_ranges_and_moving_bulks_take_eigendecompose(template, states):
    # an impurity anywhere but bond 1 (or bonds 1 and N - 1 at once) moves
    # the bulk with alpha
    alphas = [0.0, 0.5, 1.5]
    with mirror_route_spy() as mirror, solver_spy() as solved:
        c12_sweep(template, alphas, range(states[0], states[1] + 1))
    assert not mirror_calls(mirror)
    bond = template.impurities[0][0]
    assert [hamiltonian.offdiag[bond - 1] / template.exchange_j for hamiltonian in solved] == pytest.approx(alphas)


def test_mirror_chain_at_alpha_1_takes_the_phase_route():
    # at alpha = 1 the mirror chain is uniform, a bond-1 chain with alpha = 1;
    # at any other alpha it is a mirror chain, with e = 2 ends
    template = mirror_impurities(200, 1.0, exchange_j=-0.8, field_h=0.3)
    alphas = [0.5, 1.0, 1.5]
    with mirror_route_spy() as kernel, solver_spy() as lapack:
        rows = c12_sweep(template, alphas, range(2, 101))
    assert not lapack
    assert [(call.args[-1], call.args[2].tolist()) for call in kernel.call_args_list] == [
        (1, [1.0]), (2, pytest.approx([0.5, 1.5]))]
    # state 2 at alpha = 1.5 is half of a bound pair that LAPACK mixes (test_parity.py)
    for alpha in alphas:
        reference = eigenvector_c12(build_hamiltonian(with_alpha(template, alpha)), (3, 100))
        assert_close(rows.values[rows.alphas == alpha][0, rows.states >= 3], reference)


@pytest.mark.parametrize("site, border", [(1, True), (2, False), (120, False)])
def test_a_moved_bulk_diagonal_takes_eigendecompose(site, border):
    # the phase route needs one field on every site: a moved entry takes
    # the dense solve, also on site 1 (the border), where H[2:, 2:] stays uniform
    diag = np.full(120, 0.3)
    diag[site - 1] += 1e-3
    offdiag = np.full(119, -0.8)
    offdiag[0] *= 0.6
    hamiltonian = TridiagonalHamiltonian(diag, offdiag)
    assert (np.ptp(diag[1:]) == 0.0) == border
    with mirror_route_spy() as mirror, solver_spy() as solved:
        values = first_bond_c12(hamiltonian, (1, 120))
    assert not mirror_calls(mirror)
    assert same_matrices(solved, [hamiltonian])
    assert phase_states(hamiltonian, 1, 120) is None
    assert_close(values, eigenvector_c12(hamiltonian))


def refused(name):
    """A patch under which the phase route refuses a bond-1 chain's states 1..20."""
    phase_roots, newton = spectral._phase_roots, spectral._newton

    def moved(roots, n, a2, ends, by=lambda theta: theta + 1e-9):
        # inside the bracket, off the root: the residual check
        sin, cos, theta, eta, ok = phase_roots(roots, n, a2, ends)
        theta = by(theta)
        return np.sin(theta), np.cos(theta), theta, eta, ok

    def relative(roots, n, a2, ends):
        return moved(roots, n, a2, ends, lambda theta: theta * (1.0 + 1e-10))

    def shifted(evaluate, x, lo, hi):
        # each root handed to its neighbour's bracket: every residual stays
        # small, only the bracket check sees it
        solved, settled = newton(evaluate, x, lo, hi)
        return np.roll(solved, -1), settled

    return {
        "failed_check": mock.patch.object(spectral, "_phase_roots", moved),
        "moved_1e-10": mock.patch.object(spectral, "_phase_roots", relative),
        "no_convergence": mock.patch.object(spectral, "PHASE_STEP_TOL", -1.0),
        "failed_bracket": mock.patch.object(spectral, "_newton", shifted),
    }[name]


@pytest.mark.parametrize("failure", ["failed_check", "no_convergence", "failed_bracket", "moved_1e-10"])
def test_refused_alphas_fall_back_to_eigendecompose(failure):
    # states 1..20 of N = 120 are all solved for theta itself (below pi/4)
    template = single_impurity(120, 1.0, exchange_j=-0.8, field_h=0.3)
    alphas = [0.2, 0.9, 2.0]
    with refused(failure):
        hamiltonian = build_hamiltonian(template)
        assert phase_states(hamiltonian, 1, 20) is None
        with solver_spy() as solved, mirror_route_spy() as mirror:
            rows = c12_sweep(template, alphas, range(1, 21))
    assert not mirror_calls(mirror)
    assert [alpha_of(hamiltonian) for hamiltonian in solved] == pytest.approx(alphas)
    expected = [value for alpha in alphas
                for value in eigenvector_c12(build_hamiltonian(single_impurity(
                    120, alpha, exchange_j=-0.8, field_h=0.3)), (1, 20))]
    assert rows.values.ravel().tolist() == expected


def test_failed_solvers_are_a_convergence_failure():
    template = single_impurity(120, 1.0)
    with refused("no_convergence"), failed_solver():
        with pytest.raises(ConvergenceFailure):
            c12_sweep(template, [0.5], range(1, 121))
        with pytest.raises(ConvergenceFailure):
            ipr_sweep(template, [0.5], range(1, 121))
