"""The mirror route of spectral.transfer_spectrum.

A mirror chain (constant diagonal, uniform nonzero bulk bonds, equal nonzero
end bonds alpha J) is read from its phase equation
(N - 1) theta + 2 beta = k pi without any solver and yields only the
energies and the transfer weights psi_1 psi_N.  The roots theta <= pi/2 are
solved, odd k of even and even k of odd reflection parity, and each partner
state is built by the chiral pairing.  A refused root or a residual over the
bound sends the chain to eigendecompose, as do alpha = 0 and every other
matrix.  The checks compare f_N(t) with the full sum over the
eigendecomposition (the paired kernel bypassed) or with 40-digit roots
rather than per-state weights against eigendecompose: above alpha = sqrt(2)
the two bound-state pairs are degenerate to 1e-10 or better, and the full
solve returns an arbitrary mix of each pair, whose weights differ from the
parity weights while the sum over the pair does not.
"""

import functools
import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xxchain import spectral
from xxchain.chain import (
    ChainSpec,
    TridiagonalHamiltonian,
    build_hamiltonian,
    mirror_impurities,
    single_impurity,
)
from xxchain.dynamics import transfer_amplitude
from xxchain.errors import ConvergenceFailure
from xxchain.protocols import fidelity_landscape, inclusive_grid
from xxchain.cli import main
from xxchain.spectral import (
    TransferSpectrum,
    eigendecompose,
    eigenstate_ipr,
    first_bond_c12,
    transfer_spectrum,
    transfer_spectrum_batch,
)

from routes import factorings, failed_solver, full_route, noisy_solver, same_matrices, solver_spy, unpaired

TOL = 1e-12


def hamiltonian_of(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # J > 0 sign warning; same physics
        return build_hamiltonian(spec)


@st.composite
def palindromic_chains(draw):
    """Chains whose impurity bonds come in mirror pairs b, N - b."""
    n = draw(st.integers(2, 120))
    bonds = draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=min(3, n - 1)))
    impurities = {}
    for bond in sorted(bonds):
        alpha = draw(st.floats(0.0, 3.0))
        impurities[bond] = impurities[n - bond] = alpha
    exchange_j = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 1.5))
    field_h = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.1, 2.0))
    return ChainSpec(n, exchange_j, field_h, tuple(impurities.items()))


def amplitude(spectrum, times):
    """f_N(times) and whether the kernel factored the grid."""
    with factorings() as factored:
        values = transfer_amplitude(spectrum, times)
    return values, factored == [True]


def full_sum(hamiltonian, times):
    """f_N(times) summed over every level of eigendecompose, without the pairing."""
    with unpaired():
        return transfer_amplitude(full_route(eigendecompose(hamiltonian)), times)


@settings(max_examples=150, deadline=None)
@given(spec=palindromic_chains(), lo=st.floats(0.0, 100.0), step=st.floats(1e-3, 0.5))
# tiny inner bonds: not a mirror chain, so eigendecompose solves it
@example(spec=ChainSpec(60, -1.0, 0.3, ((20, 1e-6), (40, 1e-6))), lo=0.0, step=0.5)
# three levels within 2.9e-5 of h: eigenvector weights carry eps / gap
# rotations that cancel only in the full sum, so the paired kernel missed
# the full sum by 4.8e-12 on weights that were not paired exactly
@example(spec=ChainSpec(49, -1.0, -1.0, ((1, 1e-4), (48, 1e-4))), lo=25.0, step=0.5)
# the same near h on eigenvector weights (bonds 7 and 40 at 1e-4): with 2 w_j
# for each pair the paired kernel missed the full sum by 4.3e-12
@example(spec=ChainSpec(47, -1.0, -1.0, ((7, 1e-4), (40, 1e-4))), lo=0.0, step=0.5)
# N = 4 with the middle bond as the bulk: zero (not a mirror chain), 1e-34
# (alpha^2 beyond 1/eps, refused) and 1/32 (the odd edge state far below the
# band, where 1 - tanh(m eta) / kappa must keep its digits)
@example(spec=ChainSpec(4, -1.0, -1.0, ((1, 1.0), (2, 0.0), (3, 1.0))), lo=0.0, step=0.5)
@example(spec=ChainSpec(4, -1.0, -1.0, ((1, 1.0), (2, 9.426825891337201e-35), (3, 1.0))), lo=0.0, step=0.5)
@example(spec=ChainSpec(4, -1.0, -1.0, ((1, 1.0), (2, 0.03125), (3, 1.0))), lo=100.0, step=0.5)
def test_parity_amplitude_matches_the_full_solve(spec, lo, step):
    hamiltonian = hamiltonian_of(spec)
    parity = transfer_spectrum(hamiltonian)
    full = eigendecompose(hamiltonian)
    assert isinstance(parity, TransferSpectrum) and parity.n_sites == spec.n_sites

    scale = np.max(np.abs(full.energies)) + 1.0
    assert np.max(np.abs(parity.energies - full.energies)) <= TOL * scale

    # one sample and an uneven grid have the single anchor 0; even grids are factored
    even = lo + step * np.arange(400)
    uneven = lo + step * np.arange(40) ** 1.5
    for times, factored in ((even[:1], False), (uneven, False), (even[:2], True), (even, True)):
        values, used_factored = amplitude(parity, times)
        assert used_factored == factored
        assert np.max(np.abs(values - full_sum(hamiltonian, times))) <= TOL


@pytest.mark.parametrize(
    "spec",
    [
        single_impurity(40, 0.7),
        single_impurity(41, 2.0, exchange_j=0.7, field_h=0.3),
        ChainSpec(9, -1.0, 0.2, ((1, 0.5), (7, 0.5))),
        ChainSpec(10, -1.3, 0.0, ((1, 0.4), (9, 0.41))),
    ],
)
def test_non_palindromic_chains_take_eigendecompose(spec):
    hamiltonian = hamiltonian_of(spec)
    with full_solve_spy() as spy:
        result = transfer_spectrum(hamiltonian)
    assert same_matrices([call.args[0] for call in spy.call_args_list], [hamiltonian])
    full = eigendecompose(hamiltonian)
    assert np.array_equal(result.energies, full.energies)
    assert np.array_equal(result.transfer_weights, full.vectors[:, 0] * full.vectors[:, -1])
    assert result.residual_bound == full.residual_bound


@pytest.mark.parametrize(
    "spec",
    [
        ChainSpec(60, -1.0, 0.3, ((20, 0.5), (40, 0.5))),
        ChainSpec(31, -0.8, 0.0, ((1, 0.5), (2, 0.7), (29, 0.7), (30, 0.5))),
    ],
)
def test_interior_impurities_take_eigendecompose(spec):
    # palindromic, but the bulk is not uniform: no phase equation
    hamiltonian = build_hamiltonian(spec)
    with full_solve_spy() as spy:
        result = transfer_spectrum(hamiltonian)
    assert same_matrices([call.args[0] for call in spy.call_args_list], [hamiltonian])
    assert not spectral._phase_rule(hamiltonian.diag[None], hamiltonian.offdiag[None])[0][1, 0]
    assert np.array_equal(result.transfer_weights, full_route(eigendecompose(hamiltonian)).transfer_weights)


def kernel_accepts(hamiltonian):
    """Whether the phase kernel with e = 2 ends passes every root of one mirror matrix."""
    _, alpha, field, bulk = spectral._phase_rule(hamiltonian.diag[None], hamiltonian.offdiag[None])
    n = hamiltonian.n_sites
    *_, ok = spectral._phase_states(n, np.arange(1, (n + 1) // 2 + 1), alpha, field, np.abs(bulk), 2)
    return bool(ok[0])


def full_solve_spy():
    return mock.patch.object(spectral, "eigendecompose", wraps=eigendecompose)


def mirror_route(hamiltonian):
    """transfer_spectrum of a mirror chain, asserting that no LAPACK routine ran."""
    with solver_spy() as lapack, full_solve_spy() as full:
        spectrum = transfer_spectrum(hamiltonian)
    assert not lapack and not full.called
    return spectrum


def assert_full_route_amplitude(result, hamiltonian, times):
    assert np.max(np.abs(transfer_amplitude(result, times) - full_sum(hamiltonian, times))) <= TOL


@pytest.mark.parametrize("n", [30, 31])
def test_palindromic_chains_solve_two_half_blocks(n):
    # the roots theta <= pi/2 alternate between the even (odd k) and the odd
    # (even k) reflection parity; the other half of the spectrum is their
    # chiral partners, E - h negated and the weight times (-1)^(N - 1)
    hamiltonian = build_hamiltonian(mirror_impurities(n, 0.5, field_h=0.3))
    with mock.patch.object(spectral, "_phase_roots", wraps=spectral._phase_roots) as roots:
        result = mirror_route(hamiltonian)
    (call,) = roots.call_args_list
    assert call.args[0].tolist() == list(range(1, (n + 1) // 2 + 1)) and call.args[3] == 2
    energies, weights = result.energies, result.transfer_weights
    half = (n + 1) // 2
    assert np.array_equal(energies[::-1][:half], 0.6 - energies[:half])
    assert np.array_equal(weights[::-1], (-1.0) ** (n - 1) * weights)
    assert np.array_equal(np.sign(weights[:half]), (-1.0) ** np.arange(half))
    assert np.all(np.diff(energies) > 0.0)


@pytest.mark.parametrize("n", [31, 200, 400])
@pytest.mark.parametrize("exchange_j, field_h", [(-1.0, 0.0), (-0.7, 0.4), (1.3, -0.2)])
def test_bordered_amplitude_matches_the_full_solve(n, exchange_j, field_h):
    # the uniform bulk bordered by the two impurity bonds
    times = np.arange(0.0, 0.75 * n, 0.25)
    for alpha in (0.005, 0.05, 0.3, 0.7, 1.0, 1.5, 2.0, 3.0):
        hamiltonian = hamiltonian_of(mirror_impurities(n, alpha, exchange_j=exchange_j,
                                                       field_h=field_h))
        assert_full_route_amplitude(mirror_route(hamiltonian), hamiltonian, times)


@pytest.mark.parametrize("n", [30, 31])
def test_zero_border_blocks_take_their_eigenvectors(n):
    # alpha = 0 decouples site 1: the whole chain takes eigendecompose, and
    # no root is solved
    hamiltonian = build_hamiltonian(mirror_impurities(n, 0.0, field_h=0.3))
    with full_solve_spy() as full, solver_spy() as lapack, \
            mock.patch.object(spectral, "_phase_roots", wraps=spectral._phase_roots) as roots:
        result = transfer_spectrum(hamiltonian)
    assert same_matrices([call.args[0] for call in full.call_args_list], [hamiltonian])
    assert not roots.called
    assert same_matrices(lapack, [hamiltonian])
    assert np.all(transfer_amplitude(result, np.arange(0.0, 40.0, 0.1)) == 0.0)


def refused(name):
    """A patch under which the phase route refuses every chain (refusal rule in the spectral docstring)."""
    phase_roots, newton = spectral._phase_roots, spectral._newton

    def moved(roots, n, a2, ends):
        # every root off by 1e-10 relative: only the residual check sees it
        sin, cos, theta, eta, ok = phase_roots(roots, n, a2, ends)
        theta = theta * (1.0 + 1e-10)
        return np.sin(theta), np.cos(theta), theta, eta, ok

    def shifted(evaluate, x, lo, hi):
        # each root handed to its neighbour's bracket: only the interlacing check sees it
        solved, settled = newton(evaluate, x, lo, hi)
        return np.roll(solved, -1), settled

    return {
        "residual": mock.patch.object(spectral, "_phase_roots", moved),
        "interlacing": mock.patch.object(spectral, "_newton", shifted),
        "no_convergence": mock.patch.object(spectral, "PHASE_STEP_TOL", -1.0),
    }[name]


@pytest.mark.parametrize("n, alpha", [(200, 1e-4), (200, 0.4), (41, 1.3), (40, 3.0)])
@pytest.mark.parametrize("failure", ["residual", "interlacing"])
def test_failed_phase_check_falls_back_to_eigenvectors(failure, n, alpha):
    # a failed check on any root sends the whole chain to one eigendecompose call
    hamiltonian = build_hamiltonian(mirror_impurities(n, alpha))
    with refused(failure):
        assert not kernel_accepts(hamiltonian)
        with full_solve_spy() as full:
            result = transfer_spectrum(hamiltonian)
    assert same_matrices([call.args[0] for call in full.call_args_list], [hamiltonian])
    assert_full_route_amplitude(result, hamiltonian, np.arange(0.0, 150.0, 0.05))


def test_block_residual_over_the_bound_is_a_convergence_failure():
    # the moved roots refuse the chain, and the noisy fallback full solve fails too
    hamiltonian = build_hamiltonian(mirror_impurities(200, 0.4))
    with refused("residual"), noisy_solver():
        with pytest.raises(ConvergenceFailure):
            transfer_spectrum(hamiltonian)


def test_block_solver_error_is_a_convergence_failure():
    # the refused chain falls back to eigendecompose, which fails too
    hamiltonian = build_hamiltonian(mirror_impurities(200, 0.4))
    with refused("no_convergence"), failed_solver():
        with pytest.raises(ConvergenceFailure):
            transfer_spectrum(hamiltonian)


def test_eigenvalue_solver_error_falls_back_to_one_full_solve():
    # roots that do not settle refuse the chain like a failed check does
    hamiltonian = build_hamiltonian(mirror_impurities(200, 0.4))
    with refused("no_convergence"), full_solve_spy() as full:
        result = transfer_spectrum(hamiltonian)
    assert same_matrices([call.args[0] for call in full.call_args_list], [hamiltonian])
    assert_full_route_amplitude(result, hamiltonian, np.arange(0.0, 150.0, 0.05))


@pytest.mark.parametrize("n", [31, 200])
def test_landscape_runs_no_solver(n):
    alphas = inclusive_grid(0.3, 1.0, 0.01)
    assert alphas.size == 71
    with solver_spy() as lapack, \
            mock.patch.object(spectral, "_phase_states", wraps=spectral._phase_states) as kernel:
        fidelity_landscape(mirror_impurities(n, 1.0), alphas, np.arange(0.0, 10.0, 0.5))
    assert not lapack
    # batches of at most PHASE_BATCH_ENTRIES roots, every alpha in one of them
    assert {call.args[-1] for call in kernel.call_args_list} == {2}
    sizes = [call.args[2].size for call in kernel.call_args_list]
    assert sum(sizes) == alphas.size and max(sizes) * ((n + 1) // 2) <= spectral.PHASE_BATCH_ENTRIES


def test_canonical_transfer_grid_takes_no_fallback():
    # every mirror chain of the benchmark grids, their seed shifts included:
    # scaling (N = 50-400, alpha = 0.3-1.01), the N = 31 landscape
    # (alpha = 0.1-1.52), the N = 200 mirror panels (alpha = 0.4-0.42) and
    # the uniform chains of oracle-check (alpha = 1, N = 2-12)
    chains = [mirror_impurities(n, 1.0) for n in (50, 100, 200, 400)]
    grids = [inclusive_grid(0.3, 1.01, 0.001)] * 4
    chains += [mirror_impurities(31, 1.0), mirror_impurities(200, 0.4)]
    grids += [inclusive_grid(0.1, 1.52, 0.002), inclusive_grid(0.4, 0.42, 0.001)]
    with full_solve_spy() as full:
        for template, alphas in zip(chains, grids):
            transfer_spectrum_batch(template, alphas)
        for n in range(2, 13):
            transfer_spectrum(build_hamiltonian(single_impurity(n, 1.0)))
    assert not full.called


@pytest.mark.parametrize("exchange_j, field_h", [(-1.0, 0.0), (-0.6, 0.4), (0.7, -1.1)])
def test_two_sites_are_two_one_by_one_blocks(exchange_j, field_h):
    # H = [[h, c], [c, h]]: E = h + c (even, w = +1/2) and h - c (odd, w = -1/2),
    # a uniform chain, read from the phase equation
    coupling = 0.8 * exchange_j
    result = mirror_route(TridiagonalHamiltonian([field_h, field_h], [coupling]))
    order = np.argsort([field_h + coupling, field_h - coupling])
    assert np.allclose(result.energies, np.array([field_h + coupling, field_h - coupling])[order],
                       rtol=0.0, atol=1e-15)
    assert np.allclose(result.transfer_weights, np.array([0.5, -0.5])[order], rtol=0.0, atol=1e-15)
    times = np.linspace(0.0, 20.0, 41)
    exact = -1j * np.exp(-1j * field_h * times) * np.sin(coupling * times)
    assert np.max(np.abs(transfer_amplitude(result, times) - exact)) <= TOL


@pytest.mark.parametrize("exchange_j, field_h", [(-1.0, 0.0), (-0.6, 0.4), (0.7, -1.1)])
def test_three_sites_join_the_middle_by_sqrt2(exchange_j, field_h):
    # E = h -+ sqrt(2)|c| (even, w = +1/4 each) and h (odd, w = -1/2): both
    # bonds are c = alpha J, a uniform chain, read from the phase equation;
    # at alpha = 1e-6 the levels are 1.4e-6 apart next to h, where
    # eigendecompose misses the weights by up to 1.9e-12
    for alpha in (1.3, 1e-6):
        coupling = alpha * exchange_j
        result = mirror_route(hamiltonian_of(mirror_impurities(3, alpha, exchange_j=exchange_j,
                                                               field_h=field_h)))
        split = math.sqrt(2.0) * abs(coupling)
        assert np.allclose(result.energies, [field_h - split, field_h, field_h + split],
                           rtol=0.0, atol=1e-15)
        assert np.allclose(result.transfer_weights, [0.25, -0.5, 0.25], rtol=0.0, atol=1e-15)
        times = np.linspace(0.0, 20.0, 41)
        exact = 0.5 * np.exp(-1j * field_h * times) * (np.cos(split * times) - 1.0)
        assert np.max(np.abs(transfer_amplitude(result, times) - exact)) <= TOL


@functools.lru_cache(maxsize=None)
def mirror_levels(n, ratio):
    """(lambda_k, w_k, IPR_k, C12_k) of the roots k = 1..ceil(N/2) of a mirror chain at 40 digits.

    ratio is alpha = end bond / bulk bond.  lambda_k = 2 cos theta_k
    (2 cosh eta below the band), w_k = psi_1 psi_N, IPR_k and
    C12_k = 2 |psi_1 psi_2| of the unit eigenvector of the matrix with bulk
    bonds 1 and end bonds alpha.  In the band root k
    solves G = (N - 1) theta + 2 atan2(alpha^2 sin theta, (2 - alpha^2) cos theta)
    - k pi in ((k - 1) pi / M, k pi / M), one interval lower for
    alpha^2 > 2, M = N - 1; for alpha^2 > 2 root 1 solves
    tanh(m eta) tanh(eta) = 1 / kappa and root 2 tan(m theta) = kappa tan theta
    (tanh(m eta) = kappa tanh eta below the band), m = (N - 1)/2,
    kappa = alpha^2 / (alpha^2 - 2).  The observables are summed directly
    over the bulk wave cos((c - n) theta) of odd k (even reflection parity)
    or sin((c - n) theta) of even k (odd parity), c = (N + 1)/2, cosh and
    sinh below the band, on sites 2..N - 1, and psi_1 = +-psi_N, its
    continuation to site 1 divided by alpha.
    """
    with mpmath.workdps(40):
        alpha = mpmath.mpf(ratio)
        a2 = alpha * alpha
        pi, tiny = mpmath.pi, mpmath.mpf(10) ** -30
        turns, m, c = n - 1, mpmath.mpf(n - 1) / 2, mpmath.mpf(n + 1) / 2
        kappa = a2 / (a2 - 2) if a2 > 2 else None
        levels = []
        for k in range(1, (n + 1) // 2 + 1):
            real = True
            if 2 * k == n + 1:
                angle = pi / 2
            elif kappa is not None and k == 1:
                angle, real = mpmath.findroot(
                    lambda e: mpmath.tanh(m * e) * mpmath.tanh(e) - 1 / kappa,
                    (mpmath.atanh(1 / kappa) * (1 - tiny), mpmath.atanh(1 / mpmath.sqrt(kappa))),
                    solver="anderson"), False
            elif kappa is not None and k == 2 and kappa > m:
                angle = mpmath.findroot(
                    lambda t: (mpmath.sin(m * t) * mpmath.cos(t) - kappa * mpmath.sin(t) * mpmath.cos(m * t)) / t,
                    (tiny, pi / (2 * m)), solver="anderson")
            elif kappa is not None and k == 2:
                angle, real = mpmath.findroot(
                    lambda e: mpmath.atanh(mpmath.tanh(m * e) / kappa) / e - 1,
                    (tiny, mpmath.atanh(1 / kappa)), solver="illinois"), False
            else:
                low = k - 1 if kappa is None else k - 2
                angle = mpmath.findroot(
                    lambda t: turns * t + 2 * mpmath.atan2(a2 * mpmath.sin(t), (2 - a2) * mpmath.cos(t)) - k * pi,
                    (low * pi / turns + tiny, (low + 1) * pi / turns - tiny), solver="illinois")
            wave = (mpmath.cos if k % 2 else mpmath.sin) if real else (mpmath.cosh if k % 2 else mpmath.sinh)
            bulk = [wave((c - j) * angle) for j in range(2, n)]
            first = wave((c - 1) * angle) / alpha
            norm = 2 * first**2 + mpmath.fsum(x * x for x in bulk)
            quartic = 2 * first**4 + mpmath.fsum(x**4 for x in bulk)
            levels.append((2 * (mpmath.cos if real else mpmath.cosh)(angle), (-1) ** (k + 1) * first**2 / norm,
                           norm * norm / quartic, 2 * abs(first * bulk[0]) / norm))
        return levels


def mirror_reference(hamiltonian):
    """Ascending energies and transfer weights of a mirror chain from mirror_levels, as floats."""
    n = hamiltonian.n_sites
    bulk = float(hamiltonian.offdiag[(n - 1) // 2])
    levels = mirror_levels(n, abs(float(hamiltonian.offdiag[0])) / abs(bulk))
    with mpmath.workdps(40):
        h, coupling = mpmath.mpf(hamiltonian.diag[0]), abs(mpmath.mpf(bulk))
        pair = (-1) ** (n - 1)
        low = [(h - coupling * ratio, weight * (pair if bulk > 0 else 1)) for ratio, weight, *_ in levels]
        high = [(2 * h - energy, pair * weight) for energy, weight in low[: n // 2]]
        states = low + high[::-1]
        return np.array([float(e) for e, _ in states]), np.array([float(w) for _, w in states])


SQRT2 = math.sqrt(2.0)


def odd_exit(n):
    """alpha where the odd edge state of a mirror chain leaves the band."""
    return math.sqrt(2.0 * (n - 1) / (n - 3))


MIRROR_ALPHAS = {
    "5e-5": lambda n: 5e-5,
    "0.005": lambda n: 0.005,
    "0.3": lambda n: 0.3,
    "0.7": lambda n: 0.7,
    "1.3": lambda n: 1.3,
    "sqrt2-1e-9": lambda n: SQRT2 - 1e-9,
    "sqrt2+1e-9": lambda n: SQRT2 + 1e-9,
    "exit-1e-9": lambda n: odd_exit(n) - 1e-9,
    "exit+1e-9": lambda n: odd_exit(n) + 1e-9,
    "2": lambda n: 2.0,
    "3": lambda n: 3.0,
}


@pytest.mark.parametrize("n", [40, 41, 200])
@pytest.mark.parametrize("alpha_of_n", MIRROR_ALPHAS.values(), ids=MIRROR_ALPHAS.keys())
def test_mirror_route_matches_40_digit_roots(n, alpha_of_n):
    # the band, both edge states in and below it next to their exits, and
    # deep below it; f_N goes through the paired kernel
    alpha = alpha_of_n(n)
    times = np.linspace(0.0, 1.5 * n, 301)
    for exchange_j, field_h in [(-1.0, 0.0), (-0.8, 0.3), (0.8, 0.3)]:
        hamiltonian = hamiltonian_of(mirror_impurities(n, alpha, exchange_j=exchange_j, field_h=field_h))
        spectrum = mirror_route(hamiltonian)
        energies, weights = mirror_reference(hamiltonian)
        scale = float(np.max(np.abs(energies))) + 1.0
        assert np.max(np.abs(spectrum.energies - energies)) <= TOL * scale
        exact = np.exp(-1j * np.outer(times, energies)) @ weights
        assert np.max(np.abs(transfer_amplitude(spectrum, times) - exact)) <= TOL


@pytest.mark.parametrize("n, alpha", [(200, 1e-7), (400, 1e-7), (800, 1e-6)])
def test_mirror_roots_on_their_interval_end_take_the_phase_route(n, alpha):
    # 2 beta is below an ulp of theta here, so roots round onto k pi / M,
    # the end of their interlacing interval: they are accepted there (the
    # strict interval check sent these chains to eigendecompose) and meet
    # the 40-digit roots, weight by weight
    for exchange_j, field_h in [(-1.0, 0.0), (-0.8, 0.3), (0.8, 0.3)]:
        hamiltonian = hamiltonian_of(mirror_impurities(n, alpha, exchange_j=exchange_j, field_h=field_h))
        spectrum = mirror_route(hamiltonian)
        energies, weights = mirror_reference(hamiltonian)
        scale = float(np.max(np.abs(energies))) + 1.0
        assert np.max(np.abs(spectrum.energies - energies)) <= TOL * scale
        assert np.all(np.abs(spectrum.transfer_weights - weights) <= 1e-11 * np.abs(weights))


@pytest.mark.parametrize("n, alpha", [(40, 0.07250366003714179), (50, 0.025160037409261798),
                                      (200, 0.034999999999999996), (400, 0.0043104122881937575)])
def test_the_centre_root_of_even_n_settles(n, alpha):
    # G of root k = N/2 carries the offset +pi/2 (M - 2k = -1); Newton stops
    # within PHASE_STEP_TOL eps of |offset| + M d + 2 beta, where a bound
    # with -offset refused these chains
    hamiltonian = build_hamiltonian(mirror_impurities(n, alpha))
    spectrum = mirror_route(hamiltonian)
    energies, weights = mirror_reference(hamiltonian)
    assert np.max(np.abs(spectrum.energies - energies)) <= TOL * (float(np.max(np.abs(energies))) + 1.0)
    assert np.all(np.abs(spectrum.transfer_weights - weights) <= 1e-11 * np.abs(weights))


@pytest.mark.parametrize("n", [31, 40, 41, 200])
def test_mirror_band_exits(n):
    # the even edge state (state 1) leaves the band at alpha^2 = 2 for every
    # N, the odd one (state 2) at alpha^2 = 2 (N - 1) / (N - 3); the band
    # edge of J = -1, h = 0 is -2
    for alpha, outside in [(SQRT2 - 1e-9, 0), (SQRT2 + 1e-9, 1), (odd_exit(n) - 1e-9, 1),
                           (odd_exit(n) + 1e-9, 2)]:
        hamiltonian = build_hamiltonian(mirror_impurities(n, alpha))
        energies = mirror_route(hamiltonian).energies
        assert np.sum(energies < -2.0) == np.sum(energies > 2.0) == outside
        assert np.array_equal(energies < -2.0, eigendecompose(hamiltonian).energies < -2.0)


def test_near_degenerate_mirror_chain_meets_40_digit_amplitude():
    # the pinned example above: exactly paired weights keep f_N through the
    # paired kernel at the accuracy of the full sum
    hamiltonian = build_hamiltonian(ChainSpec(49, -1.0, -1.0, ((1, 1e-4), (48, 1e-4))))
    energies, weights = mirror_reference(hamiltonian)
    times = 25.0 + 0.5 * np.arange(400)
    exact = np.exp(-1j * np.outer(times, energies)) @ weights
    assert np.max(np.abs(transfer_amplitude(mirror_route(hamiltonian), times) - exact)) <= 1e-14
    assert np.max(np.abs(full_sum(hamiltonian, times) - exact)) <= 1e-13


def mirror_states_reference(hamiltonian):
    """IPR and C_12 of every state of a mirror chain from mirror_levels: state j reads root min(j, N + 1 - j)."""
    n = hamiltonian.n_sites
    levels = mirror_levels(n, abs(float(hamiltonian.offdiag[0])) / abs(float(hamiltonian.offdiag[(n - 1) // 2])))
    roots = [min(j, n + 1 - j) for j in range(1, n + 1)]
    return (np.array([float(levels[k - 1][2]) for k in roots]),
            np.array([float(levels[k - 1][3]) for k in roots]))


MIRROR_STATE_ALPHAS = {
    "5e-4": lambda n: 5e-4,
    "0.7": lambda n: 0.7,
    "1.3": lambda n: 1.3,
    "sqrt2-1e-3": lambda n: SQRT2 - 1e-3,
    "sqrt2+1e-3": lambda n: SQRT2 + 1e-3,
    "1.6": lambda n: 1.6,
    "1.75": lambda n: 1.75,
    "exit-1e-9": lambda n: odd_exit(n) - 1e-9,
    "exit+1e-9": lambda n: odd_exit(n) + 1e-9,
    "3": lambda n: 3.0,
}


@pytest.mark.parametrize("n", [40, 41, 200])
@pytest.mark.parametrize("alpha_of_n", MIRROR_STATE_ALPHAS.values(), ids=MIRROR_STATE_ALPHAS.keys())
def test_mirror_ipr_and_c12_match_40_digit_roots(n, alpha_of_n):
    # the phase kernel with e = 2 ends: both bound pairs have their parity
    # states, equal IPR and C_12 within each pair; C_12 of the theta = pi/2
    # state of odd N is 0
    alpha = alpha_of_n(n)
    for exchange_j, field_h in [(-1.0, 0.0), (-0.8, 0.3), (0.8, 0.3)]:
        hamiltonian = hamiltonian_of(mirror_impurities(n, alpha, exchange_j=exchange_j, field_h=field_h))
        with solver_spy() as lapack, full_solve_spy() as full:
            ipr, c12 = eigenstate_ipr(hamiltonian, (1, n)), first_bond_c12(hamiltonian, (1, n))
        assert not lapack and not full.called
        for got, reference in zip((ipr, c12), mirror_states_reference(hamiltonian)):
            small = reference < 1e-14
            assert np.all(np.abs(got - reference)[~small] <= 1e-11 * reference[~small])
            assert np.all(np.abs(got - reference)[small] <= 1e-13)


@pytest.mark.parametrize("n", [40, 201])
def test_narrow_mirror_ranges_read_the_same_roots(n):
    # a range solves only its roots min(j, N + 1 - j), bit for bit as the full range
    hamiltonian = build_hamiltonian(mirror_impurities(n, 1.6, exchange_j=-0.8, field_h=0.3))
    for read in (first_bond_c12, eigenstate_ipr):
        every = read(hamiltonian, (1, n))
        for lo, hi in ((1, 1), (1, 2), (2, 3), (n // 2, n // 2 + 2), (n - 1, n)):
            assert np.array_equal(read(hamiltonian, (lo, hi)), every[lo - 1 : hi])


@pytest.mark.parametrize("command", ["concurrence-sweep", "ipr-sweep"])
def test_mirror_sweeps_run_no_lapack_at_positive_alpha(command, tmp_path):
    # N = 200 over alpha = 0.005..2: states 1 and 2 form a bound pair above
    # sqrt 2, whose parity states agree to all printed digits from alpha = 1.6
    out = tmp_path / "rows.csv"
    argv = [command, "--mirror", "--n", "200", "--alpha-range", "0.005:2:0.005", "--states", "1:4",
            "--out", str(out)]
    with mock.patch.object(spectral, "_eigh_rows", side_effect=AssertionError):
        assert main(argv) == 0
    values = np.loadtxt(out, delimiter=",", skiprows=1)[:, 2].reshape(400, 4)
    assert np.array_equal(values[319:, 0], values[319:, 1])
    # at alpha = 1.6 and 1.75 the rows meet the 40-digit parity roots
    for step in (319, 349):
        alpha = 0.005 * (step + 1)
        ipr, c12 = mirror_states_reference(build_hamiltonian(mirror_impurities(200, alpha)))
        reference = (ipr if command == "ipr-sweep" else c12)[:4]
        assert np.all(np.abs(values[step] - reference) <= 1e-11 * reference)
    if command == "concurrence-sweep":
        assert values[349, 0] == pytest.approx(0.3139, abs=5e-5)
    else:
        assert values[349, 0] == pytest.approx(7.76, abs=5e-3)
