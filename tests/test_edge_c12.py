"""The eigenvector-free route of spectral.first_bond_c12.

Site 1 borders the bulk H[2:, 2:].  When that bulk is uniform (every bond-1
chain at every alpha, the mirror chain at alpha = 1), a wide state range
reads C_12 of every state from dsterf energies refined in offset form
against the cached bulk modes.  These tests pin that route against
eigendecompose and against a 40-digit mpmath root of the edge-bond secular
equation, and check which matrices and states take which route: alpha = 0,
a failed check, a refinement that does not converge and a solver failure
fall back to eigendecompose(H, (lo, hi)); narrow ranges and bulks that are
not uniform never leave it.  Tests that mock a solver clear the bulk cache
first (fresh_bulk_cache, in conftest.py).
"""

import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError

from xxchain import spectral
from xxchain.chain import (
    ChainSpec,
    TridiagonalHamiltonian,
    build_hamiltonian,
    mirror_impurities,
    single_impurity,
)
from xxchain.errors import ConvergenceFailure
from xxchain.measures import c12_sweep
from xxchain.spectral import eigendecompose, first_bond_c12

# Pairs of values both at or above TINY agree within a relative REL_TOL,
# others within an absolute ABS_TOL: an exact zero, such as C_12 of the
# E = h state of an odd chain, comes out of either route as round-off.
TINY = 1e-14
REL_TOL = 1e-10
ABS_TOL = 1e-13


def hamiltonian_of(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # J > 0 sign warning; same physics
        return build_hamiltonian(spec)


def eigenvector_c12(hamiltonian, states=None):
    vectors = eigendecompose(hamiltonian, states).vectors
    return 2.0 * np.abs(vectors[:, 0] * vectors[:, 1])


def selection_spy():
    return mock.patch.object(spectral, "eigendecompose", wraps=eigendecompose)


def bordered_block_spy():
    return mock.patch.object(spectral, "_bordered_block", wraps=spectral._bordered_block)


def bordered_c12(hamiltonian):
    """first_bond_c12 of every state, asserting that it took the bordered route."""
    with selection_spy() as selected:
        values = first_bond_c12(hamiltonian, (1, hamiltonian.n_sites))
    assert not selected.called
    return values


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
    hamiltonian = hamiltonian_of(spec)
    assert_close(bordered_c12(hamiltonian), eigenvector_c12(hamiltonian))


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
    for values in (bordered_c12(hamiltonian), eigenvector_c12(hamiltonian)):
        got = values[np.array(states) - 1]
        assert np.all(np.abs(got - reference) <= 1e-11 * reference)


def test_wide_bond1_sweep_solves_the_bulk_once(fresh_bulk_cache):
    template = single_impurity(200, 1.0)
    alphas = 0.005 * np.arange(401)
    with mock.patch.object(spectral, "_eigh_rows", wraps=spectral._eigh_rows) as solve, \
            selection_spy() as selected:
        rows = c12_sweep(template, alphas, range(2, 101))
    # alpha = 0 solves the whole chain; every other alpha reuses the one bulk
    assert [call.args[0].size for call in solve.call_args_list] == [200, 199]
    assert selected.call_count == 1
    hamiltonian, states = selected.call_args.args
    assert np.array_equal(hamiltonian.offdiag, build_hamiltonian(single_impurity(200, 0.0)).offdiag)
    assert states == (2, 100)
    assert len(rows) == 401 * 99


@pytest.mark.parametrize(
    "template, states",
    [
        (single_impurity(200, 1.0), (2, 13)),
        (single_impurity(200, 1.0), (1, 1)),
        (mirror_impurities(200, 1.0), (2, 100)),
        (ChainSpec(60, -1.0, 0.0, ((1, 1.0), (30, 1.0))), (1, 60)),
    ],
)
def test_narrow_ranges_and_moving_bulks_take_eigendecompose(template, states):
    alphas = [0.0, 0.5, 1.5]
    with bordered_block_spy() as bordered, selection_spy() as selected:
        c12_sweep(template, alphas, range(states[0], states[1] + 1))
    assert not bordered.called
    assert [call.args[1] for call in selected.call_args_list] == [states] * len(alphas)


def test_mirror_chain_at_alpha_1_takes_the_bordered_route(fresh_bulk_cache):
    # at alpha = 1 the mirror chain is uniform, so its bulk is too; at any
    # other alpha the last bond moves the bulk
    template = mirror_impurities(200, 1.0, exchange_j=-0.8, field_h=0.3)
    alphas = [0.5, 1.0, 1.5]
    with bordered_block_spy() as bordered, selection_spy() as selected:
        rows = c12_sweep(template, alphas, range(2, 101))
    assert bordered.call_count == 1
    assert [call.args[0].offdiag[-1] for call in selected.call_args_list] == pytest.approx([-0.4, -1.2])
    reference = eigenvector_c12(build_hamiltonian(template), (2, 100))
    assert_close([value for alpha, _, value in rows if alpha == 1.0], reference)


@pytest.mark.parametrize("site, bordered", [(1, True), (2, False), (120, False)])
def test_a_moved_bulk_diagonal_takes_eigendecompose(site, bordered, fresh_bulk_cache):
    # site 1 is the border; a moved diagonal entry on sites 2..N moves the bulk
    diag = np.full(120, 0.3)
    diag[site - 1] += 1e-3
    offdiag = np.full(119, -0.8)
    offdiag[0] *= 0.6
    hamiltonian = TridiagonalHamiltonian(diag, offdiag)
    with bordered_block_spy() as block, selection_spy() as selected:
        values = first_bond_c12(hamiltonian, (1, 120))
    assert block.called == bordered
    assert [call.args[1] for call in selected.call_args_list] == ([] if bordered else [(1, 120)])
    assert_close(values, eigenvector_c12(hamiltonian))


def refused(name):
    """A patch under which _bordered_block refuses every chain."""
    return {
        "failed_check": mock.patch.object(spectral, "COMPLETENESS_TOL", -1.0),
        "no_convergence": mock.patch.object(spectral, "OFFSET_STEP_TOL", -1.0),
        "dsterf_error": mock.patch.object(
            spectral, "eigvalsh_tridiagonal", side_effect=LinAlgError("no convergence")
        ),
    }[name]


@pytest.mark.parametrize("failure", ["failed_check", "no_convergence", "dsterf_error"])
def test_refused_alphas_fall_back_to_eigendecompose(failure, fresh_bulk_cache):
    template = single_impurity(120, 1.0, exchange_j=-0.8, field_h=0.3)
    alphas = [0.2, 0.9]
    with refused(failure):
        hamiltonian = build_hamiltonian(template)
        assert spectral._bordered_block(hamiltonian.diag, hamiltonian.offdiag) is None
        with selection_spy() as selected:
            rows = c12_sweep(template, alphas, range(1, 121))
    assert [call.args[1] for call in selected.call_args_list] == [(1, 120)] * len(alphas)
    expected = [value for alpha in alphas
                for value in eigenvector_c12(build_hamiltonian(single_impurity(
                    120, alpha, exchange_j=-0.8, field_h=0.3)), (1, 120))]
    assert [row[2] for row in rows] == expected


def test_failed_solvers_are_a_convergence_failure(fresh_bulk_cache):
    template = single_impurity(120, 1.0)
    with refused("dsterf_error"), mock.patch.object(
        spectral, "eigh_tridiagonal", side_effect=LinAlgError("no convergence")
    ):
        with pytest.raises(ConvergenceFailure):
            c12_sweep(template, [0.5], range(1, 121))
