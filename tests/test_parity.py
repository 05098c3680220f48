"""The reflection-parity route of spectral.transfer_spectrum.

A palindromic chain is solved as two half-size blocks and yields only the
energies and the transfer weights psi_1 psi_N.  Each block is solved from
the cached modes of its bulk and its own eigenvalues, and a one-site block
is exact.  If either block has border 0, a failed bulk or eigenvalue solve
or fails the bordered checks, the whole chain takes eigendecompose instead.
Tests that mock a solver clear the bulk cache first (fresh_bulk_cache, in
conftest.py), so that the mock is reached.  The checks compare f_N(t)
against the full eigendecomposition rather than per-state weights: above
alpha = sqrt(2) the two bound-state pairs are degenerate to 1e-10 or better,
and the full solve returns an arbitrary mix of each pair, whose weights
differ from the parity weights while the sum over the pair does not.
"""

import contextlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, eigh_tridiagonal, eigvalsh_tridiagonal

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
from xxchain.spectral import TransferSpectrum, eigendecompose, sweep, transfer_spectrum

from routes import factorings, full_route

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


@settings(max_examples=150, deadline=None)
@given(spec=palindromic_chains(), lo=st.floats(0.0, 100.0), step=st.floats(1e-3, 0.5))
# tiny inner bonds: block levels sit next to bulk modes that barely touch
# site 1, and the completeness check must refuse those blocks
@example(spec=ChainSpec(60, -1.0, 0.3, ((20, 1e-6), (40, 1e-6))), lo=0.0, step=0.5)
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
        reference, _ = amplitude(full_route(full), times)
        assert used_factored == factored
        assert np.max(np.abs(values - reference)) <= TOL


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
    spy.assert_called_once_with(hamiltonian)
    full = eigendecompose(hamiltonian)
    assert np.array_equal(result.energies, full.energies)
    assert np.array_equal(result.transfer_weights, full.vectors[:, 0] * full.vectors[:, -1])
    assert result.residual_bound == full.residual_bound


def solver_spies():
    """Spies on the vector solve (bulks and eigendecompose) and the eigenvalue-only solve."""
    return (mock.patch.object(spectral, "_eigh_rows", wraps=spectral._eigh_rows),
            mock.patch.object(spectral, "eigvalsh_tridiagonal", wraps=eigvalsh_tridiagonal))


def full_solve_spy():
    return mock.patch.object(spectral, "eigendecompose", wraps=eigendecompose)


def sizes(spy):
    return [call.args[0].size for call in spy.call_args_list]


def assert_full_route_amplitude(result, hamiltonian, times):
    reference = full_route(eigendecompose(hamiltonian))
    assert np.max(np.abs(transfer_amplitude(result, times) - transfer_amplitude(reference, times))) <= TOL


@pytest.mark.parametrize("n", [30, 31])
def test_palindromic_chains_solve_two_half_blocks(n, fresh_bulk_cache):
    hamiltonian = build_hamiltonian(mirror_impurities(n, 0.5, field_h=0.3))
    vectors, values = solver_spies()
    with full_solve_spy() as full, vectors as bulk, values as energies:
        transfer_spectrum(hamiltonian)
    assert not full.called
    # one eigenvalue-only solve per block, eigenvectors of its bulk only
    assert sizes(energies) == [(n + 1) // 2, n // 2]
    assert sizes(bulk) == [(n + 1) // 2 - 1, n // 2 - 1]


@pytest.mark.parametrize("n", [31, 200, 400])
@pytest.mark.parametrize("exchange_j, field_h", [(-1.0, 0.0), (-0.7, 0.4), (1.3, -0.2)])
def test_bordered_amplitude_matches_the_full_solve(n, exchange_j, field_h):
    times = np.arange(0.0, 0.75 * n, 0.25)
    for alpha in (0.005, 0.05, 0.3, 0.7, 1.0, 1.5, 2.0, 3.0):
        hamiltonian = hamiltonian_of(mirror_impurities(n, alpha, exchange_j=exchange_j,
                                                       field_h=field_h))
        assert_full_route_amplitude(transfer_spectrum(hamiltonian), hamiltonian, times)


@pytest.mark.parametrize("n", [30, 31])
def test_zero_border_blocks_take_their_eigenvectors(n, fresh_bulk_cache):
    # alpha = 0 decouples site 1: the whole chain takes eigendecompose, and
    # no block or bulk is solved on its own
    hamiltonian = build_hamiltonian(mirror_impurities(n, 0.0, field_h=0.3))
    vectors, values = solver_spies()
    with full_solve_spy() as full, vectors as solve, values as energies:
        result = transfer_spectrum(hamiltonian)
    full.assert_called_once_with(hamiltonian)
    assert not energies.called
    assert sizes(solve) == [n]
    assert np.all(transfer_amplitude(result, np.arange(0.0, 40.0, 0.1)) == 0.0)


def repeated_lowest_level(*args, **kwargs):
    energies = eigvalsh_tridiagonal(*args, **kwargs)
    energies[1] = energies[0]
    return energies


@pytest.mark.parametrize("failure", ["completeness", "interlacing"])
def test_failed_bordered_check_falls_back_to_eigenvectors(failure, fresh_bulk_cache):
    # a failed check on either block alone sends the whole chain to one
    # eigendecompose call; a failed even block ends the block loop
    hamiltonian = build_hamiltonian(mirror_impurities(200, 0.4))

    def broken():
        if failure == "completeness":
            return mock.patch.object(spectral, "COMPLETENESS_TOL", -1.0)
        return mock.patch.object(spectral, "eigvalsh_tridiagonal", side_effect=repeated_lowest_level)

    bordered = spectral._bordered_block
    for failing in (0, 1):
        results = []

        def block(diag, offdiag):
            with broken() if len(results) == failing else contextlib.nullcontext():
                results.append(bordered(diag, offdiag))
            return results[-1]

        with mock.patch.object(spectral, "_bordered_block", side_effect=block), \
                full_solve_spy() as full:
            result = transfer_spectrum(hamiltonian)
        full.assert_called_once_with(hamiltonian)
        assert [solved is None for solved in results] == [False] * failing + [True]
        assert_full_route_amplitude(result, hamiltonian, np.arange(0.0, 150.0, 0.05))


def test_block_residual_over_the_bound_is_a_convergence_failure(fresh_bulk_cache):
    # the noisy bulk refuses the block, and the fallback full solve fails too
    hamiltonian = build_hamiltonian(mirror_impurities(200, 0.4))

    def noisy(*args, **kwargs):
        energies, columns = eigh_tridiagonal(*args, **kwargs)
        return energies, columns + 1e-7

    with mock.patch.object(spectral, "eigh_tridiagonal", side_effect=noisy):
        with pytest.raises(ConvergenceFailure):
            transfer_spectrum(hamiltonian)


def test_block_solver_error_is_a_convergence_failure(fresh_bulk_cache):
    # the failed bulk solve refuses the block, and the fallback fails too
    hamiltonian = build_hamiltonian(mirror_impurities(200, 0.4))
    with mock.patch.object(spectral, "eigh_tridiagonal", side_effect=LinAlgError("no convergence")):
        with pytest.raises(ConvergenceFailure):
            transfer_spectrum(hamiltonian)


def test_eigenvalue_solver_error_falls_back_to_one_full_solve(fresh_bulk_cache):
    # a failed dsterf refuses the block like a failed check does
    hamiltonian = build_hamiltonian(mirror_impurities(200, 0.4))
    with mock.patch.object(spectral, "eigvalsh_tridiagonal", side_effect=LinAlgError("no convergence")), \
            full_solve_spy() as full:
        result = transfer_spectrum(hamiltonian)
    full.assert_called_once_with(hamiltonian)
    assert_full_route_amplitude(result, hamiltonian, np.arange(0.0, 150.0, 0.05))


@pytest.mark.parametrize("n", [31, 200])
def test_landscape_solves_each_parity_bulk_once(n, fresh_bulk_cache):
    alphas = inclusive_grid(0.3, 1.0, 0.01)
    assert alphas.size == 71
    vectors, values = solver_spies()
    with vectors as solve, values as energies:
        fidelity_landscape(mirror_impurities(n, 1.0), alphas, np.arange(0.0, 10.0, 0.5))
    assert sizes(solve) == [(n + 1) // 2 - 1, n // 2 - 1]
    assert energies.call_count == 2 * alphas.size


def test_canonical_transfer_grid_takes_no_fallback(fresh_bulk_cache):
    alphas = inclusive_grid(0.3, 1.0, 0.01)
    bordered, results = spectral._bordered_block, []

    def recorded(diag, offdiag):
        results.append(bordered(diag, offdiag))
        return results[-1]

    with mock.patch.object(spectral, "_bordered_block", side_effect=recorded):
        for n in (50, 100, 200, 400):
            for _ in sweep(mirror_impurities(n, 1.0), alphas, transfer_spectrum):
                pass
    assert len(results) == 2 * 4 * alphas.size
    assert all(result is not None for result in results)


@pytest.mark.parametrize("exchange_j, field_h", [(-1.0, 0.0), (-0.6, 0.4), (0.7, -1.1)])
def test_two_sites_are_two_one_by_one_blocks(exchange_j, field_h, fresh_bulk_cache):
    # H = [[h, c], [c, h]]: E = h + c (even, w = +1/2) and h - c (odd, w = -1/2)
    coupling = 0.8 * exchange_j
    vectors, values = solver_spies()
    with full_solve_spy() as full, vectors as solve, values as energies:
        result = transfer_spectrum(TridiagonalHamiltonian([field_h, field_h], [coupling]))
    # both blocks are one site: no solver runs
    assert not (full.called or solve.called or energies.called)
    order = np.argsort([field_h + coupling, field_h - coupling])
    assert np.allclose(result.energies, np.array([field_h + coupling, field_h - coupling])[order],
                       rtol=0.0, atol=1e-15)
    assert np.allclose(result.transfer_weights, np.array([0.5, -0.5])[order], rtol=0.0, atol=1e-15)
    times = np.linspace(0.0, 20.0, 41)
    exact = -1j * np.exp(-1j * field_h * times) * np.sin(coupling * times)
    assert np.max(np.abs(transfer_amplitude(result, times) - exact)) <= TOL


@pytest.mark.parametrize("exchange_j, field_h", [(-1.0, 0.0), (-0.6, 0.4), (0.7, -1.1)])
def test_three_sites_join_the_middle_by_sqrt2(exchange_j, field_h, fresh_bulk_cache):
    # E = h -+ sqrt(2)|c| (even, w = +1/4 each) and h (odd, w = -1/2); at
    # alpha = 1e-6 the even levels sit next to the bulk mode h, and the
    # refinement must still give their weights to round-off
    for alpha in (1.3, 1e-6):
        spectral._bulk_modes.cache_clear()
        coupling = alpha * exchange_j
        hamiltonian = hamiltonian_of(mirror_impurities(3, alpha, exchange_j=exchange_j,
                                                       field_h=field_h))
        vectors, values = solver_spies()
        with full_solve_spy() as full, vectors as solve, values as energies:
            result = transfer_spectrum(hamiltonian)
        # the two-site even block solves its one-site bulk; the odd block is one site
        assert not full.called
        assert sizes(solve) == [1] and sizes(energies) == [2]
        split = math.sqrt(2.0) * abs(coupling)
        assert np.allclose(result.energies, [field_h - split, field_h, field_h + split],
                           rtol=0.0, atol=1e-15)
        assert np.allclose(result.transfer_weights, [0.25, -0.5, 0.25], rtol=0.0, atol=1e-15)
        times = np.linspace(0.0, 20.0, 41)
        exact = 0.5 * np.exp(-1j * field_h * times) * (np.cos(split * times) - 1.0)
        assert np.max(np.abs(transfer_amplitude(result, times) - exact)) <= TOL
