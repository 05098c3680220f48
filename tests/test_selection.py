"""State ranges of the batches against the full solve.

first_bond_c12, eigenstate_ipr and their batches read the states lo..hi of
each row.  A row the phase route does not take reads them off the dense
solve of its whole matrix (routes.solver_spy records it), whose residuals
are all checked against max|E| over the whole spectrum; every such row here
holds the bits of eigendecompose.  A row
the phase route takes is compared with the same states of a full solve only
where the level gap is at least GAP_MIN * (max|E| + 1): inside a
near-degenerate pair (a decoupled site, or the two edge bound states of a
long mirror chain) the basis is LAPACK's arbitrary choice, and eigenvector
roundoff grows like eps ||H|| / gap.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from xxchain import spectral
from xxchain.chain import ChainSpec, build_hamiltonian, mirror_impurities, single_impurity, with_alpha
from xxchain.cli import main
from xxchain.dynamics import amplitude_matrix
from xxchain.errors import ConvergenceFailure
from xxchain.measures import c12_peak, c12_sweep, ipr_of_rows, ipr_sweep
from xxchain.spectral import RESIDUAL_TOL, SpectralDecomposition, eigendecompose, eigenstate_ipr, first_bond_c12

from routes import failed_solver, noisy_solver, same_matrices, solver_spy

GAP_MIN = 1e-4
# A bond-2 impurity moves the bulk with alpha: every row takes the dense solve.
BOND2 = ChainSpec(200, -1.0, 0.0, ((2, 1.6),))


def bond2_alphas(solved):
    """alpha of every bond-2 matrix in a solver_spy list."""
    return [hamiltonian.offdiag[1] / hamiltonian.offdiag[0] for hamiltonian in solved]


def sweep_rows(sweep):
    """(alpha, j, value) of every cell of a StateSweep, alpha by alpha."""
    return [(alpha, j, value) for alpha, row in zip(sweep.alphas.tolist(), sweep.values.tolist())
            for j, value in zip(sweep.states.tolist(), row)]


def decompose(hamiltonian):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # J > 0 sign warning; same physics
        return eigendecompose(hamiltonian)


def hamiltonian_of(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_hamiltonian(spec)


def observables(vectors):
    """(C_12, IPR) of eigenvector rows."""
    return 2.0 * np.abs(vectors[:, 0] * vectors[:, 1]), ipr_of_rows(vectors)


def ranged(hamiltonian, states):
    """(C_12, IPR) of the states lo..hi through the per-matrix batches."""
    return first_bond_c12(hamiltonian, states), eigenstate_ipr(hamiltonian, states)


@st.composite
def chains(draw):
    n = draw(st.integers(2, 120))
    bonds = draw(st.sets(st.integers(1, n - 1), max_size=min(4, n - 1)))
    impurities = tuple((bond, draw(st.floats(0.05, 2.5))) for bond in sorted(bonds))
    exchange_j = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 1.5))
    field_h = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.1, 2.0))
    return ChainSpec(n, exchange_j, field_h, impurities)


@st.composite
def ranges(draw, n):
    """A 1-based range lo..hi, narrow or wide at random."""
    count = draw(st.integers(1, n) if draw(st.booleans()) else st.integers(1, max(1, n // 16)))
    lo = draw(st.integers(1, n - count + 1))
    return lo, lo + count - 1


def residual_norms(hamiltonian, dec):
    out = dec.vectors * hamiltonian.diag
    out[:, :-1] += dec.vectors[:, 1:] * hamiltonian.offdiag
    out[:, 1:] += dec.vectors[:, :-1] * hamiltonian.offdiag
    out -= dec.energies[:, None] * dec.vectors
    return np.sqrt(np.sum(out * out, axis=1))


def level_gaps(energies):
    """Distance of each ascending level to its nearer neighbour."""
    gaps = np.diff(energies)
    return np.minimum(np.concatenate(([np.inf], gaps)), np.concatenate((gaps, [np.inf])))


def separated(energies, scale):
    """Mask of levels farther than GAP_MIN * scale from both neighbours."""
    return level_gaps(energies) >= GAP_MIN * scale


@settings(max_examples=200, deadline=None)
@given(data=st.data(), spec=chains())
def test_selected_range_matches_full_solve(data, spec):
    lo, hi = data.draw(ranges(spec.n_sites))
    hamiltonian = hamiltonian_of(spec)
    full = decompose(hamiltonian)
    assert full.vectors.shape == (spec.n_sites, spec.n_sites) and full.n_sites == spec.n_sites

    # the bound covers every pair of the solve
    scale = float(np.max(np.abs(full.energies))) + 1.0
    assert full.residual_bound <= RESIDUAL_TOL * scale
    assert np.max(residual_norms(hamiltonian, full)) <= full.residual_bound

    with solver_spy() as solved, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        values = ranged(hamiltonian, (lo, hi))
    references = observables(full.vectors[lo - 1 : hi])
    if solved:  # the states lo..hi of the same solve, bit for bit
        assert all(np.array_equal(value, reference) for value, reference in zip(values, references))
        return
    keep = separated(full.energies, scale)[lo - 1 : hi]
    for value, reference in zip(values, references):
        value, reference = value[keep], reference[keep]
        large = np.minimum(value, reference) >= 1e-14
        error = np.abs(value - reference)
        assert np.all(error[large] <= 1e-10 * reference[large]) and np.all(error[~large] <= 1e-13)


@settings(max_examples=100, deadline=None)
@given(spec=chains())
def test_eigendecompose_matches_an_mrrr_reference(spec):
    # scipy's eigh_tridiagonal with the stemr driver (MRRR) is another
    # algorithm than the dense eigh of eigendecompose.  Energies agree within
    # the residual tolerance; a separated vector agrees up to sign within the
    # Davis-Kahan bound, twice the sum of both residuals over the gap, plus
    # the norm roundoff
    hamiltonian = hamiltonian_of(spec)
    dec = decompose(hamiltonian)
    energies, columns = eigh_tridiagonal(hamiltonian.diag, hamiltonian.offdiag, lapack_driver="stemr")
    reference = SpectralDecomposition(energies, np.ascontiguousarray(columns.T), 0.0)
    scale = float(np.max(np.abs(energies))) + 1.0
    assert np.all(np.abs(dec.energies - energies) <= RESIDUAL_TOL * scale)
    keep = separated(energies, scale)
    signs = np.sign(np.sum(dec.vectors * reference.vectors, axis=1))
    distance = np.linalg.norm(dec.vectors - signs[:, None] * reference.vectors, axis=1)
    residual = dec.residual_bound + np.max(residual_norms(hamiltonian, reference))
    bound = 2.0 * residual / level_gaps(energies) + 1e-14
    assert np.all(distance[keep] <= bound[keep])


def test_wide_and_full_ranges_slice_a_full_solve():
    hamiltonian = build_hamiltonian(BOND2)
    full = eigendecompose(hamiltonian)
    for states in ((1, 1), (50, 52), (100, 111), (1, 13), (1, 100), (2, 100), (1, 200)):
        with solver_spy() as spy:
            c12 = first_bond_c12(hamiltonian, states)
        assert same_matrices(spy, [hamiltonian])
        lo, hi = states
        assert np.array_equal(c12, observables(full.vectors[lo - 1 : hi])[0])
        assert np.array_equal(eigenstate_ipr(hamiltonian, states), observables(full.vectors[lo - 1 : hi])[1])
    assert full.vectors.shape == (200, 200) and full.energies.size == full.n_sites == 200


@pytest.mark.parametrize("states", [(0, 1), (3, 2), (1, 41), (41, 41)])
def test_out_of_range_states_are_rejected(states):
    # a uniform chain takes the phase route, a bond-2 chain the dense solve
    for spec in (single_impurity(40, 1.0), ChainSpec(40, -1.0, 0.0, ((2, 1.6),))):
        for read in (first_bond_c12, eigenstate_ipr):
            with pytest.raises(ValueError):
                read(build_hamiltonian(spec), states)


@pytest.mark.parametrize("states", [(1, 1), None])
def test_solver_error_is_a_convergence_failure(states):
    # None: the full solve itself; a range: a row that reads it
    hamiltonian = build_hamiltonian(BOND2)
    with failed_solver():
        with pytest.raises(ConvergenceFailure):
            eigendecompose(hamiltonian) if states is None else first_bond_c12(hamiltonian, states)


def test_selected_residual_is_checked():
    hamiltonian = build_hamiltonian(BOND2)
    with noisy_solver():
        with pytest.raises(ConvergenceFailure):
            first_bond_c12(hamiltonian, (5, 5))


@pytest.mark.parametrize("n, alpha, states", [(8, 1e300, (2, 4)), (200, 1e10, (2, 3)), (200, 1e10, (2, 100))])
def test_ranges_are_checked_against_every_energy(n, alpha, states):
    # bond 1 at a huge alpha splits two states to about +-alpha |J|; alpha^2
    # beyond 1 / eps is refused by the phase route, and a range without the
    # split states reads the one full solve, held to RESIDUAL_TOL (max|E| + 1)
    # over all N energies (a bound over the read ones refused healthy solves)
    hamiltonian = build_hamiltonian(single_impurity(n, alpha))
    full = eigendecompose(hamiltonian)
    assert full.residual_bound <= RESIDUAL_TOL * (np.max(np.abs(full.energies)) + 1.0)
    with solver_spy() as solved:
        values = ranged(hamiltonian, states)
    assert same_matrices(solved, [hamiltonian, hamiltonian])
    lo, hi = states
    assert all(np.array_equal(value, reference)
               for value, reference in zip(values, observables(full.vectors[lo - 1 : hi])))
    assert np.max(np.abs(full.energies[lo - 1 : hi])) < 1e-6 * np.max(np.abs(full.energies))


def test_c12_sweep_reads_only_its_range():
    # a bond-2 impurity: bond-1 chains take the phase route (test_edge_c12.py)
    template = ChainSpec(60, -1.0, 0.0, ((2, 1.0),))
    alphas = np.linspace(0.1, 2.9, 15)
    with solver_spy() as solved:
        sweep = c12_sweep(template, alphas, [2, 3])
    assert bond2_alphas(solved) == pytest.approx(alphas)
    assert sweep.states.tolist() == [2, 3] and sweep.values.shape == (15, 2)
    for alpha, j, value in sweep_rows(sweep):
        full = eigendecompose(build_hamiltonian(with_alpha(template, alpha)))
        assert abs(value - 2.0 * abs(full.vectors[j - 1, 0] * full.vectors[j - 1, 1])) <= 1e-12


def test_ipr_sweep_matches_full_solve():
    # a bond-2 chain reads the eigenvectors of its full solve, bit for bit; a bond-1
    # chain reads the phase route, within round-off of them
    alphas = (0.3, 1.7)
    cases = [(ChainSpec(40, -1.0, 0.0, ((2, 1.0),)), 0.0), (single_impurity(40, 1.0), 1e-12)]
    for template, tolerance in cases:
        assert ipr_sweep(template, alphas, []).values.shape == (2, 0)
        for alpha, j, value in sweep_rows(ipr_sweep(template, alphas, [3, 4, 5])):
            full = eigendecompose(build_hamiltonian(with_alpha(template, alpha)))
            assert abs(value - ipr_of_rows(full.vectors)[j - 1]) <= tolerance * value


def test_c12_peak_refine_solves_one_state():
    # bond 1: the phase route solves root 17 alone; bond 2: the dense solve reads state 17
    alphas = np.linspace(0.1, 2.0, 20)
    template = single_impurity(60, 0.8)
    with solver_spy() as spy, mock.patch.object(
        spectral, "_phase_states", wraps=spectral._phase_states
    ) as phases:
        c12_peak(template, 17, alphas)
    assert not spy
    grid, *refine = phases.call_args_list
    assert grid.args[2].size == alphas.size and refine  # the refine step ran after the grid
    assert {tuple(call.args[1]) for call in phases.call_args_list} == {(17,)}
    with solver_spy() as spy:
        c12_peak(ChainSpec(60, -1.0, 0.0, ((2, 0.8),)), 17, alphas)
    solved = bond2_alphas(spy)
    assert solved[: alphas.size] == pytest.approx(alphas) and len(solved) > alphas.size
    with pytest.raises(ValueError):
        c12_peak(template, 61, alphas)


def test_concurrence_sweep_cli_matches_full_solve(tmp_path):
    out = tmp_path / "c12.csv"
    code = main(
        ["concurrence-sweep", "--n", "60", "--alpha-range", "0:3:0.05", "--states", "1:1",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,j,value"
    assert len(lines) == 1 + 61
    for line in lines[1:]:
        alpha, j, value = line.split(",")
        assert j == "1"
        full = eigendecompose(build_hamiltonian(single_impurity(60, float(alpha))))
        assert abs(float(value) - 2.0 * abs(full.vectors[0, 0] * full.vectors[0, 1])) <= 1e-12


@pytest.mark.parametrize("states", [(2, 40), (1, 39), (1, 1)])
def test_amplitude_matrix_needs_a_complete_basis(states):
    # a state range of the full solve is refused where it would be built
    full = eigendecompose(build_hamiltonian(mirror_impurities(40, 0.5)))
    lo, hi = states
    with pytest.raises(ValueError):
        SpectralDecomposition(full.energies[lo - 1 : hi], full.vectors[lo - 1 : hi], full.residual_bound)
    assert amplitude_matrix(full, [0.0], 1)[0] == pytest.approx(np.eye(40)[0], abs=1e-12)
