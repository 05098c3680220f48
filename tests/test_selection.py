"""State ranges of eigendecompose against the full solve.

eigendecompose(h, states=(lo, hi)) slices one full solve, whose residuals
are all checked against max|E| over the whole spectrum.  Every check here
compares the returned pairs with the same states of a full solve.  Vectors
and C_12 are compared only for states whose level gap is at least
GAP_MIN * (max|E| + 1): inside a near-degenerate pair (a decoupled site, or
the two edge bound states of a long mirror chain) the basis is LAPACK's
arbitrary choice, and eigenvector roundoff grows like eps ||H|| / gap.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, eigh_tridiagonal

from xxchain import spectral
from xxchain.chain import ChainSpec, build_hamiltonian, mirror_impurities, single_impurity, with_alpha
from xxchain.cli import main
from xxchain.dynamics import amplitude_matrix
from xxchain.errors import ConvergenceFailure, IncompleteBasis
from xxchain.measures import c12_peak, c12_sweep, ipr_of_rows, ipr_sweep
from xxchain.spectral import RESIDUAL_TOL, SpectralDecomposition, eigendecompose

GAP_MIN = 1e-4


def spy_solver():
    return mock.patch("scipy.linalg.eigh_tridiagonal", wraps=eigh_tridiagonal)


def decompose(hamiltonian, states=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # J > 0 sign warning; same physics
        return eigendecompose(hamiltonian, states)


def hamiltonian_of(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_hamiltonian(spec)


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


def separated(energies, scale):
    """Mask of levels farther than GAP_MIN * scale from both neighbours."""
    gaps = np.diff(energies)
    left = np.concatenate(([np.inf], gaps))
    right = np.concatenate((gaps, [np.inf]))
    return np.minimum(left, right) >= GAP_MIN * scale


@settings(max_examples=200, deadline=None)
@given(data=st.data(), spec=chains())
def test_selected_range_matches_full_solve(data, spec):
    lo, hi = data.draw(ranges(spec.n_sites))
    hamiltonian = hamiltonian_of(spec)
    full = decompose(hamiltonian)
    part = decompose(hamiltonian, (lo, hi))

    assert part.first_state == lo
    assert part.n_sites == spec.n_sites
    assert part.vectors.shape == (hi - lo + 1, spec.n_sites)
    scale = float(np.max(np.abs(full.energies))) + 1.0
    assert np.max(np.abs(part.energies - full.energies[lo - 1 : hi])) <= 1e-12 * scale

    # the bound covers every pair of the solve, the returned ones among them
    assert part.residual_bound == full.residual_bound <= RESIDUAL_TOL * scale
    assert np.max(residual_norms(hamiltonian, part)) <= part.residual_bound

    keep = separated(full.energies, scale)[lo - 1 : hi]
    reference = full.vectors[lo - 1 : hi][keep]
    assert np.max(np.abs(part.vectors[keep] - reference), initial=0.0) <= 1e-10
    c12 = 2.0 * np.abs(part.vectors[:, 0] * part.vectors[:, 1])[keep]
    assert np.max(np.abs(c12 - 2.0 * np.abs(reference[:, 0] * reference[:, 1])), initial=0.0) <= 1e-12


def test_wide_and_full_ranges_slice_a_full_solve():
    hamiltonian = build_hamiltonian(single_impurity(200, 1.6))
    full = eigendecompose(hamiltonian)
    for states in ((1, 1), (50, 52), (100, 111), (1, 13), (1, 100), (2, 100), (1, 200)):
        with spy_solver() as spy:
            part = eigendecompose(hamiltonian, states)
        assert spy.call_count == 1 and not spy.call_args.kwargs
        lo, hi = states
        assert np.array_equal(part.energies, full.energies[lo - 1 : hi])
        assert np.array_equal(part.vectors, full.vectors[lo - 1 : hi])
    assert full.first_state == 1 and full.energies.size == full.n_sites == 200


@pytest.mark.parametrize("states", [(0, 1), (3, 2), (1, 41), (41, 41)])
def test_out_of_range_states_are_rejected(states):
    with pytest.raises(ValueError):
        eigendecompose(build_hamiltonian(single_impurity(40, 1.0)), states)


@pytest.mark.parametrize("states", [(1, 1), None])
def test_solver_error_is_a_convergence_failure(states):
    hamiltonian = build_hamiltonian(single_impurity(200, 1.0))
    with mock.patch("scipy.linalg.eigh_tridiagonal", side_effect=LinAlgError("no convergence")):
        with pytest.raises(ConvergenceFailure):
            eigendecompose(hamiltonian, states)


def test_selected_residual_is_checked():
    hamiltonian = build_hamiltonian(single_impurity(200, 1.0))

    def noisy(*args, **kwargs):
        energies, columns = eigh_tridiagonal(*args, **kwargs)
        return energies, columns + 1e-7

    with mock.patch("scipy.linalg.eigh_tridiagonal", side_effect=noisy):
        with pytest.raises(ConvergenceFailure):
            eigendecompose(hamiltonian, (5, 5))


@pytest.mark.parametrize("n, alpha, states", [(8, 1e300, (2, 4)), (200, 1e10, (2, 3)), (200, 1e10, (2, 100))])
def test_ranges_are_checked_against_every_energy(n, alpha, states):
    # bond 1 at a huge alpha splits two states to about +-alpha |J|; a range
    # without them is still one solve, held to RESIDUAL_TOL (max|E| + 1) over
    # all N energies (a bound over the returned ones refused healthy solves)
    hamiltonian = build_hamiltonian(single_impurity(n, alpha))
    full = eigendecompose(hamiltonian)
    part = eigendecompose(hamiltonian, states)
    assert part.residual_bound == full.residual_bound <= RESIDUAL_TOL * (np.max(np.abs(full.energies)) + 1.0)
    lo, hi = states
    assert np.array_equal(part.vectors, full.vectors[lo - 1 : hi])
    assert np.max(np.abs(part.energies)) < 1e-6 * np.max(np.abs(full.energies))


def test_c12_sweep_reads_only_its_range():
    # a bond-2 impurity: bond-1 chains take the phase route (test_edge_c12.py)
    template = ChainSpec(60, -1.0, 0.0, ((2, 1.0),))
    alphas = np.linspace(0.1, 2.9, 15)
    with mock.patch.object(spectral, "eigendecompose", wraps=eigendecompose) as spy:
        rows = c12_sweep(template, alphas, [2, 3])
    assert [call.args[1] for call in spy.call_args_list] == [(2, 3)] * 15
    assert [row[1] for row in rows] == [2, 3] * 15
    for alpha, j, value in rows:
        full = eigendecompose(build_hamiltonian(with_alpha(template, alpha)))
        assert abs(value - 2.0 * abs(full.vectors[j - 1, 0] * full.vectors[j - 1, 1])) <= 1e-12


def test_ipr_sweep_matches_full_solve():
    # a bond-2 chain reads the selected eigenvectors, bit for bit; a bond-1
    # chain reads the phase route, within round-off of them
    alphas = (0.3, 1.7)
    cases = [(ChainSpec(40, -1.0, 0.0, ((2, 1.0),)), 0.0), (single_impurity(40, 1.0), 1e-12)]
    for template, tolerance in cases:
        assert ipr_sweep(template, alphas, []) == []
        rows = ipr_sweep(template, alphas, [3, 4, 5])
        for alpha, j, value in rows:
            full = eigendecompose(build_hamiltonian(with_alpha(template, alpha)))
            assert abs(value - ipr_of_rows(full.vectors)[j - 1]) <= tolerance * value


def test_c12_peak_refine_solves_one_state():
    # bond 1: the phase route solves root 17 alone; bond 2: eigendecompose reads state 17
    alphas = np.linspace(0.1, 2.0, 20)
    template = single_impurity(60, 0.8)
    with spy_solver() as spy, mock.patch.object(
        spectral, "_phase_states", wraps=spectral._phase_states
    ) as phases:
        c12_peak(template, 17, alphas)
    assert not spy.called
    grid, *refine = phases.call_args_list
    assert grid.args[2].size == alphas.size and refine  # the refine step ran after the grid
    assert {tuple(call.args[1]) for call in phases.call_args_list} == {(17,)}
    with mock.patch.object(spectral, "eigendecompose", wraps=eigendecompose) as spy:
        c12_peak(ChainSpec(60, -1.0, 0.0, ((2, 0.8),)), 17, alphas)
    calls = spy.call_args_list
    assert len(calls) > alphas.size
    assert {call.args[1] for call in calls} == {(17, 17)}
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


def test_explicit_decomposition_defaults_to_a_complete_basis():
    dec = SpectralDecomposition(energies=np.arange(4.0), vectors=np.eye(4), residual_bound=0.0)
    assert dec.first_state == 1
    assert dec.n_sites == 4


@pytest.mark.parametrize("states", [(2, 40), (1, 39), (1, 1)])
def test_amplitude_matrix_needs_a_complete_basis(states):
    dec = eigendecompose(build_hamiltonian(mirror_impurities(40, 0.5)), states)
    with pytest.raises(IncompleteBasis):
        amplitude_matrix(dec, [0.0], 1)
