"""The phase route solves a whole alpha grid in one batch.

The batches (first_bond_c12_batch, eigenstate_ipr_batch,
transfer_spectrum_batch) take a template and an alpha array, build the
grid's matrices once as one stack and read every row's route off it; the
per-matrix entry points are grids of one row, a stack of one matrix, through
the same code.  These tests pin that each row of the stack is the matrix
build_hamiltonian builds, bit for bit, and gets the route of that matrix as
a stack of one, that a grid gives, alpha by alpha, the bits, the route and
the typed error of the per-matrix call, that a refused row leaves the other
rows alone, and that the benchmark grids run no LAPACK routine at
alpha > 0.  Every row the phase route does not take, and every row of
energies_batch, is solved densely in stacks of at most _EIGH_ENTRIES
entries (routes.solver_spy records each matrix); each matrix of a stack
gets the bits of eigendecompose and is checked on its own.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest

from xxchain import spectral
from xxchain.chain import (
    ChainSpec,
    build_hamiltonian,
    mirror_impurities,
    parse_chain_config,
    single_impurity,
    with_alpha,
)
from xxchain.dynamics import fidelity
from xxchain.errors import ConvergenceFailure, CouplingSignWarning, NegativeAlpha, NonFiniteParameter
from xxchain.measures import c12_sweep, ipr_of_rows, ipr_sweep
from xxchain.protocols import fidelity_landscape, inclusive_grid
from xxchain.spectral import eigendecompose, eigenstate_ipr, energies_batch, first_bond_c12, transfer_spectrum

from routes import failed_solver, full_route, noisy_solver, same_matrices, solver_spy

SQRT2 = math.sqrt(2.0)
TIMES = np.arange(0.0, 30.0, 0.25)


def grid(n):
    """alpha = 0, 1e-7, sqrt2 -+ 1e-12, both band exits -+ 1e-9, 1, 3, 1e6 and 1e8.

    The phase route refuses alpha = 1e8, where alpha^2 is beyond 1 / eps.
    """
    exits = [math.sqrt(2.0 * n / (n - 1))] + ([math.sqrt(2.0 * (n - 1) / (n - 3))] if n > 3 else [])
    alphas = [0.0, 1e-7, SQRT2 - 1e-12, SQRT2 + 1e-12, 1.0, 3.0, 1e6, 1e8]
    alphas += [exit + step for exit in exits for step in (-1e-9, 1e-9)]
    return sorted(alphas)


CONFIG = parse_chain_config("n_sites = 12\nexchange_j = -0.8\nfield_h = 0.3\nimpurities = 1:1, 5:1\n")

TEMPLATES = {
    "bond1-2": single_impurity(2, 1.0),
    "bond1-3": single_impurity(3, 1.0, exchange_j=0.7, field_h=-0.4),
    "bond1-40": single_impurity(40, 1.0, exchange_j=-0.8, field_h=0.3),
    "bond1-41-J>0": single_impurity(41, 1.0, exchange_j=0.8, field_h=0.3),
    "mirror-3": mirror_impurities(3, 1.0, field_h=0.5),
    "mirror-40-J>0": mirror_impurities(40, 1.0, exchange_j=1.1, field_h=-0.2),
    "mirror-41": mirror_impurities(41, 1.0, exchange_j=-0.8, field_h=0.3),
    "uniform-41": ChainSpec(41, -1.0, 0.3),
    "config-bonds-1-5": CONFIG,
}


def hamiltonian_of(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # J > 0 sign warning; same physics
        return build_hamiltonian(spec)


def per_matrix(template, alphas, solve):
    """solve of every grid alpha, one matrix at a time, and bond 1 of every matrix solved densely."""
    return batched(lambda: [solve(hamiltonian_of(with_alpha(template, alpha))) for alpha in alphas])


def batched(run):
    """run() under solver_spy, and bond 1 of every matrix solved densely."""
    with solver_spy() as solved, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        values = run()
    return values, [float(hamiltonian.offdiag[0]) for hamiltonian in solved]


@pytest.mark.parametrize("template", TEMPLATES.values(), ids=TEMPLATES.keys())
def test_the_batch_matches_a_batch_of_one(template):
    # bit for bit, with the same alphas sent to the dense solve
    alphas = grid(template.n_sites)
    n = template.n_sites
    for states in {(1, n), (1, 1), (n // 2 + 1, n)}:
        js = range(states[0], states[1] + 1)
        for sweep_of, solve in ((c12_sweep, first_bond_c12), (ipr_sweep, eigenstate_ipr)):
            sweep, batch_route = batched(lambda: sweep_of(template, alphas, js))
            values, single_route = per_matrix(template, alphas, lambda ham: solve(ham, states))
            assert sweep.alphas.tolist() == alphas and sweep.states.tolist() == list(js)
            assert np.array_equal(sweep.values, values)
            assert batch_route == single_route
    grid_f, batch_route = batched(lambda: fidelity_landscape(template, alphas, TIMES).fidelities)
    spectra, single_route = per_matrix(template, alphas, transfer_spectrum)
    assert batch_route == single_route
    for row, spectrum in zip(grid_f, spectra):
        assert np.array_equal(row, fidelity(spectrum, TIMES))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch = spectral.transfer_spectrum_batch(template, alphas)
    for spectrum, single in zip(batch, spectra):
        assert np.array_equal(spectrum.energies, single.energies)
        assert np.array_equal(spectrum.transfer_weights, single.transfer_weights)
        assert spectrum.residual_bound == single.residual_bound


@pytest.mark.parametrize("ends", [1, 2])
@pytest.mark.parametrize("template", TEMPLATES.values(), ids=TEMPLATES.keys())
def test_the_template_rule_matches_the_matrix_rule(template, ends):
    # row i of the grid's stack is build_hamiltonian(with_alpha(template, alpha_i))
    # bit for bit (alpha = 0 with J < 0 puts -0.0 on the impurity bonds of
    # both), and (ok, alpha, h, J) of the row is that of the matrix as a
    # stack of one
    alphas = np.array(grid(template.n_sites))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        diag, offdiag, (ok, *chains) = spectral._grid(template, alphas)
    assert diag.shape == (alphas.size, template.n_sites) and offdiag.shape == (alphas.size, template.n_sites - 1)
    for i, alpha in enumerate(alphas):
        hamiltonian = hamiltonian_of(with_alpha(template, alpha))
        assert diag[i].tobytes() == hamiltonian.diag.tobytes()
        assert offdiag[i].tobytes() == hamiltonian.offdiag.tobytes()
        if alpha == 0.0 and template.exchange_j < 0.0:
            assert all(np.signbit(offdiag[i, bond - 1]) for bond, _ in template.impurities)
        single_diag, single_offdiag, (single_ok, *single) = spectral._grid(hamiltonian, None)
        assert single_diag.shape == (1, template.n_sites) and single_diag.tobytes() == hamiltonian.diag.tobytes()
        assert single_offdiag.tobytes() == hamiltonian.offdiag.tobytes()
        assert single_ok[ends - 1].tobytes() == ok[ends - 1, i : i + 1].tobytes()
        for got, want in zip(single, chains):
            assert got.tobytes() == want[i : i + 1].tobytes()


def test_the_routes_follow_the_matrix():
    # bond-1 and mirror chains take the phase route at every alpha of the
    # grid but 0 and 1e8; the uniform chain at every alpha; the config chain
    # with impurities on bonds 1 and 5 only at alpha = 1, where it is uniform
    alphas = grid(41)
    solved = per_matrix(TEMPLATES["bond1-41-J>0"], alphas, lambda ham: first_bond_c12(ham, (1, 41)))[1]
    assert solved == [0.0, 0.8e8]
    assert per_matrix(TEMPLATES["mirror-41"], alphas, transfer_spectrum)[1] == [0.0, -0.8e8]
    assert per_matrix(TEMPLATES["uniform-41"], alphas, transfer_spectrum)[1] == []
    alphas = grid(12)
    solved = per_matrix(CONFIG, alphas, lambda ham: first_bond_c12(ham, (1, 12)))[1]
    assert solved == [alpha * -0.8 for alpha in alphas if alpha != 1.0]


@pytest.mark.parametrize("sweep_of", [c12_sweep, ipr_sweep])
def test_typed_errors_match_a_batch_of_one(sweep_of):
    template = single_impurity(40, 1.0)
    alphas = grid(40)
    # a range outside 1..N is a ValueError for the grid as for one matrix
    with pytest.raises(ValueError):
        first_bond_c12(build_hamiltonian(template), (1, 41))
    with pytest.raises(ValueError):
        sweep_of(template, alphas, range(1, 42))
    # a negative strength, or one whose energy bound |h| + 2 max|coupling|
    # overflows, fails to build, in the grid as on its own: the first such
    # alpha raises, with the same message, before any solve
    for bad, error in (([-0.5, 1e308], NegativeAlpha), ([1e308, -0.5], NonFiniteParameter)):
        with pytest.raises(error) as single:
            build_hamiltonian(with_alpha(template, bad[0]))
        with mock.patch.object(spectral, "_phase_states", side_effect=AssertionError), \
                pytest.raises(error) as batch:
            sweep_of(template, [*alphas, *bad], range(1, 41))
        assert str(batch.value) == str(single.value)
    # with the solver failing, exactly the alphas that the dense solve takes
    # fail on their own, and a grid holding one of them fails alike
    with failed_solver():
        failed = []
        for alpha in alphas:
            try:
                first_bond_c12(build_hamiltonian(with_alpha(template, alpha)), (1, 40))
            except ConvergenceFailure:
                failed.append(alpha)
        assert failed == [0.0, 1e8]
        with pytest.raises(ConvergenceFailure):
            sweep_of(template, alphas, range(1, 41))
        kept = [alpha for alpha in alphas if alpha not in failed]
        assert sweep_of(template, kept, range(1, 41)).values.shape == (len(kept), 40)


def test_a_grid_validates_its_template_once():
    # a J > 0 template warns once, though no alpha builds a matrix, and a
    # template without impurities ignores alpha
    with mock.patch.object(spectral, "build_hamiltonian", side_effect=AssertionError), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert c12_sweep(TEMPLATES["bond1-41-J>0"], [0.5, 1.0, 2.0], range(1, 42)).values.shape == (3, 41)
    assert [warning.category for warning in caught] == [CouplingSignWarning]
    assert ipr_sweep(ChainSpec(12), [-1.0, math.inf], range(1, 13)).values.shape == (2, 12)


@pytest.mark.parametrize("ends", [1, 2])
def test_a_refused_row_sends_only_its_alpha_to_eigendecompose(ends):
    alphas = inclusive_grid(0.1, 2.5, 0.1)
    refused = alphas[7]
    phase_roots = spectral._phase_roots

    def refusing(roots, n, a2, ends):
        *solved, ok = phase_roots(roots, n, a2, ends)
        return (*solved, ok & (np.abs(a2 - refused * refused) > 1e-12))

    template = (single_impurity if ends == 1 else mirror_impurities)(60, 1.0, exchange_j=-0.8, field_h=0.3)
    if ends == 1:
        run = lambda: c12_sweep(template, alphas, range(1, 61))  # noqa: E731
    else:
        run = lambda: fidelity_landscape(template, alphas, TIMES).fidelities  # noqa: E731
    with mock.patch.object(spectral, "_phase_roots", refusing):
        values, solved = batched(run)
    assert solved == [pytest.approx(-0.8 * refused)]
    expected, _ = batched(run)
    if ends == 1:
        values, expected = values.values, expected.values
    kept = np.arange(alphas.size) != 7
    assert np.array_equal(values[kept], expected[kept])
    assert np.allclose(values[7], expected[7], rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize("read", ["transfer", "ipr", "c12"])
def test_a_refused_row_is_dropped_before_its_arithmetic(read):
    # first = norm = S_4 = 0 in a refused row would divide 0 by 0
    alphas = inclusive_grid(0.1, 2.5, 0.1)
    refused = alphas[7]
    phase_states = spectral._phase_states

    def zeroed(n, roots, alpha, *args):
        energies, first, second, norm, quartic, residual, passed = phase_states(n, roots, alpha, *args)
        row = np.abs(alpha - refused) < 1e-12
        first[row] = norm[row] = quartic[row] = 0.0
        return energies, first, second, norm, quartic, residual, passed & ~row

    template = mirror_impurities(40, 1.0, exchange_j=-0.8, field_h=0.3)
    solve = {"transfer": lambda: spectral.transfer_spectrum_batch(template, alphas),
             "ipr": lambda: spectral.eigenstate_ipr_batch(template, alphas, (1, 40)),
             "c12": lambda: spectral.first_bond_c12_batch(template, alphas, (1, 40))}[read]
    with mock.patch.object(spectral, "_phase_states", zeroed), warnings.catch_warnings():
        warnings.simplefilter("error")
        row = solve()[7]
    dec = eigendecompose(build_hamiltonian(with_alpha(template, refused)))
    if read == "transfer":
        expected = full_route(dec)
        assert np.array_equal(row.energies, expected.energies)
        assert np.array_equal(row.transfer_weights, expected.transfer_weights)
    else:
        vectors = dec.vectors
        expected = ipr_of_rows(vectors) if read == "ipr" else 2.0 * np.abs(vectors[:, 0] * vectors[:, 1])
        assert np.array_equal(row, expected)


def test_benchmark_sweep_grids_run_no_lapack_at_positive_alpha():
    # the ipr-sweep and concurrence-sweep grids of N = 200 without alpha = 0,
    # for J = -1 and for J = -0.8, h = 0.3
    alphas = 0.005 * np.arange(1, 601)
    for template in (single_impurity(200, 1.0), single_impurity(200, 1.0, exchange_j=-0.8, field_h=0.3)):
        with solver_spy() as lapack:
            assert ipr_sweep(template, alphas, range(1, 201)).values.shape == (600, 200)
            assert c12_sweep(template, alphas, range(1, 2)).values.shape == (600, 1)
            assert c12_sweep(template, alphas, range(2, 101)).values.shape == (600, 99)
        assert not lapack


def stack_length(n):
    return max(1, spectral._EIGH_ENTRIES // (n * n))


@pytest.mark.parametrize("template", TEMPLATES.values(), ids=TEMPLATES.keys())
def test_the_stacked_solve_matches_a_stack_of_one(template):
    # bit for bit, for a grid of one alpha, one whole stack and one stack + 1,
    # with every matrix built from the template as build_hamiltonian builds it
    n = template.n_sites
    for length in sorted({1, stack_length(n), stack_length(n) + 1}):
        alphas = np.round(np.linspace(0.0, 3.0, length), 12) if length > 1 else np.array([0.0])
        single = [eigendecompose(hamiltonian_of(with_alpha(template, alpha))) for alpha in alphas]
        with solver_spy() as solved, mock.patch.object(spectral, "_eigh_rows", wraps=spectral._eigh_rows) as stacks, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            energies = energies_batch(template, alphas)
        assert np.array_equal(energies, [dec.energies for dec in single])
        assert same_matrices(solved, [hamiltonian_of(with_alpha(template, alpha)) for alpha in alphas])
        assert [len(call.args[0]) for call in stacks.call_args_list] == \
            [min(stack_length(n), length - start) for start in range(0, length, stack_length(n))]
        diag = np.full((alphas.size, n), template.field_h)
        offdiag = np.array([hamiltonian_of(with_alpha(template, alpha)).offdiag for alpha in alphas])
        _, vectors, bounds = spectral._eigh_rows(diag, offdiag)
        assert np.array_equal(vectors, [dec.vectors for dec in single])
        assert bounds.tolist() == [dec.residual_bound for dec in single]


def test_noise_in_one_matrix_of_a_stack_is_refused():
    # each matrix is held to its own residual bound, wherever it sits in its stack
    template = single_impurity(40, 1.0, exchange_j=-0.8, field_h=0.3)
    alphas = 0.25 * np.arange(stack_length(40))
    assert energies_batch(template, alphas).shape == (alphas.size, 40)
    for matrix in (0, alphas.size // 2, alphas.size - 1):
        with noisy_solver(matrix), pytest.raises(ConvergenceFailure):
            energies_batch(template, alphas)


def test_the_energy_batch_checks_its_grid_before_it_solves():
    # like the other batches: the first alpha that fails to build raises its
    # own error, and a J > 0 template warns once
    template = single_impurity(40, 1.0)
    for bad, error in (([-0.5, 1e308], NegativeAlpha), ([1e308, -0.5], NonFiniteParameter)):
        with pytest.raises(error) as single:
            build_hamiltonian(with_alpha(template, bad[0]))
        with mock.patch.object(spectral, "_eigh_rows", side_effect=AssertionError), pytest.raises(error) as batch:
            energies_batch(template, [0.5, *bad])
        assert str(batch.value) == str(single.value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        energies_batch(TEMPLATES["bond1-41-J>0"], 0.1 * np.arange(30))
    assert [warning.category for warning in caught] == [CouplingSignWarning]
