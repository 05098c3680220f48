import re
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from xxchain import oracle, spectral
from xxchain.chain import (
    ChainSpec,
    bond_couplings,
    build_hamiltonian,
    mirror_impurities,
    single_impurity,
    with_alpha,
)
from xxchain.cli import main
from xxchain.dynamics import amplitude_matrix, transfer_amplitude
from xxchain.errors import ExcitationLeak, NotNormalized, TooLarge
from xxchain.measures import nn_concurrence_closed_form
from xxchain.oracle import (
    FullState,
    ancilla_evolve,
    bell_pair_state,
    full_evolve,
    full_hamiltonian,
    one_excitation_indices,
    oracle_check,
    oracle_concurrence,
    sector_block,
    site_state,
    sz_sector_probabilities,
)
from xxchain.spectral import eigendecompose, transfer_spectrum

from routes import blockings, pairings


def test_two_site_full_hamiltonian_explicit():
    spec = ChainSpec(2, -1.0, 0.5, ((1, 0.4),))
    matrix = full_hamiltonian(spec)
    h, aj = 0.5, 0.4 * -1.0
    expected = np.array(
        [
            [-h, 0.0, 0.0, 0.0],
            [0.0, h, aj, 0.0],
            [0.0, aj, h, 0.0],
            [0.0, 0.0, 0.0, 3.0 * h],
        ]
    )
    assert np.allclose(matrix, expected, atol=1e-15)


def test_sector_block_equals_sector_matrix():
    for alpha in (0.4, 1.0, 3.0):
        spec = single_impurity(5, alpha, field_h=0.3)
        block = sector_block(full_hamiltonian(spec), 5)
        assert np.max(np.abs(block - build_hamiltonian(spec).to_dense())) <= 1e-12


def test_full_hamiltonian_commutes_with_total_sz():
    spec = single_impurity(3, 0.7)
    matrix = full_hamiltonian(spec)
    indices = np.arange(8)
    excitations = np.array([bin(i).count("1") for i in indices], dtype=float)
    sz = np.diag(3.0 - 2.0 * excitations)
    assert np.max(np.abs(matrix @ sz - sz @ matrix)) <= 1e-12


def test_decoupled_impurity_bond_at_zero_alpha():
    spec = single_impurity(4, 0.0)
    matrix = full_hamiltonian(spec)
    indices = one_excitation_indices(4)
    assert matrix[indices[0], indices[1]] == 0.0
    assert build_hamiltonian(spec).offdiag[0] == 0.0


def test_full_evolution_identity_norm_and_sector_conservation():
    spec = single_impurity(6, 0.4)
    start = site_state(spec, 1)
    assert np.allclose(full_evolve(spec, start, 0.0).amps, start.amps, atol=1e-12)
    evolved = full_evolve(spec, start, 7.3)
    assert abs(np.sum(np.abs(evolved.amps) ** 2) - 1.0) <= 1e-9
    sectors = sz_sector_probabilities(evolved)
    assert sectors[1] == pytest.approx(1.0, abs=1e-9)


def test_sector_propagation_matches_full_space():
    spec = single_impurity(8, 0.4)
    dec = eigendecompose(build_hamiltonian(spec))
    indices = one_excitation_indices(8)
    for t in (1.0, 5.0, 20.0):
        full = full_evolve(spec, site_state(spec, 1), t)
        assert np.max(np.abs(full.amps[indices] - amplitude_matrix(dec, [t])[0])) <= 1e-8


def test_ancilla_protocol_concurrence_equals_transfer_amplitude():
    spec = single_impurity(6, 0.4)
    spectrum = transfer_spectrum(build_hamiltonian(spec))
    for t in (1.0, 3.5, 9.0):
        state = ancilla_evolve(spec, t)
        traced = oracle_concurrence(state, 1, 7)
        assert traced == pytest.approx(abs(transfer_amplitude(spectrum, t)), abs=1e-8)


def test_bell_pair_state_layout():
    state = bell_pair_state(4)
    assert state.n_qubits == 5
    nonzero = np.nonzero(state.amps)[0]
    assert set(nonzero) == {2**3, 2**4}
    assert np.allclose(state.amps[nonzero], 1.0 / np.sqrt(2.0))


def test_oracle_concurrence_bell_and_product():
    bell = FullState(np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0), 2)
    assert oracle_concurrence(bell, 1, 2) == pytest.approx(1.0, abs=1e-10)
    product = FullState(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex), 2)
    assert oracle_concurrence(product, 1, 2) == pytest.approx(0.0, abs=1e-10)


def test_oracle_concurrence_validates_eigenstate_closed_form():
    spec = single_impurity(7, 1.5)
    dec = eigendecompose(build_hamiltonian(spec))
    vector = dec.vectors[0]
    amps = np.zeros(2**7, dtype=complex)
    amps[one_excitation_indices(7)] = vector
    state = FullState(amps, 7)
    for site in (1, 3, 6):
        expected = nn_concurrence_closed_form(vector, site)
        assert oracle_concurrence(state, site, site + 1) == pytest.approx(expected, abs=1e-8)


def test_size_limits():
    with pytest.raises(TooLarge):
        full_hamiltonian(ChainSpec(13))
    big = FullState(np.eye(1, 2**14, 0, dtype=complex).ravel(), 14)
    with pytest.raises(TooLarge):
        oracle_concurrence(big, 1, 2)


def test_full_state_validation():
    with pytest.raises(NotNormalized):
        FullState(np.ones(4, dtype=complex), 2)
    with pytest.raises(ValueError):
        FullState(np.array([1.0, 0.0], dtype=complex), 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_full_state_refuses_non_finite_amplitudes(bad):
    amps = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    amps[2] = bad
    with pytest.raises(NotNormalized, match="finite"):
        FullState(amps, 2)


def test_oracle_check_passes_for_small_chains():
    results = oracle_check([single_impurity(n, 1.0) for n in (2, 4, 6)], times=(1.0, 5.0))
    assert all(result.passed for result in results)
    assert all(result.block_dev <= 1e-12 for result in results)


@pytest.mark.parametrize("grid", [{"alphas": ()}, {"times": ()}])
def test_oracle_check_refuses_an_empty_grid(grid):
    with pytest.raises(ValueError, match="nonempty"):
        oracle_check([single_impurity(4, 1.0)], **grid)


def kronecker_reference(spec):
    """The dense Pauli assembly written out with numpy.kron, term by term."""
    n = spec.n_sites
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    flip_flop = (np.kron(sx, sx) + np.kron(sy, sy)).real

    def embed(op, qubit):
        width = op.shape[0].bit_length() - 1
        return np.kron(np.kron(np.eye(2**qubit), op), np.eye(2 ** (n - qubit - width)))

    matrix = np.zeros((2**n, 2**n))
    for bond, coupling in enumerate(bond_couplings(spec)):
        matrix += 0.5 * coupling * embed(flip_flop, bond)
    if spec.field_h != 0.0:
        for qubit in range(n):
            matrix -= spec.field_h * embed(sz, qubit)
        matrix += spec.field_h * (n - 1) * np.eye(2**n)
    return matrix


@pytest.mark.parametrize(
    "spec",
    [
        ChainSpec(2, -1.0, 0.0, ((1, 0.4),)),
        single_impurity(5, 3.0),
        ChainSpec(6, 0.7, -0.3, ((1, 0.4), (3, 0.0), (5, 1.3))),
        mirror_impurities(6, 0.45, exchange_j=1.2, field_h=0.25),
    ],
)
def test_full_hamiltonian_equals_the_kronecker_reference(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # J > 0 sign warning; same matrix
        matrix = full_hamiltonian(spec)
    assert matrix.dtype == np.float64
    assert np.array_equal(matrix, kronecker_reference(spec))


@st.composite
def oracle_chains(draw):
    """Random or mirror impurity layouts, either J sign, nonzero field."""
    n = draw(st.integers(2, 8))
    exchange_j = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 1.5))
    field_h = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.1, 2.0))
    if n >= 3 and draw(st.booleans()):
        alpha = draw(st.floats(0.0, 3.0))
        return mirror_impurities(n, alpha, exchange_j=exchange_j, field_h=field_h)
    bonds = draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=n - 1))
    impurities = tuple((bond, draw(st.floats(0.0, 3.0))) for bond in sorted(bonds))
    return ChainSpec(n, exchange_j, field_h, impurities)


@settings(max_examples=60, deadline=None)
@given(spec=oracle_chains(), t=st.floats(0.1, 20.0))
# block levels 7e-7 from their bulk mode: the refinement must keep the digits of E - mu
@example(spec=mirror_impurities(3, 1e-6, exchange_j=0.5, field_h=2.0), t=1.0)
def test_full_space_agrees_with_the_sector_on_random_chains(spec, t):
    n = spec.n_sites
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # J > 0 sign warning; same physics
        sector = build_hamiltonian(spec)
        block = sector_block(full_hamiltonian(spec), n)
        forward = full_evolve(spec, site_state(spec, 1), t)
        backward = full_evolve(spec, site_state(spec, 1), -t)
        ancilla = ancilla_evolve(spec, t)
    dec = eigendecompose(sector)
    indices = one_excitation_indices(n)
    assert np.max(np.abs(block - sector.to_dense())) <= 1e-12
    assert np.max(np.abs(forward.amps[indices] - amplitude_matrix(dec, [t])[0])) <= 1e-12
    f_n = forward.amps[indices[-1]]
    assert abs(oracle_concurrence(ancilla, 1, n + 1) - abs(f_n)) <= 1e-12
    assert abs(transfer_amplitude(transfer_spectrum(sector), t) - f_n) <= 1e-12
    for state in (forward, backward, ancilla):
        assert abs(np.sum(np.abs(state.amps) ** 2) - 1.0) <= 1e-12
    assert abs(f_n) <= 1.0 + 1e-12
    assert abs(backward.amps[indices[-1]] - np.conj(f_n)) <= 1e-12
    # +-E pairing: each block's hopping part is bipartite; its diagonal is h (2k - 1)
    spectrum = oracle._full_eigh(spec)
    for number in range(n + 1):
        energies, _ = spectrum.block_eigh(number)
        hopping = energies - spec.field_h * (2 * number - 1)
        assert np.max(np.abs(hopping + hopping[::-1])) <= 1e-12
    if all(dict(spec.impurities).get(n - bond) == alpha for bond, alpha in spec.impurities):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return_amp = full_evolve(spec, site_state(spec, n), t).amps[indices[-1]]
        assert abs(return_amp - forward.amps[indices[0]]) <= 1e-12  # mirror parity


@pytest.mark.parametrize("n", [2, 4, 6])
def test_full_evolve_matches_dense_expm(n):
    spec = ChainSpec(n, -1.0, 0.3, tuple({1: 0.4, n - 1: 1.7}.items()))
    rng = np.random.default_rng(n)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    initial = FullState(amps / np.linalg.norm(amps), n)  # every excitation number populated
    matrix = full_hamiltonian(spec)
    for t in (0.7, 5.0, 13.0):
        reference = expm(-1j * matrix * t) @ initial.amps
        assert np.max(np.abs(full_evolve(spec, initial, t).amps - reference)) <= 1e-12


@contextmanager
def eigh_spy():
    """Fresh oracle caches and the matrices numpy.linalg.eigh is called with."""
    calls = []
    eigh = np.linalg.eigh

    def recorded(matrix, *args, **kwargs):
        calls.append(np.array(matrix))
        return eigh(matrix, *args, **kwargs)

    oracle._full_eigh.cache_clear()
    try:
        with mock.patch.object(oracle.np.linalg, "eigh", side_effect=recorded):
            yield calls
    finally:
        oracle._full_eigh.cache_clear()


def test_only_the_occupied_blocks_are_diagonalized():
    spec = single_impurity(7, 0.4, field_h=0.2)
    block = sector_block(full_hamiltonian(spec), 7)[::-1, ::-1]  # ascending basis index
    with eigh_spy() as calls:
        full_evolve(spec, site_state(spec, 1), 3.0)
        full_evolve(spec, site_state(spec, 4), -2.0)
    assert len(calls) == 1 and np.array_equal(calls[0], block)
    with eigh_spy() as calls:
        ancilla_evolve(spec, 3.0)
        ancilla_evolve(spec, 8.0)
    assert [call.shape for call in calls] == [(1, 1), (7, 7)]
    assert np.array_equal(calls[1], block)


def test_blocks_zero_two_and_six_evolve_alone():
    n = 6
    spec = ChainSpec(n, -1.0, 0.3, ((1, 0.4), (n - 1, 1.7)))
    rng = np.random.default_rng(6)
    counts = np.array([bin(index).count("1") for index in range(2**n)])
    occupied = np.isin(counts, (0, 2, 6))
    amps = np.where(occupied, rng.normal(size=2**n) + 1j * rng.normal(size=2**n), 0.0)
    initial = FullState(amps / np.linalg.norm(amps), n)
    matrix = full_hamiltonian(spec)
    with eigh_spy() as calls:
        for t in (0.7, 5.0, 13.0):
            evolved = full_evolve(spec, initial, t)
            assert np.max(np.abs(evolved.amps - expm(-1j * matrix * t) @ initial.amps)) <= 1e-12
            assert not evolved.amps[~occupied].any()
        assert sorted(oracle._full_eigh(spec).eigen) == [0, 2, 6]
    assert [call.shape for call in calls] == [(1, 1), (15, 15), (1, 1)]


@pytest.fixture
def leaky_hamiltonian(monkeypatch):
    """full_hamiltonian with one element between the 1- and 2-excitation blocks."""
    assembled = oracle.full_hamiltonian

    def leaky(spec):
        matrix = assembled(spec)
        matrix[1, 3] = matrix[3, 1] = 1e-3  # |...0001> and |...0011>
        return matrix

    oracle._full_eigh.cache_clear()
    monkeypatch.setattr(oracle, "full_hamiltonian", leaky)
    yield
    oracle._full_eigh.cache_clear()


def test_an_element_between_excitation_numbers_raises(leaky_hamiltonian, capsys):
    spec = single_impurity(4, 0.4)
    with pytest.raises(ExcitationLeak, match="joins 1 and 2 excitations"):
        full_evolve(spec, site_state(spec, 1), 1.0)
    assert main(["oracle-check", "--n-max", "3"]) == 1
    assert "ExcitationLeak" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, col, value, numbers",
    [(0, 1, 1e-3, (0, 1)), (14, 15, -2e-3, (3, 4)), (1, 3, np.nan, (1, 2))],
)
def test_every_leak_is_counted_and_named(monkeypatch, row, col, value, numbers):
    assembled = oracle.full_hamiltonian

    def leaky(spec):
        matrix = assembled(spec)
        matrix[row, col] = matrix[col, row] = value
        return matrix

    spec = single_impurity(4, 0.4)
    message = (
        f"H[{row}, {col}] = {np.float64(value)!r} joins {numbers[0]} and {numbers[1]} "
        "excitations (2 such elements)"
    )
    oracle._full_eigh.cache_clear()
    monkeypatch.setattr(oracle, "full_hamiltonian", leaky)
    try:
        with pytest.raises(ExcitationLeak, match=re.escape(message)):
            full_evolve(spec, site_state(spec, 1), 1.0)
    finally:
        oracle._full_eigh.cache_clear()


def test_oracle_check_at_lengths_eleven_and_twelve():
    results = oracle_check([single_impurity(n, 1.0) for n in (11, 12)])
    assert [result.n_sites for result in results] == [11, 12]
    for result in results:
        assert result.passed
        assert max(result.block_dev, result.amplitude_dev, result.concurrence_dev) <= 1e-13


@pytest.mark.parametrize(
    "template",
    [
        mirror_impurities(7, 1.0, exchange_j=-0.7, field_h=0.3),
        ChainSpec(6, -1.3, -0.4, ((3, 1.0),)),
        mirror_impurities(8, 1.0, field_h=0.5),
    ],
)
def test_oracle_check_runs_on_any_layout(template):
    # layouts, J and h that oracle-check on the command line never sends
    with mock.patch.object(oracle, "site_state", wraps=oracle.site_state) as spy:
        (result,) = oracle_check([template])
    assert [call.args[0] for call in spy.call_args_list] == [
        with_alpha(template, alpha) for alpha in (0.4, 1.0, 3.0)
    ]
    assert result.n_sites == template.n_sites
    assert result.passed
    assert max(result.block_dev, result.amplitude_dev, result.concurrence_dev) <= 1e-12


def test_oracle_check_covers_the_parity_route():
    # alpha = 1 makes the single-impurity chain uniform, hence a mirror chain,
    # so its C_A,N reference comes from the phase equation with e = 2 ends
    kernel, solved = spectral._phase_states, []

    def recorded(*args):
        solved.append((args[-1], kernel(*args)))
        return solved[-1][1]

    with mock.patch.object(spectral, "_phase_states", side_effect=recorded):
        results = oracle_check([single_impurity(6, 1.0)])
    assert any(ok.any() for ends, (*_, ok) in solved if ends == 2)
    assert [result.n_sites for result in results] == [6]
    assert results[0].passed
    assert max(results[0].block_dev, results[0].amplitude_dev, results[0].concurrence_dev) <= 1e-13


def test_oracle_check_covers_the_paired_kernels():
    # pairing and grid factoring are separate choices: the scalar times of
    # oracle-check reach the upper-half kernels of amplitude_matrix and
    # concurrence_AN, so the full-space verifier checks them on every chain
    with pairings() as halves, blockings() as blocks:
        results = oracle_check([single_impurity(n, 1.0) for n in range(2, 11)])
    # per chain: 3 alphas x 3 times, one amplitude_matrix of one block and one concurrence_AN each
    assert len(halves) == 9 * 18 and all(half is not None for half in halves)
    assert blocks == [(0, 1)] * (9 * 9)
    assert all(result.passed for result in results)
