from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from xxchain import measures
from xxchain.chain import ChainSpec, build_hamiltonian, single_impurity
from xxchain.errors import (
    BadSite,
    BadSitePair,
    NotDensityMatrix,
    NotNormalized,
)
from xxchain.measures import (
    c12_from_energy_derivative,
    c12_peak,
    c12_sweep,
    ipr,
    ipr_of_rows,
    ipr_sweep,
    nn_concurrence_closed_form,
    reduced_density_two_sites,
    wootters_concurrence,
)
from xxchain.spectral import eigendecompose

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)


def _wootters_by_eigenvalues(rho):
    """Independent route: sqrt of the eigenvalues of rho * rho_tilde."""
    rho = np.asarray(rho, dtype=complex)
    rho_tilde = _YY @ rho.conj() @ _YY
    lam = np.sqrt(np.abs(np.linalg.eigvals(rho @ rho_tilde).real))
    lam = np.sort(lam)[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def _homogeneous_eigenvector(n, j):
    sites = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * j * sites / (n + 1))


def test_ipr_extremes():
    delta = np.zeros(12)
    delta[3] = 1.0
    assert ipr(delta) == pytest.approx(1.0)
    uniform = np.full(12, 1.0 / np.sqrt(12))
    assert ipr(uniform) == pytest.approx(12.0)


def test_ipr_rejects_unnormalized_state():
    with pytest.raises(NotNormalized):
        ipr(np.array([1.0, 1.0]))


def test_homogeneous_eigenstate_ipr_against_analytic_sum():
    # oracle: brute-force sum of sin^4 over the analytic eigenvectors
    n = 200
    dec = eigendecompose(build_hamiltonian(ChainSpec(n)))
    for j in (60, 100, 140):
        analytic = _homogeneous_eigenvector(n, j)
        expected = (analytic**2).sum() ** 2 / (analytic**4).sum()
        assert ipr(dec.vectors[j - 1]) == pytest.approx(expected, abs=1e-8)
        assert abs(expected - 2.0 * (n + 1) / 3.0) <= 1.0


def test_bound_state_ipr_near_five_point_six():
    dec = eigendecompose(build_hamiltonian(single_impurity(40, 1.6)))
    assert ipr(dec.vectors[0]) == pytest.approx(5.6, abs=0.6)


def test_equal_ipr_pair_of_localized_and_wavelike_states():
    # The two states with matching IPR (exponentially localized lowest state
    # at alpha=1.6 versus band-center state at alpha=0.1) coexist near
    # N ~ 112; see the acceptance ledger note about the N=40 variant.
    n = 112
    bound = eigendecompose(build_hamiltonian(single_impurity(n, 1.6))).vectors[0]
    center = eigendecompose(build_hamiltonian(single_impurity(n, 0.1))).vectors[n // 2 - 1]
    l_bound, l_center = ipr(bound), ipr(center)
    assert l_bound == pytest.approx(5.6, abs=0.3)
    assert l_bound == pytest.approx(l_center, abs=0.05)


def test_ipr_symmetric_between_mirror_states():
    dec = eigendecompose(build_hamiltonian(single_impurity(40, 0.9)))
    values = ipr_of_rows(dec.vectors)
    assert np.max(np.abs(values - values[::-1])) <= 1e-9


def test_ipr_regimes_strong_and_weak_impurity():
    strong = eigendecompose(build_hamiltonian(single_impurity(200, 3.0)))
    values = ipr_of_rows(strong.vectors)
    assert int(np.sum(values < 10.0)) == 2
    assert set(np.where(values < 10.0)[0]) == {0, 199}

    weak = eigendecompose(build_hamiltonian(single_impurity(200, 0.4)))
    values = ipr_of_rows(weak.vectors)
    most_localized = np.argsort(values)[:2]
    # the most localized in-band states sit at the band center
    assert set(most_localized) == {99, 100}
    assert np.max(np.abs(weak.energies[most_localized])) == pytest.approx(
        np.min(np.abs(weak.energies)), abs=1e-12
    )


def test_reduced_density_of_nearest_neighbor_eigenstate_pair():
    dec = eigendecompose(build_hamiltonian(single_impurity(12, 1.4)))
    vector = dec.vectors[2]
    for site in (1, 5, 11):
        rho = reduced_density_two_sites(vector, site, site + 1)
        assert rho[1, 2] == pytest.approx(vector[site] * vector[site - 1])
        assert rho[1, 1] == pytest.approx(vector[site] ** 2)
        assert rho[2, 2] == pytest.approx(vector[site - 1] ** 2)
        assert rho[3, 3] == 0.0


def test_reduced_density_delta_state():
    delta = np.zeros(6)
    delta[0] = 1.0
    rho = reduced_density_two_sites(delta, 2, 3)
    assert np.allclose(rho, np.diag([1.0, 0.0, 0.0, 0.0]))


def test_reduced_density_two_site_superposition():
    state = np.zeros(6)
    state[:2] = 1.0 / np.sqrt(2.0)
    rho = reduced_density_two_sites(state, 1, 2)
    assert np.allclose(np.diag(rho), [0.0, 0.5, 0.5, 0.0])
    assert rho[1, 2] == pytest.approx(0.5)


def test_reduced_density_rejects_bad_pair():
    state = np.zeros(6)
    state[0] = 1.0
    for pair in ((2, 2), (0, 3), (3, 7)):
        with pytest.raises(BadSitePair):
            reduced_density_two_sites(state, *pair)


def test_wootters_bell_and_product_states():
    bell = np.zeros((4, 4), dtype=complex)
    bell[1:3, 1:3] = 0.5
    assert wootters_concurrence(bell) == pytest.approx(1.0)
    product = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    assert wootters_concurrence(product) == pytest.approx(0.0)


def test_wootters_agrees_with_eigenvalue_route():
    rng = np.random.default_rng(11)
    dec = eigendecompose(build_hamiltonian(single_impurity(10, 0.7)))
    candidates = [reduced_density_two_sites(dec.vectors[j], 1, 2) for j in range(10)]
    # a couple of generic mixed states as well
    for _ in range(5):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        candidates.append(np.outer(psi, psi.conj()))
    for rho in candidates:
        assert wootters_concurrence(rho) == pytest.approx(_wootters_by_eigenvalues(rho), abs=1e-7)


def test_wootters_rejects_invalid_matrices():
    asym = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    asym[0, 1] = 0.3  # not Hermitian
    with pytest.raises(NotDensityMatrix):
        wootters_concurrence(asym)
    with pytest.raises(NotDensityMatrix):
        wootters_concurrence(np.diag([0.7, 0.7, 0.0, 0.0]).astype(complex))  # trace 1.4
    negative = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(NotDensityMatrix):
        wootters_concurrence(negative)


def test_closed_form_basics():
    state = np.zeros(8)
    state[2:4] = 1.0 / np.sqrt(2.0)
    assert nn_concurrence_closed_form(state, 3) == pytest.approx(1.0)
    assert nn_concurrence_closed_form(state, 5) == 0.0
    with pytest.raises(BadSite):
        nn_concurrence_closed_form(state, 8)


def test_closed_form_rejects_unnormalized_state():
    with pytest.raises(NotNormalized):
        nn_concurrence_closed_form(np.array([1.0, 1.0, 0.0]), 1)


def test_closed_form_matches_wootters_to_contract():
    dec = eigendecompose(build_hamiltonian(single_impurity(40, 1.3)))
    worst = 0.0
    for j in (1, 5, 20, 40):
        vector = dec.vectors[j - 1]
        for site in (1, 2, 19, 39):
            closed = nn_concurrence_closed_form(vector, site)
            general = wootters_concurrence(reduced_density_two_sites(vector, site, site + 1))
            worst = max(worst, abs(closed - general))
    assert worst <= 1e-10


def test_c12_closed_form_equals_energy_derivative_route():
    for alpha in (0.5, 1.3, 2.4):
        spec = single_impurity(200, alpha)
        dec = eigendecompose(build_hamiltonian(spec))
        for j in (1, 37, 100, 200):
            derivative_route = c12_from_energy_derivative(spec, j)
            closed = nn_concurrence_closed_form(dec.vectors[j - 1], 1)
            assert abs(derivative_route - closed) <= 1e-9


def test_c12_lowest_state_regimes():
    # extended below the critical strength, entangled plateau above it
    assert c12_from_energy_derivative(single_impurity(200, 1.0), 1) < 1e-4
    at_three = c12_from_energy_derivative(single_impurity(200, 3.0), 1)
    at_four = c12_from_energy_derivative(single_impurity(200, 4.0), 1)
    assert 0.9 < at_three < 1.0
    assert at_three < at_four < 1.0


def test_c12_symmetric_between_mirror_states():
    spec = single_impurity(200, 1.1)
    for j in (1, 13, 77):
        assert abs(
            c12_from_energy_derivative(spec, j) - c12_from_energy_derivative(spec, 201 - j)
        ) <= 1e-9


@pytest.mark.parametrize("sweep_rows", [c12_sweep, ipr_sweep])
@pytest.mark.parametrize("states", [range(0, 100), range(150, 202)])
def test_out_of_range_states_are_a_value_error(sweep_rows, states):
    # wide ranges: the eigenvector-free C_12 route checks them like eigendecompose
    with pytest.raises(ValueError):
        sweep_rows(single_impurity(200, 0.5), [0.5], states)


def test_eigenstate_c12_matches_full_decomposition():
    spec = single_impurity(60, 0.8)
    dec = eigendecompose(build_hamiltonian(spec))
    for j in (1, 17, 30):
        assert c12_sweep(spec, [0.8], [j]).values[0, 0] == pytest.approx(
            nn_concurrence_closed_form(dec.vectors[j - 1], 1), abs=1e-12
        )


def test_c12_peaks_are_single_and_ordered():
    template = single_impurity(200, 1.0)
    peaks = [c12_peak(template, j) for j in (98, 99, 100)]
    assert all(peak.dominant for peak in peaks)
    assert peaks[0].alpha > peaks[1].alpha > peaks[2].alpha
    assert peaks[0].height < peaks[1].height < peaks[2].height


@pytest.mark.parametrize("lo, hi, peak", [(0.0, 3.0, 1.0), (0.2, 0.6, 0.6), (1.5, 4.0, 1.5)])
def test_golden_max_finds_the_maximum_of_a_unimodal_function(lo, hi, peak):
    # x exp(-x) rises to its maximum at x = 1 and falls after it: an interior
    # peak, then a peak at the upper and at the lower bound
    def f(x):
        return x * np.exp(-x)

    x, value = measures._golden_max(f, lo, hi, xatol=1e-6)
    assert lo <= x <= hi and abs(x - peak) <= 1e-6
    assert value == f(x)


def test_c12_peak_matches_a_bounded_brent_reference():
    # scipy's bounded Brent search at the same xatol, polishing the same grid bracket
    def brent_max(f, lo, hi, xatol):
        result = minimize_scalar(lambda x: -f(x), bounds=(lo, hi), method="bounded", options={"xatol": xatol})
        return result.x, -result.fun

    template = single_impurity(200, 1.0)
    peaks = [c12_peak(template, j) for j in range(95, 101)]
    with mock.patch.object(measures, "_golden_max", brent_max):
        references = [c12_peak(template, j) for j in range(95, 101)]
    for peak, reference in zip(peaks, references):
        assert abs(peak.alpha - reference.alpha) <= 2e-6
        assert peak.height == pytest.approx(reference.height, rel=1e-10)
        assert peak.dominant == reference.dominant


@given(st.lists(st.integers(0, 3), max_size=12))
def test_local_maxima_match_the_neighbour_loop(values):
    # small integers make ties and plateaus common
    values = np.array(values, dtype=float)
    expected = [k for k in range(1, values.size - 1)
                if values[k] >= max(values[k - 1], values[k + 1])
                and values[k] > min(values[k - 1], values[k + 1])]
    assert measures._local_maxima(values) == expected


def test_reduced_density_passes_the_density_check():
    state = np.zeros(6)
    state[1] = 1.0
    rho = reduced_density_two_sites(state, 1, 2)
    measures._check_density(rho)


def test_c12_peak_grid_curve_is_the_per_state_solve(monkeypatch):
    template = single_impurity(120, 1.0)
    alphas = np.arange(0, 201, 4) / 100.0
    state = 59
    sweep_rows = measures.c12_sweep
    curves = []

    def recorded(*args):
        sweep = sweep_rows(*args)
        curves.append(sweep.values[:, 0].tolist())
        return sweep

    monkeypatch.setattr(measures, "c12_sweep", recorded)
    peak = c12_peak(template, state, alphas)
    kept = alphas[alphas >= 0.02]
    expected = [c12_sweep(template, [alpha], [state]).values[0, 0] for alpha in kept]
    # the first call is the grid curve; the refinement calls follow it
    assert curves[0] == expected and len(curves) > 1
    assert peak.height >= max(expected)
