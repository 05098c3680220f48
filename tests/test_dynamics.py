import tracemalloc
from unittest import mock

import numpy as np
import pytest

from xxchain import dynamics
from xxchain.chain import ChainSpec, build_hamiltonian, mirror_impurities, single_impurity
from xxchain.dynamics import (
    SeriesKind,
    TimeSeries,
    amplitude_matrix,
    concurrence_AN,
    fidelity,
    receiver_pair_density,
    time_series,
    transfer_amplitude,
)
from xxchain.errors import BadSite
from xxchain.measures import NORM_TOL, wootters_concurrence
from xxchain.spectral import TransferSpectrum, eigendecompose, transfer_spectrum


def _rk4_evolve(hamiltonian, t_final, dt=1e-3):
    """Independent integration oracle for i dpsi/dt = H psi from |1>."""
    psi = np.zeros(hamiltonian.n_sites, dtype=complex)
    psi[0] = 1.0

    def rhs(state):
        return -1j * hamiltonian.matvec(state)

    steps = int(round(t_final / dt))
    for _ in range(steps):
        k1 = rhs(psi)
        k2 = rhs(psi + 0.5 * dt * k1)
        k3 = rhs(psi + 0.5 * dt * k2)
        k4 = rhs(psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


def _state_at(dec, t, init_site=1):
    return amplitude_matrix(dec, [t], init_site)[0]


def test_zero_time_is_identity():
    dec = eigendecompose(build_hamiltonian(ChainSpec(9)))
    state = _state_at(dec, 0.0, init_site=4)
    expected = np.zeros(9)
    expected[3] = 1.0
    assert np.allclose(state, expected, atol=1e-12)


def test_two_site_rabi_oscillation():
    dec = eigendecompose(build_hamiltonian(ChainSpec(2)))
    for t in (0.3, 1.0, 2.2):
        state = _state_at(dec, t)
        assert abs(state[1]) == pytest.approx(abs(np.sin(t)), abs=1e-12)


def test_unitarity_over_random_times():
    dec = eigendecompose(build_hamiltonian(single_impurity(50, 0.4)))
    rng = np.random.default_rng(3)
    for t in rng.uniform(0.0, 400.0, size=25):
        amps = _state_at(dec, float(t))
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) <= 1e-9


@pytest.mark.parametrize(
    "times",
    [np.arange(0.0, 400.0, 0.1), np.random.default_rng(5).uniform(0.0, 400.0, size=40)],
    ids=["even", "uneven"],
)
def test_every_amplitude_row_has_unit_norm(times):
    dec = eigendecompose(build_hamiltonian(single_impurity(50, 0.4)))
    rows = amplitude_matrix(dec, times)
    assert np.max(np.abs(np.sum(np.abs(rows) ** 2, axis=1) - 1.0)) <= NORM_TOL


def test_negative_time_reverses_evolution():
    dec = eigendecompose(build_hamiltonian(single_impurity(12, 0.6)))
    forward = _state_at(dec, 2.7)
    backward = _state_at(dec, -2.7)
    assert np.allclose(backward, forward.conj(), atol=1e-12)


def test_spectral_propagation_matches_rk4_oracle():
    ham = build_hamiltonian(single_impurity(24, 0.4))
    dec = eigendecompose(ham)
    for t in (1.0, 5.0):
        oracle = _rk4_evolve(ham, t)
        spectral = _state_at(dec, t)
        assert np.max(np.abs(oracle - spectral)) <= 1e-6


def test_transfer_amplitude_basics():
    spectrum = transfer_spectrum(build_hamiltonian(ChainSpec(8)))
    assert transfer_amplitude(spectrum, 0.0) == pytest.approx(0.0)
    spectrum2 = transfer_spectrum(build_hamiltonian(ChainSpec(2)))
    assert abs(transfer_amplitude(spectrum2, np.pi / 2.0)) == pytest.approx(1.0)


def test_transfer_amplitude_mirror_symmetry():
    ham = build_hamiltonian(mirror_impurities(30, 0.5))
    dec = eigendecompose(ham)
    spectrum = transfer_spectrum(ham)
    for t in (3.0, 11.0, 17.5):
        from_left = abs(transfer_amplitude(spectrum, t))
        from_right = abs(_state_at(dec, t, init_site=30)[0])
        assert from_left == pytest.approx(from_right, abs=1e-12)


def test_fidelity_is_squared_amplitude_and_concurrence_root():
    spectrum = transfer_spectrum(build_hamiltonian(mirror_impurities(40, 0.4)))
    times = np.arange(0.0, 40.0, 0.5)
    f_values = fidelity(spectrum, times)
    amp_values = transfer_amplitude(spectrum, times)
    assert np.max(np.abs(f_values - np.abs(amp_values) ** 2)) <= 1e-12
    c_values = concurrence_AN(spectrum, times)
    assert np.max(np.abs(c_values**2 - f_values)) <= 1e-9
    assert np.all((f_values >= 0.0) & (f_values <= 1.0))


def test_fidelity_and_concurrence_leave_out_the_field_phase():
    # paired levels h + k/4 (N = 6, 7) make E_j - h exact, so on the upper
    # half F and C_A,N must not move with h by a single bit
    times = np.arange(0.0, 40.0, 0.05)
    for weights in ([0.05, -0.1, 0.15, -0.15, 0.1, -0.05], [0.05, -0.1, 0.15, 0.2, 0.15, -0.1, 0.05]):
        offsets = np.arange(len(weights)) * 0.5 - 0.25 * (len(weights) - 1)
        spectra = [TransferSpectrum(field_h + offsets, weights, 0.0) for field_h in (0.0, 0.5, -3.0)]
        moduli = np.abs(transfer_amplitude(spectra[1], times))
        for observable, power in ((fidelity, 2), (concurrence_AN, 1)):
            values = [observable(spectrum, times) for spectrum in spectra]
            assert np.array_equal(values[0], values[1]) and np.array_equal(values[0], values[2])
            assert np.max(np.abs(values[1] - moduli**power)) <= 1e-15


def test_concurrence_closed_form_matches_wootters():
    # production returns |f_N|; the Wootters procedure on the (ancilla, N)
    # pair density is the independent route
    spectrum = transfer_spectrum(build_hamiltonian(mirror_impurities(60, 0.45)))
    times = np.arange(0.0, 60.0, 0.05)
    amplitudes = np.array([transfer_amplitude(spectrum, float(t)) for t in times])
    wootters = np.array([wootters_concurrence(receiver_pair_density(f)) for f in amplitudes])
    assert np.max(np.abs(concurrence_AN(spectrum, times) - wootters)) <= 1e-10
    assert abs(concurrence_AN(spectrum, float(times[550])) - wootters[550]) <= 1e-10
    assert np.max(wootters) > 0.8  # the grid covers the transfer peak


def test_concurrence_starts_at_zero():
    spectrum = transfer_spectrum(build_hamiltonian(ChainSpec(10)))
    assert concurrence_AN(spectrum, 0.0) == pytest.approx(0.0)


def test_uniform_chain_transfer_peak():
    # Exact open-XX value, cross-validated against RK4 and Krylov propagation;
    # see the ledger note on the smaller end-to-end value quoted from the
    # Heisenberg-chain literature.
    spectrum = transfer_spectrum(build_hamiltonian(ChainSpec(200)))
    times = np.arange(0.0, 300.05, 0.05)
    values = concurrence_AN(spectrum, times)
    peak = int(np.argmax(values))
    assert values[peak] == pytest.approx(0.438, abs=0.01)
    assert times[peak] == pytest.approx(102.75, abs=0.5)


def test_mirror_chain_entanglement_transfer():
    spectrum = transfer_spectrum(build_hamiltonian(mirror_impurities(200, 0.4)))
    times = np.arange(0.0, 150.05, 0.05)
    values = concurrence_AN(spectrum, times)
    peak = int(np.argmax(values))
    assert 0.85 <= values[peak] <= 0.95
    assert 90.0 <= times[peak] <= 115.0


def test_ipr_series_strong_impurity_stays_localized():
    ham = build_hamiltonian(single_impurity(200, 3.0))
    series = time_series(ham, SeriesKind.IPR, np.arange(0.0, 500.1, 0.1))
    assert float(np.max(series.values)) < 5.0


def test_ipr_series_weak_impurity_refocuses_near_half_chain():
    ham = build_hamiltonian(single_impurity(200, 0.4))
    times = np.arange(0.0, 150.05, 0.1)
    series = time_series(ham, SeriesKind.IPR, times)
    window = (times >= 90.0) & (times <= 110.0)
    k = int(np.argmin(series.values[window]))
    assert series.values[window][k] < 10.0


def test_refocus_time_grows_as_coupling_weakens():
    # first deep IPR local minimum (below half the series median) over a long
    # horizon; the refocus arrives later for weaker impurity coupling
    def first_deep_minimum(alpha):
        ham = build_hamiltonian(single_impurity(200, alpha))
        times = np.arange(0.0, 600.05, 0.1)
        values = time_series(ham, SeriesKind.IPR, times).values
        threshold = 0.5 * float(np.median(values))
        for k in range(1, times.size - 1):
            if values[k] <= values[k - 1] and values[k] <= values[k + 1] and values[k] < threshold:
                return float(times[k])
        raise AssertionError(f"no deep refocus found for alpha={alpha}")

    t_01 = first_deep_minimum(0.1)
    t_02 = first_deep_minimum(0.2)
    t_03 = first_deep_minimum(0.3)
    assert t_01 > t_02 > t_03


def test_running_ipr_builds_no_table_of_all_times():
    # an N = 200 panel of 10,001 times streams its site rows in blocks: a
    # (len(t) x N) table of complex amplitudes alone would take 32 MB
    hamiltonian = build_hamiltonian(single_impurity(200, 0.4))
    times = 0.05 * np.arange(10001)
    tracemalloc.start()
    try:
        time_series(hamiltonian, SeriesKind.IPR, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_time_series_kinds_and_shapes():
    ham = build_hamiltonian(mirror_impurities(20, 0.5))
    grid = np.arange(0.0, 10.0, 0.5)
    for kind in SeriesKind:
        series = time_series(ham, kind, grid)
        assert series.kind is kind
        assert series.values.shape == grid.shape
    amplitude = time_series(ham, SeriesKind.TRANSFER_AMPLITUDE, grid)
    assert np.iscomplexobj(amplitude.values)


@pytest.mark.parametrize("kind", list(SeriesKind))
def test_time_series_picks_the_solve_by_observable(kind):
    # the f_N observables read the phase equation of a mirror chain; only
    # the running IPR, which needs every site, takes the full eigenvectors
    ham = build_hamiltonian(mirror_impurities(40, 0.5))
    with mock.patch.object(dynamics, "eigendecompose", wraps=eigendecompose) as full, \
            mock.patch.object(dynamics, "transfer_spectrum", wraps=transfer_spectrum) as parity:
        time_series(ham, kind, np.arange(0.0, 10.0, 0.5))
    if kind is SeriesKind.IPR:
        full.assert_called_once_with(ham)
        assert not parity.called
    else:
        parity.assert_called_once_with(ham)
        assert not full.called


def test_fidelity_series_on_single_point_grid():
    ham = build_hamiltonian(ChainSpec(12))
    series = time_series(ham, SeriesKind.FIDELITY, [0.0])
    assert series.values[0] == pytest.approx(0.0, abs=1e-15)


def test_time_series_rejects_bad_grids():
    ham = build_hamiltonian(ChainSpec(5))
    with pytest.raises(ValueError):
        time_series(ham, SeriesKind.IPR, [0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        TimeSeries(times=np.array([1.0, 0.5]), values=np.array([0.0, 0.0]), kind=SeriesKind.IPR)
    with pytest.raises(ValueError):
        TimeSeries(times=np.array([0.0, 1.0]), values=np.array([0.0]), kind=SeriesKind.IPR)
    with pytest.raises(ValueError):  # NaN passes an ascending check
        TimeSeries(times=np.array([0.0, np.nan]), values=np.array([0.0, 0.0]), kind=SeriesKind.FIDELITY)


@pytest.mark.parametrize("grid", [[3.0, 2.0, 1.0], [[0.0, 1.0], [2.0, 3.0]], [], [0.0, np.nan], [0.0, 1.0, np.inf]])
def test_time_series_checks_the_grid_before_any_solve(grid):
    ham = build_hamiltonian(mirror_impurities(40, 0.5))
    with mock.patch.object(dynamics, "eigendecompose", wraps=eigendecompose) as full, \
            mock.patch.object(dynamics, "transfer_spectrum", wraps=transfer_spectrum) as parity:
        for kind in SeriesKind:
            with pytest.raises(ValueError):
                time_series(ham, kind, grid)
    assert not full.called and not parity.called


def test_amplitude_matrix_rejects_bad_site():
    dec = eigendecompose(build_hamiltonian(ChainSpec(5)))
    with pytest.raises(BadSite):
        amplitude_matrix(dec, [0.0], 0)
    with pytest.raises(BadSite):
        amplitude_matrix(dec, [0.0], 6)
