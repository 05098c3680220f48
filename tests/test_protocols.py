import warnings

import numpy as np
import pytest

from xxchain.chain import ChainSpec, build_hamiltonian, mirror_impurities, single_impurity
from xxchain.dynamics import SeriesKind, TimeSeries, fidelity, time_series
from xxchain.errors import NoMinimumInWindow
from xxchain.protocols import (
    detect_refocus_time,
    fidelity_landscape,
    inclusive_grid,
    optimize_alpha,
    refocus_window,
    scaling_sweep,
)
from xxchain.spectral import eigendecompose, transfer_spectrum

from routes import full_route


def test_refocus_window_brackets_half_chain():
    lo, hi = refocus_window(200)
    assert lo == 50.0 and hi == 150.0
    lo31, hi31 = refocus_window(31)
    assert lo31 < 15.5 < hi31


def test_inclusive_grid_keeps_hi_within_rounding():
    assert inclusive_grid(0.0, 0.3, 0.1).size == 4  # 0.3 / 0.1 = 2.9999999999999996
    assert inclusive_grid(0.0, 0.35, 0.1).size == 4
    grid = inclusive_grid(50.0, 150.0, 0.1)
    assert grid.size == 1001 and np.array_equal(grid, 50.0 + 0.1 * np.arange(1001))


def test_detect_refocus_on_synthetic_parabola():
    times = np.arange(0.0, 100.5, 0.5)
    series = TimeSeries(times=times, values=(times - 50.0) ** 2 + 3.0, kind=SeriesKind.IPR)
    assert detect_refocus_time(series, (40.0, 60.0)) == 50.0


def test_detect_refocus_rejects_monotone_series():
    times = np.arange(0.0, 100.5, 0.5)
    series = TimeSeries(times=times, values=times + 1.0, kind=SeriesKind.IPR)
    with pytest.raises(NoMinimumInWindow):
        detect_refocus_time(series, (40.0, 60.0))


def test_detect_refocus_validates_inputs():
    times = np.arange(0.0, 10.5, 0.5)
    ipr_series = TimeSeries(times=times, values=np.cos(times) + 2.0, kind=SeriesKind.IPR)
    with pytest.raises(ValueError):
        detect_refocus_time(ipr_series, (5.0, 50.0))  # window not covered
    fid_series = TimeSeries(times=times, values=np.cos(times) ** 2, kind=SeriesKind.FIDELITY)
    with pytest.raises(ValueError):
        detect_refocus_time(fid_series, (2.0, 8.0))


def test_detect_refocus_on_weak_impurity_chain():
    ham = build_hamiltonian(single_impurity(200, 0.4))
    times = np.arange(0.0, 160.05, 0.1)
    series = time_series(ham, SeriesKind.IPR, times)
    t_ipr = detect_refocus_time(series, refocus_window(200))
    assert 90.0 <= t_ipr <= 110.0


def test_landscape_shape_and_edges():
    alphas = np.array([0.4, 1.0])
    times = np.arange(0.0, 20.1, 0.5)
    land = fidelity_landscape(mirror_impurities(24, 1.0), alphas, times)
    assert land.fidelities.shape == (2, times.size)
    assert np.all(land.fidelities[:, 0] <= 1e-25)
    assert np.all((land.fidelities >= 0.0) & (land.fidelities <= 1.0))
    # the alpha = 1 row reproduces the homogeneous-chain fidelity trace
    uniform = transfer_spectrum(build_hamiltonian(ChainSpec(24)))
    assert np.allclose(land.fidelities[1], fidelity(uniform, times), atol=1e-12)


def test_landscape_rejects_empty_grids():
    with pytest.raises(ValueError):
        fidelity_landscape(mirror_impurities(24, 1.0), [], [0.0, 1.0])
    with pytest.raises(ValueError):
        fidelity_landscape(mirror_impurities(24, 1.0), [0.5], [])


def test_landscape_peak_for_n31():
    # computed location of the global maximum; the acceptance module holds
    # the literal spec window for the arrival time
    land = fidelity_landscape(
        mirror_impurities(31, 1.0), np.arange(5, 76) * 0.02, np.arange(0, 401) * 0.1
    )
    alpha, t_peak, value = land.peak()
    assert 0.5 <= alpha <= 0.7
    assert value > 2.0 / 3.0
    assert t_peak == pytest.approx(18.5, abs=1.0)


def test_optimize_on_degenerate_grid_matches_dynamics():
    report = optimize_alpha(mirror_impurities(200, 1.0), [0.4])
    assert report.alpha_opt == 0.4
    assert report.per_alpha == (report.per_alpha[0],)
    lo, hi = refocus_window(200)
    assert lo <= report.t_tr <= hi
    spectrum = transfer_spectrum(build_hamiltonian(mirror_impurities(200, 0.4)))
    times = lo + 0.1 * np.arange(int((hi - lo) / 0.1) + 1)
    values = fidelity(spectrum, times)
    assert report.f_max == pytest.approx(float(np.max(values)), abs=1e-12)
    assert report.t_tr == pytest.approx(float(times[np.argmax(values)]), abs=1e-12)
    assert report.c_max**2 == pytest.approx(report.f_max, abs=1e-9)


def test_optimize_n31():
    report = optimize_alpha(mirror_impurities(31, 1.0))
    assert 0.5 <= report.alpha_opt <= 0.7
    assert report.f_max > 2.0 / 3.0
    lo, hi = refocus_window(31)
    assert lo <= report.t_tr <= hi
    # every per-alpha trace stays inside the window and keeps C = sqrt(F)
    for trace in report.per_alpha:
        assert lo <= trace.t_refocus <= hi
        assert 0.0 <= trace.f_peak <= 1.0


def test_optimize_peak_height_is_smooth_in_alpha():
    report = optimize_alpha(mirror_impurities(31, 1.0))
    values = [trace.f_peak for trace in report.per_alpha if 0.35 <= trace.alpha <= 1.0]
    assert np.max(np.abs(np.diff(values))) < 0.05


def test_optimize_rejects_bad_grids():
    with pytest.raises(ValueError):
        optimize_alpha(mirror_impurities(31, 1.0), [])
    with pytest.raises(ValueError):
        optimize_alpha(mirror_impurities(31, 1.0), [0.0, 0.5])


def test_first_fidelity_maximum_coincides_with_ipr_minimum():
    window = refocus_window(200)
    times = window[0] + 0.1 * np.arange(int((window[1] - window[0]) / 0.1) + 1)
    for alpha in (0.3, 0.5, 0.7, 1.0):
        ham = build_hamiltonian(mirror_impurities(200, alpha))
        t_ipr = detect_refocus_time(time_series(ham, SeriesKind.IPR, times), window)
        values = fidelity(transfer_spectrum(ham), times)
        t_fid = float(times[np.argmax(values)])
        assert abs(t_fid - t_ipr) <= 2.0


def test_scaling_sweep_small_lengths():
    result = scaling_sweep([mirror_impurities(n, 1.0) for n in (40, 80)], np.arange(0.4, 0.75, 0.05))
    assert len(result.reports) == 2
    assert result.t_tr_slope is not None
    assert 0.3 <= result.t_tr_slope <= 0.7
    for report in result.reports:
        assert report.f_max > 2.0 / 3.0
        assert 0.40 <= report.t_tr / report.n_sites <= 0.60


def test_scaling_single_length_has_no_slope():
    result = scaling_sweep([mirror_impurities(20, 1.0)], [0.5])
    assert result.t_tr_slope is None
    assert result.t_tr_intercept is None
    assert result.t_tr_correlation is None


def test_scaling_sweep_accepts_odd_lengths():
    grid = [0.4, 0.5, 0.6]
    templates = [mirror_impurities(n, 1.0) for n in (21, 30)]
    result = scaling_sweep(templates, grid)
    assert result.reports == tuple(optimize_alpha(template, grid) for template in templates)
    assert result.t_tr_slope is not None


def test_scaling_repeated_lengths_have_no_fit():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = scaling_sweep([mirror_impurities(20, 1.0)] * 2, [0.5])
    assert len(result.reports) == 2
    assert result.t_tr_slope is None
    assert result.t_tr_intercept is None
    assert result.t_tr_correlation is None


@pytest.mark.parametrize("n, exchange_j, field_h", [(20, -1.0, 0.0), (31, -1.3, 0.2), (50, -1.0, 0.0)])
def test_optimize_alpha_matches_a_per_alpha_loop(n, exchange_j, field_h):
    lo, hi = refocus_window(n)
    times = lo + 0.1 * np.arange(int(np.floor((hi - lo) / 0.1 + 1e-9)) + 1)

    def per_alpha_loop(solve):
        rows = []
        for alpha in np.arange(30, 101) / 100.0:
            spec = mirror_impurities(n, alpha, exchange_j=exchange_j, field_h=field_h)
            values = fidelity(solve(build_hamiltonian(spec)), times)
            k = int(np.argmax(values))
            rows.append((float(alpha), float(times[k]), float(values[k])))
        return rows

    report = optimize_alpha(mirror_impurities(n, 1.0, exchange_j=exchange_j, field_h=field_h))
    got = [(t.alpha, t.t_refocus, t.f_peak) for t in report.per_alpha]
    # one alpha loop: bit-identical to a loop over the same parity solve
    assert got == per_alpha_loop(transfer_spectrum)
    # and within 1e-12 of the full-eigenvector route, at the same peak times
    full = per_alpha_loop(lambda hamiltonian: full_route(eigendecompose(hamiltonian)))
    assert [row[:2] for row in got] == [row[:2] for row in full]
    assert np.allclose([row[2] for row in got], [row[2] for row in full], rtol=0.0, atol=1e-12)
