"""The factored phase kernels against the per-sample reference.

transfer_amplitude evaluates every grid as one matrix product of anchor and
offset phase tables, and amplitude_matrix builds its phase table as the
product of the same two tables.  An even grid of two or more samples has
about sqrt(len(t)) anchors and offsets, each table doubled from one
exponential row; any other grid the single anchor 0, which reproduces the
per-sample exponentials bit for bit.  Every check here recomputes
f_N(t_k) = sum_j exp(-i E_j t_k) psi_1^(j) psi_N^(j), or the site amplitudes
sum_j exp(-i E_j t_k) psi_1^(j) psi_n^(j), one sample at a time.  Short
grids must agree to 1e-12, far above the roundoff of either form; long
grids within the bound of the dynamics docstring (doubled_bound).
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xxchain import dynamics
from xxchain.chain import ChainSpec, TridiagonalHamiltonian, build_hamiltonian, mirror_impurities
from xxchain.cli import _parse_range
from xxchain import protocols
from xxchain.dynamics import amplitude_matrix, fidelity, transfer_amplitude
from xxchain.protocols import (
    REFOCUS_T_STEP,
    default_alpha_grid,
    fidelity_landscape,
    inclusive_grid,
    optimize_alpha,
    refocus_window,
)
from xxchain.spectral import eigendecompose, transfer_spectrum

from routes import factorings, full_route, pairings

TOL = 1e-12


def per_sample_amplitude(spectrum, times):
    """Reference: one exponential per (time, level), no factoring."""
    return np.exp(-1j * np.outer(np.ravel(times), spectrum.energies)) @ spectrum.transfer_weights


def per_sample_site_amplitudes(dec, times, init_site=1):
    """Reference: amplitudes from a delta on init_site, one exponential per (time, level)."""
    phases = np.exp(-1j * np.outer(np.ravel(times), dec.energies))
    return (phases * dec.vectors[:, init_site - 1]) @ dec.vectors


def per_sample_route(spectrum, times):
    """Reference for the route transfer_amplitude takes, one exponential per (time, level).

    An unpaired spectrum takes the full sum; a paired one the upper half of
    its levels, exp(-iht) Re Z for odd N and exp(-iht) i Im Z for even N.
    """
    half = transfer_half(spectrum, times)
    if half is None:
        return per_sample_amplitude(spectrum, times)
    centre, offsets, weights = half
    flat = np.ravel(times)
    upper = np.exp(-1j * np.outer(flat, offsets)) @ weights
    part = upper.real if spectrum.n_sites % 2 else 1j * upper.imag
    return np.exp(-1j * centre * flat) * part


def transfer_half(spectrum, times):
    """The upper half transfer_amplitude sums on this grid, or None for the full sum."""
    sign = 1.0 if spectrum.n_sites % 2 else -1.0  # (-1)^(N - 1)
    return dynamics._upper_half(spectrum.energies, spectrum.transfer_weights, sign, np.asarray(times))


def uneven_field(spec):
    """The chain's matrix with a site-dependent field: its levels do not pair."""
    ham = hamiltonian_of(spec)
    return TridiagonalHamiltonian(ham.diag + 0.05 * np.sin(np.arange(spec.n_sites)), ham.offdiag)


def hamiltonian_of(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # J > 0 sign warning; same physics
        return build_hamiltonian(spec)


def decompose(spec):
    return eigendecompose(hamiltonian_of(spec))


def transfer(spec):
    return transfer_spectrum(hamiltonian_of(spec))


@st.composite
def chains(draw):
    n = draw(st.integers(2, 64))
    bonds = draw(st.sets(st.integers(1, n - 1), max_size=min(4, n - 1)))
    impurities = tuple((bond, draw(st.floats(0.0, 2.0))) for bond in sorted(bonds))
    exchange_j = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 1.5))
    field_h = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.1, 2.0))
    return ChainSpec(n, exchange_j, field_h, impurities)


def check_grid(spectrum, times):
    """Compare with the reference; report whether the grid was factored."""
    with factorings() as factored:
        values = transfer_amplitude(spectrum, times)
    assert values.shape == times.shape
    assert np.max(np.abs(values - per_sample_amplitude(spectrum, times))) <= TOL
    assert len(factored) == 1
    return factored[0]


@settings(max_examples=150, deadline=None)
@given(
    spec=chains(),
    lo=st.floats(-50.0, 150.0),
    step=st.floats(1e-3, 1.0),
    count=st.integers(1, 400),
)
def test_factored_grid_matches_per_sample_reference(spec, lo, step, count):
    spectrum = transfer(spec)
    times = lo + step * np.arange(count)
    assert check_grid(spectrum, times) == (count >= 2)


@settings(max_examples=100, deadline=None)
@given(
    spec=chains(),
    lo=st.decimals(-20, 100, places=3),
    step=st.decimals("0.001", "0.5", places=3),
    count=st.integers(1, 300),
)
def test_cli_grids_match_per_sample_reference(spec, lo, step, count):
    hi = lo + step * (count - 1)
    times = _parse_range(f"{lo}:{hi}:{step}", "--t-range")
    assert times.size == count
    assert check_grid(transfer(spec), times) == (count >= 2)


@settings(max_examples=100, deadline=None)
@given(
    spec=chains(),
    lo=st.floats(-50.0, 150.0),
    step=st.floats(1e-3, 1.0),
    count=st.integers(1, 300),
    site=st.floats(0.0, 1.0),
)
def test_amplitude_matrix_matches_per_sample_reference(spec, lo, step, count, site):
    dec = decompose(spec)
    times = lo + step * np.arange(count)
    init_site = 1 + int(site * (spec.n_sites - 1))
    with factorings() as factored:
        values = amplitude_matrix(dec, times, init_site)
    assert values.shape == (count, spec.n_sites)
    assert np.max(np.abs(values - per_sample_site_amplitudes(dec, times, init_site))) <= TOL
    assert factored == [count >= 2]


def test_amplitude_matrix_uneven_grid_takes_the_per_sample_path():
    # a paired spectrum sums its upper half, so it matches the reference to
    # round-off; an unpaired one (uneven field) reproduces it bit for bit
    nudged = 0.1 * np.arange(500)
    nudged[250] += 1e-9
    for ham, paired in ((hamiltonian_of(mirror_impurities(64, 0.4, field_h=-1.2)), True),
                        (uneven_field(mirror_impurities(64, 0.4, field_h=-1.2)), False)):
        dec = eigendecompose(ham)
        with factorings() as factored, pairings() as halves:
            values = amplitude_matrix(dec, nudged, 1)
        assert (halves[0] is not None) == paired
        assert factored == [False]
        reference = per_sample_site_amplitudes(dec, nudged)
        if paired:
            assert np.max(np.abs(values - reference)) <= TOL
        else:
            assert np.array_equal(values, reference)


def test_two_sample_even_grid_is_factored():
    spec = mirror_impurities(40, 0.5, field_h=0.3)
    times = np.array([2.0, 2.1])
    assert check_grid(transfer(spec), times)
    dec = decompose(spec)
    with factorings() as factored:
        values = amplitude_matrix(dec, times, 1)
    assert factored == [True]
    assert np.max(np.abs(values - per_sample_site_amplitudes(dec, times))) <= TOL


def test_the_grid_alone_picks_the_tables():
    # (grid, anchor rows, offset rows, anchor dtype), the same for N = 2 and N = 400
    cases = (
        (0.1 * np.arange(5), 2, 3, complex),
        (3.0 + 0.05 * np.arange(2001), 45, 45, complex),
        (np.array([0.0, 0.1, 0.3]), 1, 3, float),
        (np.array([7.5]), 1, 1, float),
    )
    for n_sites in (2, 400):
        energies = transfer(ChainSpec(n_sites, -1.0, 0.0, ((1, 0.5),))).energies
        for times, anchors, offsets, dtype in cases:
            coarse, fine = dynamics._phase_tables(energies, times)
            assert coarse.shape == (anchors, n_sites) and coarse.dtype == dtype
            assert fine.shape == (offsets, n_sites)


def doubled_bound(energies, times, weight_norm=1.0):
    """The even-grid kernel against the per-sample one (dynamics docstring).

    Each side rounds its phases by R = eps max|E| max|t| W, the tables read
    t_0 + k dt, which the grid test admits within _EVEN_GRID_ULPS R of t_k,
    and the doubling adds P = (n_a + n_b)(1 + sqrt 2) eps W.
    """
    eps = np.finfo(float).eps
    n_fine = math.isqrt(times.size - 1) + 1
    n_coarse = (times.size - 1) // n_fine + 1
    roundoff = eps * np.abs(energies).max() * np.abs(times).max() * weight_norm
    return (2 + dynamics._EVEN_GRID_ULPS) * roundoff + (n_coarse + n_fine) * (1 + math.sqrt(2)) * eps * weight_norm


def chunks(times, size=4096):
    """(start, times[start:][:size]) over the grid: references of at most size x N."""
    for start in range(0, times.size, size):
        yield start, times[start : start + size]


# (mirror chain length, even grid): a long grid, the N = 400 refocus window
# (t_0 != 0), two samples, and counts whose count - 1 is not a square, so
# the last anchor row is partial
DOUBLED_GRIDS = {
    "long-1e4": (200, inclusive_grid(0.0, 1e4, 0.1)),
    "refocus-400": (400, inclusive_grid(*refocus_window(400), REFOCUS_T_STEP)),
    "two-samples": (40, np.array([2.0, 2.1])),
    "three-samples": (31, inclusive_grid(-1.5, 1.5, 1.5)),
    "partial-11": (64, inclusive_grid(0.3, 7.3, 0.7)),
    "partial-1000": (101, inclusive_grid(5.0, 5.0 + 999 * 0.037, 0.037)),
}


@pytest.mark.parametrize("n_sites, times", DOUBLED_GRIDS.values(), ids=DOUBLED_GRIDS.keys())
def test_doubled_tables_match_per_sample_exponentials(n_sites, times):
    energies = transfer(mirror_impurities(n_sites, 0.44)).energies
    coarse, fine = dynamics._phase_tables(energies, times)
    n_fine = len(fine)
    assert len(coarse) == (times.size - 1) // n_fine + 1
    # rows 0 and 1 are exact: ones and exp(-iE step) for the offsets, and
    # exp(-iE t_0) times the same for the anchors (ones and exp(-iE n_b dt) from t_0 = 0)
    step = (times[-1] - times[0]) / (times.size - 1)
    first = np.exp(-1j * np.outer(times[:1], energies))[0]
    assert np.array_equal(fine[0], np.ones(n_sites))
    assert np.array_equal(fine[1], np.exp(-1j * np.outer([step], energies))[0])
    assert np.array_equal(coarse[0], first)
    if len(coarse) > 1:  # two samples have one anchor
        assert np.array_equal(coarse[1], first * np.exp(-1j * np.outer([n_fine * step], energies))[0])
    bound = doubled_bound(energies, times)
    for start, part in chunks(times):
        k = np.arange(start, start + part.size)
        phases = coarse[k // n_fine] * fine[k % n_fine]
        assert np.max(np.abs(phases - np.exp(-1j * np.outer(part, energies)))) <= bound


@pytest.mark.parametrize("n_sites, times", DOUBLED_GRIDS.values(), ids=DOUBLED_GRIDS.keys())
def test_doubled_transfer_amplitude_matches_per_sample_route(n_sites, times):
    spectrum = transfer(mirror_impurities(n_sites, 0.44))
    half = transfer_half(spectrum, times)
    assert half is not None
    values = transfer_amplitude(spectrum, times)
    bound = doubled_bound(half[1], times, np.abs(half[2]).sum())
    for start, part in chunks(times):
        assert np.max(np.abs(values[start : start + part.size] - per_sample_route(spectrum, part))) <= bound


def test_scalar_time_takes_the_per_sample_path():
    spec = ChainSpec(48, 1.0, -0.7, ((1, 0.3), (47, 0.3)))
    spectra = (transfer(spec), transfer_spectrum(uneven_field(spec)))
    assert [transfer_half(spectrum, 37.25) is None for spectrum in spectra] == [False, True]
    for spectrum in spectra:
        with factorings() as factored:
            value = transfer_amplitude(spectrum, 37.25)
        assert isinstance(value, complex)
        assert value == per_sample_route(spectrum, [37.25])[0]
        assert abs(value - per_sample_amplitude(spectrum, [37.25])[0]) <= TOL
        assert factored == [False]


def test_uneven_and_multidimensional_grids_take_the_per_sample_path():
    spec = mirror_impurities(64, 0.4, field_h=-1.2)
    rng = np.random.default_rng(11)
    uneven = np.sort(rng.uniform(0.0, 80.0, size=500))
    nudged = 0.1 * np.arange(500)
    nudged[250] += 1e-9
    spectra = (transfer(spec), transfer_spectrum(uneven_field(spec)))
    assert [transfer_half(spectrum, nudged) is None for spectrum in spectra] == [False, True]
    for spectrum in spectra:
        for times in (uneven, nudged, (0.1 * np.arange(600)).reshape(20, 30)):
            with factorings() as factored:
                values = transfer_amplitude(spectrum, times)
            assert factored == [False]
            assert values.shape == times.shape
            assert np.array_equal(values.ravel(), per_sample_route(spectrum, times))
            assert np.max(np.abs(values.ravel() - per_sample_amplitude(spectrum, times))) <= TOL


def reference_optimize(n_sites):
    """Refocus-window scan through the per-sample kernel."""
    lo, hi = refocus_window(n_sites)
    times = lo + REFOCUS_T_STEP * np.arange(int(math.floor((hi - lo) / REFOCUS_T_STEP + 1e-9)) + 1)
    peaks = []
    for alpha in default_alpha_grid():
        dec = eigendecompose(build_hamiltonian(mirror_impurities(n_sites, float(alpha))))
        values = np.minimum(np.abs(per_sample_amplitude(full_route(dec), times)) ** 2, 1.0)
        k = int(np.argmax(values))
        peaks.append((float(alpha), float(times[k]), float(values[k])))
    return peaks


def test_optimize_alpha_keeps_its_answer():
    for n_sites in (50, 100):
        report = optimize_alpha(mirror_impurities(n_sites, 1.0))
        peaks = reference_optimize(n_sites)
        alpha, t_tr, f_max = peaks[int(np.argmax([peak[2] for peak in peaks]))]
        assert (report.alpha_opt, report.t_tr) == (alpha, t_tr)
        assert abs(report.f_max - f_max) <= TOL
        for trace, (alpha, t_peak, f_peak) in zip(report.per_alpha, peaks):
            assert (trace.alpha, trace.t_refocus) == (alpha, t_peak)
            assert abs(trace.f_peak - f_peak) <= TOL


@pytest.mark.parametrize("times, even", [(inclusive_grid(10.0, 30.0, 0.1), True),
                                         (np.array([0.0, 0.1, 0.3, 0.7]), False), (np.array([2.5]), False)])
def test_the_landscape_decides_the_even_grid_once(times, even):
    # one verdict for all alphas, and every F row with the bits of fidelity on its own
    template = mirror_impurities(31, 1.0)
    alphas = inclusive_grid(0.1, 1.5, 0.1)
    spectra = [transfer_spectrum(build_hamiltonian(mirror_impurities(31, alpha))) for alpha in alphas]
    with mock.patch.object(protocols, "_even_grid", wraps=dynamics._even_grid) as decided, \
            mock.patch.object(dynamics, "_even_grid", side_effect=AssertionError), factorings() as factored:
        landscape = fidelity_landscape(template, alphas, times)
    assert decided.call_count == 1
    assert factored == [even] * alphas.size
    for row, spectrum in zip(landscape.fidelities, spectra):
        assert np.array_equal(row, fidelity(spectrum, times))
