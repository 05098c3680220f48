"""The chiral half-spectrum time kernels against the full sum and closed forms.

Every chain the package builds has the constant diagonal h, so its levels pair
as E_j + E_{N+1-j} = 2h and the time kernels sum over the upper half of the
spectrum only (dynamics docstring).  Here the paired route is compared with
the full-spectrum route it replaces (the same kernels with the pairing
switched off), with the closed-form uniform chain, which needs no LAPACK, and
with the decoupled site 1 of alpha = 0; the spectra that do not pair must take
the full route and give its bytes.  Both routes stream the grid in blocks,
which are checked at their boundaries against the per-sample sum.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xxchain import dynamics, spectral
from xxchain.chain import (
    ChainSpec,
    TridiagonalHamiltonian,
    build_hamiltonian,
    mirror_impurities,
    single_impurity,
)
from xxchain.dynamics import (
    PAIRING_ROUNDOFF,
    SeriesKind,
    amplitude_matrix,
    time_series,
    transfer_amplitude,
)
from xxchain.measures import ipr_of_rows
from xxchain.spectral import eigendecompose, transfer_spectrum

from routes import blockings, full_route, pairings, unpaired

EPS = float(np.finfo(float).eps)


def hamiltonian_of(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # J > 0 sign warning; same physics
        return build_hamiltonian(spec)


def tolerance(energies, weights, times, n_sites):
    """The guard's bound plus the round-off of both kernels (dynamics docstring).

    weights holds one column per amplitude; the round-off of one kernel is
    eps (max|E| max|t| + N) W, the paired route adds at most PAIRING_ROUNDOFF
    eps max|E| max|t| W.
    """
    norm = float(np.max(np.sum(np.abs(weights), axis=0)))
    scale = float(np.max(np.abs(energies))) * float(np.max(np.abs(times), initial=0.0))
    return EPS * norm * (PAIRING_ROUNDOFF * scale + 2.0 * (scale + n_sites))


@st.composite
def chains(draw):
    """Constant-diagonal chains: random impurity layouts, either J sign, h != 0."""
    n = draw(st.integers(2, 300))
    bonds = draw(st.sets(st.integers(1, n - 1), max_size=min(5, n - 1)))
    impurities = tuple((bond, draw(st.floats(0.0, 3.0))) for bond in sorted(bonds))
    exchange_j = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 1.5))
    field_h = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.1, 2.0))
    return ChainSpec(n, exchange_j, field_h, impurities)


@st.composite
def grids(draw):
    """An even grid, an uneven one or a scalar time."""
    shape = draw(st.sampled_from(("even", "uneven", "scalar")))
    lo = draw(st.floats(-20.0, 200.0))
    if shape == "scalar":
        return np.float64(lo)
    count = draw(st.integers(1, 300))
    if shape == "even":
        return lo + draw(st.floats(1e-3, 1.0)) * np.arange(count)
    return np.unique(lo + np.array(draw(st.lists(st.floats(0.0, 100.0), min_size=count,
                                                 max_size=count))))


@settings(max_examples=80, deadline=None)
@given(spec=chains(), times=grids())
def test_paired_route_matches_the_full_route(spec, times):
    ham = hamiltonian_of(spec)
    dec = eigendecompose(ham)
    grid = np.atleast_1d(times)
    with unpaired():
        full_amplitudes = amplitude_matrix(dec, grid)
        full_spectrum = transfer_spectrum(ham)
        full_f = transfer_amplitude(full_spectrum, times)
    spectrum = transfer_spectrum(ham)
    with pairings() as halves:
        amplitudes = amplitude_matrix(dec, grid)
        f_n = transfer_amplitude(spectrum, times)
    assert np.shape(f_n) == np.shape(full_f) and type(f_n) is type(full_f)

    products = dec.vectors * dec.vectors[:, :1]
    bound = tolerance(dec.energies, products, grid, spec.n_sites)
    if halves[0] is None:
        assert np.array_equal(amplitudes, full_amplitudes)
    assert np.max(np.abs(amplitudes - full_amplitudes)) <= bound

    # relative IPR error from amplitude errors of at most bound: 8 sqrt(N) bound
    ipr = time_series(ham, SeriesKind.IPR, grid).values
    full_ipr = ipr_of_rows(full_amplitudes)
    assert np.max(np.abs(ipr / full_ipr - 1.0)) <= 8.0 * spec.n_sites ** 0.5 * bound

    weights = spectrum.transfer_weights
    if halves[1] is None:
        assert np.array_equal(f_n, full_f)
    assert np.max(np.abs(f_n - full_f)) <= tolerance(spectrum.energies, weights, grid, spec.n_sites)


@pytest.mark.parametrize("n_sites", [30, 31, 200, 201])
@pytest.mark.parametrize("exchange_j, field_h", [(-1.0, 0.0), (0.8, -0.6)])
def test_uniform_chain_closed_form(n_sites, exchange_j, field_h):
    # E_k = h + 2J cos(k pi / (N+1)), psi^k_n = sqrt(2 / (N+1)) sin(n k pi / (N+1))
    ham = hamiltonian_of(ChainSpec(n_sites, exchange_j, field_h))
    k = np.arange(1, n_sites + 1)
    angles = np.pi * k / (n_sites + 1)
    energies = field_h + 2.0 * exchange_j * np.cos(angles)
    modes = np.sqrt(2.0 / (n_sites + 1)) * np.sin(np.outer(k, angles))  # [n - 1, k - 1]
    products = modes * modes[0]
    times = 0.05 * np.arange(3001)

    def exact(grid):
        return np.exp(-1j * np.outer(grid, energies)) @ products.T

    bound = tolerance(energies, products.T, times, n_sites)
    dec = eigendecompose(ham)
    with pairings() as halves:
        amplitudes = amplitude_matrix(dec, times)
        ipr = time_series(ham, SeriesKind.IPR, times).values
    assert len(halves) == 2 and all(half is not None for half in halves)
    reference = exact(times)
    assert np.max(np.abs(amplitudes - reference)) <= bound
    assert np.max(np.abs(ipr / ipr_of_rows(reference) - 1.0)) <= 8.0 * n_sites ** 0.5 * bound

    spectrum = transfer_spectrum(ham)
    with pairings() as halves:
        assert np.max(np.abs(transfer_amplitude(spectrum, times) - reference[:, -1])) <= bound
        assert abs(transfer_amplitude(spectrum, 37.3) - exact([37.3])[0, -1]) <= bound
    assert len(halves) == 2 and all(half is not None for half in halves)


@pytest.mark.parametrize("n_sites, paired", [(200, False), (201, True)])
def test_decoupled_site_one_keeps_the_excitation(n_sites, paired):
    # alpha = 0 on bond 1 decouples site 1, so its excitation never leaves.
    # For even N the decoupled level and the zero mode of sites 2..N share
    # E = h in a basis LAPACK picks, so they need not pair.
    ham = build_hamiltonian(single_impurity(n_sites, 0.0))
    with pairings() as halves:
        series = time_series(ham, SeriesKind.IPR, 0.05 * np.arange(10001))
    assert (halves[0] is not None) == paired
    assert np.max(np.abs(series.values - 1.0)) <= 1e-12


def test_non_constant_diagonal_takes_the_full_route():
    ham = hamiltonian_of(mirror_impurities(40, 0.5, field_h=0.3))
    ham = TridiagonalHamiltonian(ham.diag + 0.05 * np.sin(np.arange(40)), ham.offdiag)
    times = 0.1 * np.arange(400)
    with pairings() as halves:
        ipr = time_series(ham, SeriesKind.IPR, times).values
        fidelity = time_series(ham, SeriesKind.FIDELITY, times).values
    assert len(halves) == 2 and all(half is None for half in halves)
    with unpaired():
        assert np.array_equal(ipr, time_series(ham, SeriesKind.IPR, times).values)
        assert np.array_equal(fidelity, time_series(ham, SeriesKind.FIDELITY, times).values)


def test_even_chain_pair_at_the_field_takes_the_full_route():
    ham = build_hamiltonian(single_impurity(30, 0.0, field_h=0.4))
    dec = eigendecompose(ham)
    assert np.sum(np.abs(dec.energies - 0.4) < 1e-12) == 2
    times = 0.1 * np.arange(400)
    with pairings() as halves:
        amplitude_matrix(dec, times)
        ipr = time_series(ham, SeriesKind.IPR, times).values
    assert halves == [None, None]
    with unpaired():
        assert np.array_equal(ipr, time_series(ham, SeriesKind.IPR, times).values)


def test_a_pairing_defect_takes_the_full_route(monkeypatch):
    ham = build_hamiltonian(mirror_impurities(41, 0.4, field_h=-0.2))
    dec = eigendecompose(ham)
    spectrum = transfer_spectrum(ham)
    times = 0.05 * np.arange(1001)
    with pairings() as halves:
        amplitude_matrix(dec, times)
        transfer_amplitude(spectrum, times)
    assert len(halves) == 2 and all(half is not None for half in halves)
    # one level moved by 1e-9, one weight by 1e-9: far beyond 64 eps max|E| and the round-off
    moved = dec.energies.copy()
    moved[-1] += 1e-9
    nudged = spectral.SpectralDecomposition(moved, dec.vectors, dec.residual_bound)
    weights = spectrum.transfer_weights.copy()
    weights[0] += 1e-9
    skewed = spectral.TransferSpectrum(spectrum.energies, weights, spectrum.residual_bound)
    monkeypatch.setattr(dynamics, "eigendecompose", lambda h: nudged)
    monkeypatch.setattr(dynamics, "transfer_spectrum", lambda h: skewed)
    with pairings() as halves:
        series = {kind: time_series(ham, kind, times).values for kind in SeriesKind}
    assert len(halves) >= len(SeriesKind) and all(half is None for half in halves)
    with unpaired():
        for kind in SeriesKind:
            assert np.array_equal(series[kind], time_series(ham, kind, times).values)


@pytest.mark.parametrize("times, paired", [(0.005 * np.arange(11), False), (0.1 * np.arange(401), True)])
def test_the_guard_follows_the_grid(times, paired):
    # the weight defect dw of the eigenvectors does not grow with t, so on
    # this chain the upper half is admitted from max|t| of about 0.07 on for
    # f_N and 0.24 for the site amplitudes: 0:0.05:0.005 takes the full sum,
    # 0:40:0.1 the upper half (the phase route's own weights pair exactly)
    ham = build_hamiltonian(mirror_impurities(200, 0.4, field_h=-0.2))
    dec = eigendecompose(ham)
    spectrum = full_route(dec)
    with pairings() as halves:
        f_n = transfer_amplitude(spectrum, times)
        amplitudes = amplitude_matrix(dec, times)
        ipr = time_series(ham, SeriesKind.IPR, times).values
    assert [half is not None for half in halves] == [paired] * 3
    with unpaired():
        full_f = transfer_amplitude(spectrum, times)
        full_amplitudes = amplitude_matrix(dec, times)
        full_ipr = time_series(ham, SeriesKind.IPR, times).values
    if not paired:
        assert np.array_equal(f_n, full_f) and np.array_equal(amplitudes, full_amplitudes)
        assert np.array_equal(ipr, full_ipr)
    weights = spectrum.transfer_weights
    assert np.max(np.abs(f_n - full_f)) <= tolerance(spectrum.energies, weights, times, 200)
    bound = tolerance(dec.energies, dec.vectors * dec.vectors[:, :1], times, 200)
    assert np.max(np.abs(amplitudes - full_amplitudes)) <= bound
    assert np.max(np.abs(ipr / full_ipr - 1.0)) <= 8.0 * 200 ** 0.5 * bound


# Even grids 0.05 k of count samples read in blocks of whole anchors
# (BLOCK_ROWS = 256): 100 is below one block of 250, 506 two blocks of 253,
# 507 one sample past them, 2001 nine blocks of 225 with 201 rows in the last;
# the uneven grid of 600 is one anchor cut into runs of 256, 256 and 88.
BLOCK_LAYOUTS = {100: [100], 506: [253, 253], 507: [253, 253, 1], 2001: [225] * 8 + [201],
                 "uneven": [256, 256, 88]}


@pytest.mark.parametrize("count", list(BLOCK_LAYOUTS))
@pytest.mark.parametrize("n_sites, alpha, paired", [(50, 0.4, True), (51, 0.4, True), (200, 0.4, True),
                                                    (50, 0.0, False)])
def test_blocks_match_the_per_sample_sum(n_sites, alpha, paired, count):
    # even N at alpha = 0 holds a pair at E = h in a basis LAPACK picks, so it takes the full sum
    times = 0.05 * np.arange(600 if count == "uneven" else count)
    if count == "uneven":
        times[1::2] += 0.01
    ham = build_hamiltonian(single_impurity(n_sites, alpha, field_h=0.3))  # h != 0 tests the phases
    dec = eigendecompose(ham)
    for site in (1, n_sites // 3):
        weights = dec.vectors[:, site - 1]
        reference = np.exp(-1j * np.outer(times, dec.energies)) * weights @ dec.vectors
        with pairings() as halves, blockings() as blocks:
            amplitudes = amplitude_matrix(dec, times, site)
            ipr = time_series(ham, SeriesKind.IPR, times).values if site == 1 else None
        assert [half is not None for half in halves] == [paired] * len(halves)
        layout = BLOCK_LAYOUTS[count]
        starts = np.cumsum([0] + layout[:-1]).tolist()
        assert blocks == list(zip(starts, layout)) * len(halves)
        bound = tolerance(dec.energies, dec.vectors * weights[:, None], times, n_sites)
        assert np.max(np.abs(amplitudes - reference)) <= bound
        if ipr is not None:
            assert np.max(np.abs(ipr / ipr_of_rows(reference) - 1.0)) <= 8.0 * n_sites ** 0.5 * bound


def test_anchors_longer_than_a_block_are_cut_into_runs():
    # 70,001 samples factor into 265 anchors of 265 offsets, more than a block:
    # every anchor is cut into runs of 256 and 9, and the last holds 41 samples
    times = 0.05 * np.arange(70001)
    ham = build_hamiltonian(single_impurity(9, 0.4, field_h=0.3))
    dec = eigendecompose(ham)
    with blockings() as blocks:
        amplitudes = amplitude_matrix(dec, times)
        ipr = time_series(ham, SeriesKind.IPR, times).values
    layout = [(265 * a + b, rows) for a in range(264) for b, rows in ((0, 256), (256, 9))] + [(264 * 265, 41)]
    assert blocks == layout * 2
    reference = np.exp(-1j * np.outer(times, dec.energies)) * dec.vectors[:, 0] @ dec.vectors
    bound = tolerance(dec.energies, dec.vectors * dec.vectors[:, :1], times, 9)
    assert np.max(np.abs(amplitudes - reference)) <= bound
    assert np.max(np.abs(ipr / ipr_of_rows(reference) - 1.0)) <= 8.0 * 9 ** 0.5 * bound
