import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from xxchain import spectral
from xxchain.chain import (
    ChainSpec,
    TridiagonalHamiltonian,
    build_hamiltonian,
    mirror_impurities,
    single_impurity,
)
from xxchain.errors import ConvergenceFailure, NoBracket, TooSmallN, WrongConfiguration
from xxchain.spectral import (
    RESIDUAL_TOL,
    BandLabel,
    SpectralDecomposition,
    TransferSpectrum,
    classify_band,
    denergy_dalpha,
    eigendecompose,
    estimate_alpha_c,
    first_bond_c12,
    transfer_spectrum,
)

SQRT2 = np.sqrt(2.0)


def test_two_site_chain_analytic():
    dec = eigendecompose(build_hamiltonian(ChainSpec(2)))
    assert np.allclose(dec.energies, [-1.0, 1.0])
    root = 1.0 / np.sqrt(2.0)
    assert np.allclose(dec.vectors[0], [root, root])
    assert np.allclose(dec.vectors[1], [root, -root])


def test_three_site_chain_analytic():
    dec = eigendecompose(build_hamiltonian(ChainSpec(3)))
    assert np.allclose(dec.energies, [-SQRT2, 0.0, SQRT2], atol=1e-12)


def test_energies_ascending_and_orthonormal():
    dec = eigendecompose(build_hamiltonian(single_impurity(60, 1.3)))
    assert np.all(np.diff(dec.energies) >= 0.0)
    gram = dec.vectors @ dec.vectors.T
    assert np.max(np.abs(gram - np.eye(60))) <= 1e-10
    assert dec.residual_bound <= 1e-10 * (np.max(np.abs(dec.energies)) + 1.0)


def test_sign_convention_first_significant_coefficient_positive():
    dec = eigendecompose(build_hamiltonian(single_impurity(40, 2.2)))
    for vector in dec.vectors:
        lead = vector[np.abs(vector) > 1e-12][0]
        assert lead > 0.0


def test_spectrum_symmetric_about_zero_for_even_n():
    for alpha in (0.3, 1.0, 2.5):
        dec = eigendecompose(build_hamiltonian(single_impurity(40, alpha)))
        assert np.max(np.abs(dec.energies + dec.energies[::-1])) <= 1e-10


def test_parity_relation_between_mirror_states():
    dec = eigendecompose(build_hamiltonian(single_impurity(40, 0.8)))
    alternating = (-1.0) ** np.arange(1, 41)
    for j in (0, 3, 17, 25):
        partner = alternating * dec.vectors[40 - 1 - j]
        dev = min(
            np.max(np.abs(dec.vectors[j] - partner)),
            np.max(np.abs(dec.vectors[j] + partner)),
        )
        assert dev <= 1e-9
        assert np.max(np.abs(np.abs(dec.vectors[j]) - np.abs(dec.vectors[40 - 1 - j]))) <= 1e-9


def test_trace_preserved():
    dec = eigendecompose(build_hamiltonian(single_impurity(40, 1.7, field_h=0.7)))
    assert abs(np.sum(dec.energies) - 40 * 0.7) <= 1e-9


def test_isolated_pair_at_strong_impurity():
    spec = single_impurity(40, 3.0)
    dec = eigendecompose(build_hamiltonian(spec))
    assert dec.energies[0] < -2.0
    assert dec.energies[-1] > 2.0
    # isolated level tracks -alpha within 20 percent
    assert abs(dec.energies[0] + 3.0) / 3.0 < 0.2
    labels = classify_band(dec, spec)
    assert labels[0] is BandLabel.ISOLATED_BELOW
    assert labels[-1] is BandLabel.ISOLATED_ABOVE
    assert labels.count(BandLabel.IN_BAND) == 38


def test_bound_state_tail_decays_monotonically():
    dec = eigendecompose(build_hamiltonian(single_impurity(40, 3.0)))
    tail = np.abs(dec.vectors[0][1:])
    assert np.all(np.diff(tail) < 0.0)


def test_homogeneous_and_weak_impurity_all_in_band():
    for alpha in (None, 1.0):
        spec = ChainSpec(40) if alpha is None else single_impurity(40, alpha)
        labels = classify_band(eigendecompose(build_hamiltonian(spec)), spec)
        assert labels.count(BandLabel.IN_BAND) == 40


def test_classification_boundary_tolerance():
    energies = np.array([-2.0 - 1e-10, 0.0, 2.0 + 1e-10, 2.0 + 1e-8])
    dec = SpectralDecomposition(energies=energies, vectors=np.eye(4), residual_bound=0.0)
    labels = classify_band(dec, ChainSpec(4))
    assert labels[0] is BandLabel.IN_BAND
    assert labels[2] is BandLabel.IN_BAND
    assert labels[3] is BandLabel.ISOLATED_ABOVE


SHAPES = {
    "vectors-3x4": (SpectralDecomposition, np.arange(4.0), np.eye(4)[:3]),
    "vectors-of-a-range": (SpectralDecomposition, np.arange(3.0), np.eye(4)[1:]),
    "energies-2x2": (SpectralDecomposition, np.arange(4.0).reshape(2, 2), np.eye(4)),
    "weights-3": (TransferSpectrum, np.arange(4.0), np.ones(3)),
    "energies-2x2-weights-4": (TransferSpectrum, np.arange(4.0).reshape(2, 2), np.ones(4)),
    "energies-and-weights-2x2": (TransferSpectrum, np.arange(4.0).reshape(2, 2), np.ones((2, 2))),
}


@pytest.mark.parametrize("kind, energies, array", SHAPES.values(), ids=SHAPES.keys())
def test_mismatched_shapes_are_refused_at_construction(kind, energies, array):
    # every state of the chain or none: 1-d energies, N x N vectors, N weights
    with pytest.raises(ValueError):
        kind(energies, array, 0.0)


def test_construction_leaves_the_callers_arrays_writable():
    energies, vectors, weights = np.arange(4.0), np.eye(4), np.ones(4)
    dec = SpectralDecomposition(energies, vectors, 0.0)
    spectrum = TransferSpectrum(energies, weights, 0.0)
    for array in (energies, vectors, weights):
        array[0] = 2.0
    assert energies.flags.writeable and vectors.flags.writeable and weights.flags.writeable
    assert dec.energies[0] == spectrum.energies[0] == 0.0
    assert dec.vectors[0, 0] == 1.0 and spectrum.transfer_weights[0] == 1.0
    assert not (dec.energies.flags.writeable or dec.vectors.flags.writeable or spectrum.transfer_weights.flags.writeable)


def test_alpha_c_estimates():
    value_200 = estimate_alpha_c(single_impurity(200, 1.0), (1.0, 2.0), 1e-4)
    assert 1.40 <= value_200 <= 1.45
    value_40 = estimate_alpha_c(single_impurity(40, 1.0), (1.0, 2.0), 1e-4)
    value_400 = estimate_alpha_c(single_impurity(400, 1.0), (1.0, 2.0), 1e-4)
    assert 1.35 <= value_40 <= 1.50
    assert 1.35 <= value_400 <= 1.50
    assert abs(value_400 - SQRT2) < abs(value_40 - SQRT2)


@pytest.mark.parametrize("exchange_j, field_h", [(-1.0, 0.0), (-0.7, 0.4), (1.3, -0.2)])
@pytest.mark.parametrize("n", [10, 40, 200])
def test_alpha_c_matches_the_linear_band_edge_mode(n, exchange_j, field_h):
    # At alpha_c state 1 sits on the band edge E = h - 2|J|.  For J < 0 the
    # rows 3..N read psi_{n-1} + psi_{n+1} = 2 psi_n with psi_{N+1} = 0, so
    # the mode is linear, psi_n = N + 1 - n for n >= 2 (J > 0 maps onto this
    # under psi_n -> (-1)^n psi_n).  Row 2, alpha psi_1 + psi_3 = 2 psi_2,
    # gives alpha psi_1 = N; row 1 gives alpha psi_2 = 2 psi_1.  Together
    # alpha_c^2 = 2N / (N - 1), exactly, at every N.
    tol = 1e-4
    template = single_impurity(n, 1.0, exchange_j=exchange_j, field_h=field_h)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # J > 0 sign warning; same physics
        value = estimate_alpha_c(template, tol=tol)
    assert abs(value - np.sqrt(2.0 * n / (n - 1))) <= tol


@st.composite
def band_chains(draw):
    """Single or mirror impurity chains at h = 0, either J sign."""
    n = draw(st.integers(3, 60))
    layout = draw(st.sampled_from((single_impurity, mirror_impurities)))
    exchange_j = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 1.5))
    return layout(n, draw(st.floats(0.0, 3.0)), exchange_j=exchange_j)


@settings(max_examples=40, deadline=None)
@given(spec=band_chains(), field_h=st.floats(-3.0, 3.0))
def test_band_rule_moves_with_the_field(spec, field_h):
    shifted = replace(spec, field_h=field_h)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # J > 0 sign warning; same physics
        labels = classify_band(eigendecompose(build_hamiltonian(spec)), spec)
        assert classify_band(eigendecompose(build_hamiltonian(shifted)), shifted) == labels
        if spec.n_sites >= 10:
            tol = 1e-4
            alpha_c = estimate_alpha_c(spec, tol=tol)
            assert abs(estimate_alpha_c(shifted, tol=tol) - alpha_c) <= tol


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_alpha_c_rejects_a_non_finite_tol(tol):
    # a non-finite tol skips the bisection and returns the bracket midpoint
    with pytest.raises(ValueError, match="tol"):
        estimate_alpha_c(single_impurity(40, 1.0), tol=tol)


def test_alpha_c_requires_a_bracket():
    with pytest.raises(NoBracket):
        estimate_alpha_c(single_impurity(200, 1.0), (0.1, 0.5), 1e-4)
    with pytest.raises(NoBracket):
        estimate_alpha_c(single_impurity(200, 1.0), (2.5, 3.0), 1e-4)


def test_alpha_c_rejects_short_chains():
    with pytest.raises(TooSmallN):
        estimate_alpha_c(single_impurity(8, 1.0), (1.0, 2.0), 1e-4)


def _lowest_energy_at(n, alpha, j):
    ham = build_hamiltonian(single_impurity(n, alpha))
    return eigvalsh_tridiagonal(ham.diag, ham.offdiag, select="i", select_range=(j - 1, j - 1))[0]


def test_denergy_matches_finite_difference():
    # independent oracle: central difference of the selected eigenvalue
    value = denergy_dalpha(single_impurity(40, 2.0), 1)
    delta = 1e-5
    numeric = (_lowest_energy_at(40, 2.0 + delta, 1) - _lowest_energy_at(40, 2.0 - delta, 1)) / (
        2.0 * delta
    )
    assert abs(value - numeric) <= 1e-6 * abs(numeric)


def test_denergy_is_flat_in_the_band():
    assert abs(denergy_dalpha(single_impurity(40, 0.8), 20)) < 0.02


def test_denergy_antisymmetric_between_mirror_states():
    spec = single_impurity(40, 2.0)
    assert abs(denergy_dalpha(spec, 1) + denergy_dalpha(spec, 40)) <= 1e-10


def test_denergy_requires_single_bond_one_impurity():
    with pytest.raises(WrongConfiguration):
        denergy_dalpha(mirror_impurities(40, 0.4), 1)
    with pytest.raises(WrongConfiguration):
        denergy_dalpha(ChainSpec(40, impurities=((2, 0.5),)), 1)


def test_overflowing_energies_are_refused():
    # |h| + 2 max|coupling| overflows: both routes raise rather than return +-inf
    hamiltonian = TridiagonalHamiltonian(np.zeros(8), np.full(7, -1e308))
    with pytest.raises(ConvergenceFailure):
        eigendecompose(hamiltonian)
    with pytest.raises(ConvergenceFailure):
        transfer_spectrum(hamiltonian)
    with pytest.raises(ConvergenceFailure):
        first_bond_c12(hamiltonian, (1, 8))


def test_the_residual_check_scales_before_it_squares():
    # J = -1e200 is J = -1 scaled: accepted, with no overflow warning
    unit = eigendecompose(build_hamiltonian(single_impurity(4, 0.5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = eigendecompose(build_hamiltonian(single_impurity(4, 0.5, exchange_j=-1e200)))
    assert np.allclose(dec.energies * 1e-200, unit.energies, rtol=1e-14, atol=0.0)
    assert dec.residual_bound <= RESIDUAL_TOL * (np.max(np.abs(dec.energies)) + 1.0)
    # a NaN residual fails the check
    vectors = np.array(unit.vectors)
    vectors[0, 0] = np.nan
    with pytest.raises(ConvergenceFailure):
        spectral._checked_residuals(np.zeros((1, 4)), np.array([[-0.5, -1.0, -1.0]]), unit.energies[None], vectors[None])
