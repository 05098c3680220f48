import inspect

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from xxchain import spectral
from xxchain.chain import (
    ChainSpec,
    build_hamiltonian,
    mirror_impurities,
    single_impurity,
    with_alpha,
)
from xxchain.errors import NoBracket, TooSmallN, WrongConfiguration
from xxchain.spectral import (
    BandLabel,
    SpectralDecomposition,
    classify_band,
    denergy_dalpha,
    eigendecompose,
    estimate_alpha_c,
    sweep,
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
    dec = eigendecompose(build_hamiltonian(single_impurity(40, 3.0)))
    assert dec.energies[0] < -2.0
    assert dec.energies[-1] > 2.0
    # isolated level tracks -alpha within 20 percent
    assert abs(dec.energies[0] + 3.0) / 3.0 < 0.2
    cls = classify_band(dec, -1.0)
    assert cls.labels[0] is BandLabel.ISOLATED_BELOW
    assert cls.labels[-1] is BandLabel.ISOLATED_ABOVE
    assert cls.labels.count(BandLabel.IN_BAND) == 38


def test_bound_state_tail_decays_monotonically():
    dec = eigendecompose(build_hamiltonian(single_impurity(40, 3.0)))
    tail = np.abs(dec.vectors[0][1:])
    assert np.all(np.diff(tail) < 0.0)


def test_homogeneous_and_weak_impurity_all_in_band():
    for alpha in (None, 1.0):
        spec = ChainSpec(40) if alpha is None else single_impurity(40, alpha)
        cls = classify_band(eigendecompose(build_hamiltonian(spec)), -1.0)
        assert cls.labels.count(BandLabel.IN_BAND) == 40


def test_classification_boundary_tolerance():
    energies = np.array([-2.0 - 1e-10, 0.0, 2.0 + 1e-10, 2.0 + 1e-8])
    dec = SpectralDecomposition(energies=energies, vectors=np.eye(4), residual_bound=0.0)
    labels = classify_band(dec, -1.0).labels
    assert labels[0] is BandLabel.IN_BAND
    assert labels[2] is BandLabel.IN_BAND
    assert labels[3] is BandLabel.ISOLATED_ABOVE


def test_alpha_c_estimates():
    value_200 = estimate_alpha_c(single_impurity(200, 1.0), (1.0, 2.0), 1e-4)
    assert 1.40 <= value_200 <= 1.45
    value_40 = estimate_alpha_c(single_impurity(40, 1.0), (1.0, 2.0), 1e-4)
    value_400 = estimate_alpha_c(single_impurity(400, 1.0), (1.0, 2.0), 1e-4)
    assert 1.35 <= value_40 <= 1.50
    assert 1.35 <= value_400 <= 1.50
    assert abs(value_400 - SQRT2) < abs(value_40 - SQRT2)


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


@pytest.mark.parametrize("states", [None, (2, 3)])
def test_sweep_is_lazy_and_matches_direct_solves(states, monkeypatch):
    template = mirror_impurities(40, 1.0, exchange_j=-0.8, field_h=0.3)
    alphas = np.array([0.0, 0.7, 1.6])
    direct = spectral.eigendecompose
    requested = []

    def counted(hamiltonian, states=None):
        requested.append(states)
        return direct(hamiltonian, states)

    monkeypatch.setattr(spectral, "eigendecompose", counted)
    steps = sweep(template, alphas, states)
    assert inspect.isgenerator(steps)
    assert requested == []
    for count, (alpha, dec) in enumerate(steps, start=1):
        assert requested == [states] * count
        assert type(alpha) is float and alpha == alphas[count - 1]
        expected = direct(build_hamiltonian(with_alpha(template, alpha)), states)
        assert np.array_equal(dec.energies, expected.energies)
        assert np.array_equal(dec.vectors, expected.vectors)
        assert dec.first_state == expected.first_state
    assert len(requested) == alphas.size
