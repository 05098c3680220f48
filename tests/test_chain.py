import numpy as np
import pytest

from xxchain.chain import (
    ChainSpec,
    build_hamiltonian,
    mirror_impurities,
    parse_chain_config,
    single_impurity,
    validate_spec,
    with_alpha,
)
from xxchain.errors import (
    BadBond,
    CouplingSignWarning,
    InvalidN,
    NegativeAlpha,
    NonFiniteParameter,
    ZeroCoupling,
)
from xxchain.spectral import eigendecompose


def test_validate_accepts_good_spec():
    spec = ChainSpec(4, -1.0, 0.0, ((1, 0.4),))
    assert validate_spec(spec) is spec


def test_validate_rejects_short_chain():
    with pytest.raises(InvalidN):
        validate_spec(ChainSpec(1))


def test_validate_rejects_bond_out_of_range():
    with pytest.raises(BadBond):
        validate_spec(ChainSpec(4, impurities=((4, 0.4),)))


def test_validate_rejects_duplicate_bond():
    with pytest.raises(BadBond):
        validate_spec(ChainSpec(6, impurities=((2, 0.4), (2, 0.7))))


def test_validate_rejects_negative_alpha():
    with pytest.raises(NegativeAlpha):
        validate_spec(ChainSpec(4, impurities=((1, -0.1),)))


def test_validate_rejects_zero_coupling():
    with pytest.raises(ZeroCoupling):
        validate_spec(ChainSpec(4, exchange_j=0.0))


@pytest.mark.parametrize(
    "spec",
    [
        ChainSpec(4, exchange_j=float("nan")),
        ChainSpec(4, exchange_j=float("-inf")),
        ChainSpec(4, field_h=float("inf")),
        ChainSpec(4, field_h=float("nan")),
        ChainSpec(4, impurities=((1, float("nan")),)),
        ChainSpec(4, impurities=((1, 0.4), (3, float("inf")))),
        # |h| + 2 max|coupling|, the bound on every |E|, overflows
        ChainSpec(4, exchange_j=-1e308),
        ChainSpec(4, exchange_j=-2.0, impurities=((1, 1e308),)),
        ChainSpec(4, exchange_j=-1e308, impurities=((1, 0.5), (2, 0.5))),
        ChainSpec(4, exchange_j=-0.6e308, field_h=1e308),
    ],
)
def test_validate_rejects_non_finite_parameters(spec):
    with pytest.raises(NonFiniteParameter):
        validate_spec(spec)


def test_the_energy_bound_reads_the_couplings_only():
    # J = -1e308 sits on no bond once every bond is an impurity bond
    validate_spec(ChainSpec(3, exchange_j=-1e308, impurities=((1, 0.5), (2, 0.25))))


def test_positive_j_warns_but_passes():
    with pytest.warns(CouplingSignWarning):
        validate_spec(ChainSpec(4, exchange_j=1.0))


def test_homogeneous_hamiltonian():
    ham = build_hamiltonian(ChainSpec(4))
    assert np.array_equal(ham.diag, np.zeros(4))
    assert np.array_equal(ham.offdiag, -np.ones(3))


def test_single_impurity_hamiltonian_with_field():
    ham = build_hamiltonian(ChainSpec(4, -1.0, 0.5, ((1, 0.4),)))
    assert np.allclose(ham.diag, 0.5)
    assert np.array_equal(ham.offdiag, np.array([-0.4, -1.0, -1.0]))


def test_mirror_impurity_hamiltonian():
    ham = build_hamiltonian(mirror_impurities(6, 0.4))
    assert np.array_equal(ham.offdiag, np.array([-0.4, -1.0, -1.0, -1.0, -0.4]))


def test_dense_matrix_is_symmetric_and_toeplitz_when_homogeneous():
    dense = build_hamiltonian(ChainSpec(5)).to_dense()
    assert np.array_equal(dense, dense.T)
    for k in range(4):
        assert dense[k, k + 1] == dense[0, 1]


def test_build_is_deterministic():
    spec = ChainSpec(8, impurities=((1, 0.3), (7, 0.3)))
    first = build_hamiltonian(spec)
    second = build_hamiltonian(spec)
    assert np.array_equal(first.diag, second.diag)
    assert np.array_equal(first.offdiag, second.offdiag)


def test_field_only_shifts_the_spectrum():
    dec0 = eigendecompose(build_hamiltonian(single_impurity(12, 0.7)))
    dech = eigendecompose(build_hamiltonian(single_impurity(12, 0.7, field_h=0.7)))
    assert np.max(np.abs(dech.energies - dec0.energies - 0.7)) < 1e-10
    assert np.max(np.abs(dech.vectors - dec0.vectors)) < 1e-10


def test_convenience_constructors_produce_the_two_layouts():
    assert single_impurity(10, 0.4).impurities == ((1, 0.4),)
    assert mirror_impurities(10, 0.4).impurities == ((1, 0.4), (9, 0.4))
    with pytest.raises(BadBond):
        mirror_impurities(2, 0.4)


def test_with_alpha_replaces_every_strength():
    spec = with_alpha(mirror_impurities(10, 0.4), 0.9)
    assert spec.impurities == ((1, 0.9), (9, 0.9))


def test_matvec_matches_dense():
    ham = build_hamiltonian(ChainSpec(7, impurities=((3, 0.2),)))
    rng = np.random.default_rng(7)
    vec = rng.normal(size=7) + 1j * rng.normal(size=7)
    assert np.allclose(ham.matvec(vec), ham.to_dense() @ vec)


def test_config_round_trip():
    text = """
    # chain used in the transfer study
    n_sites = 6
    exchange_j = -1.0
    field_h = 0.25
    impurities = 1:0.4, 5:0.4
    """
    spec = parse_chain_config(text)
    assert spec == ChainSpec(6, -1.0, 0.25, ((1, 0.4), (5, 0.4)))


def test_config_defaults_and_empty_impurities():
    spec = parse_chain_config("n_sites = 9\nimpurities =\n")
    assert spec == ChainSpec(9)


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        parse_chain_config("n_sites = 6\ncoupling = 2\n")


def test_config_rejects_malformed_impurity():
    with pytest.raises(ValueError):
        parse_chain_config("n_sites = 6\nimpurities = 1-0.4\n")


def test_config_requires_n_sites():
    with pytest.raises(ValueError):
        parse_chain_config("exchange_j = -1\n")
