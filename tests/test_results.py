"""Every frozen result holds read-only copies of its arrays.

A result built from an array, or from a read-only view of a writable
array, must not change when its caller later writes to that array.
"""

import dataclasses

import numpy as np
import pytest

from xxchain.chain import TridiagonalHamiltonian, single_impurity
from xxchain.dynamics import SeriesKind, TimeSeries
from xxchain.measures import StateSweep, c12_sweep, ipr_sweep
from xxchain.oracle import FullState
from xxchain.protocols import Landscape
from xxchain.spectral import SpectralDecomposition, TransferSpectrum

N = 4
TEMPLATE = single_impurity(N, 1.0)

# (constructor, its array arguments) of every result type, and of the two sweeps
RESULTS = {
    "TridiagonalHamiltonian": (TridiagonalHamiltonian, {"diag": np.zeros(N), "offdiag": -np.ones(N - 1)}),
    "SpectralDecomposition": (
        lambda **arrays: SpectralDecomposition(**arrays, residual_bound=0.0),
        {"energies": np.arange(N, dtype=float), "vectors": np.eye(N)}),
    "TransferSpectrum": (
        lambda **arrays: TransferSpectrum(**arrays, residual_bound=0.0),
        {"energies": np.arange(N, dtype=float), "transfer_weights": np.full(N, 0.25)}),
    "StateSweep": (StateSweep, {"alphas": np.array([0.5, 1.0]), "states": np.arange(1, 4), "values": np.ones((2, 3))}),
    "TimeSeries": (
        lambda **arrays: TimeSeries(**arrays, kind=SeriesKind.FIDELITY),
        {"times": np.arange(3.0), "values": np.zeros(3)}),
    "Landscape": (Landscape, {"alphas": np.array([0.5, 1.0]), "times": np.arange(3.0), "fidelities": np.zeros((2, 3))}),
    "FullState": (lambda **arrays: FullState(**arrays, n_qubits=2), {"amps": np.array([0.0, 1.0, 0.0, 0.0], complex)}),
    "ipr_sweep": (lambda alphas: ipr_sweep(TEMPLATE, alphas, range(1, N + 1)), {"alphas": np.array([0.5, 1.0])}),
    "c12_sweep": (lambda alphas: c12_sweep(TEMPLATE, alphas, range(1, N + 1)), {"alphas": np.array([0.5, 1.0])}),
}


@pytest.mark.parametrize("through_view", [False, True], ids=["array", "read-only view"])
@pytest.mark.parametrize("build, arrays", RESULTS.values(), ids=RESULTS.keys())
def test_every_result_holds_read_only_copies(build, arrays, through_view):
    bases = {name: array.copy() for name, array in arrays.items()}
    passed = {name: base.view() for name, base in bases.items()}
    for view in passed.values():
        view.setflags(write=not through_view)
    result = build(**passed)
    stored = {field.name: getattr(result, field.name) for field in dataclasses.fields(result)}
    kept = {name: array.copy() for name, array in stored.items() if isinstance(array, np.ndarray)}
    assert all(not stored[name].flags.writeable for name in kept)
    for name, base in bases.items():
        assert not np.shares_memory(stored[name], base)
        base[...] = 7.0
    for name, array in kept.items():
        assert np.array_equal(stored[name], array), name


@pytest.mark.parametrize("build", [StateSweep, Landscape], ids=["StateSweep", "Landscape"])
def test_a_grid_result_refuses_values_of_another_shape(build):
    # values must be (len(alphas), len(states)) or (len(alphas), len(times))
    for values in (np.zeros(5), np.zeros((3, 2)), np.zeros((2, 3, 1))):
        with pytest.raises(ValueError):
            build(np.zeros(2), np.zeros(3), values)
    assert build(np.zeros(2), np.zeros(3), np.zeros((2, 3))).alphas.size == 2
