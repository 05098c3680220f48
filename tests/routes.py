"""The full-eigenvector route to f_N(t), kept as a test reference.

Production f_N(t) reads spectral.transfer_spectrum, which reads a mirror
chain from its phase equation.  Tests that pin that route against the full
eigendecomposition build the same TransferSpectrum from the first and last
components of every eigenvector.

pairings records which route the time kernels take: the upper half of a
chirally paired spectrum or the full sum (dynamics docstring), and unpaired
makes every kernel call take the full sum.  factorings records how the
kernels read the time grid: factored into anchors and offsets, or one
anchor at 0 with every sample as an offset.  blockings records the time
blocks the site-amplitude kernel streams the grid in.

solver_spy, failed_solver and noisy_solver act on spectral._eigh_rows, the
one eigensolver call, which solves a stack of matrices: they record every
matrix it solves, make numpy.linalg.eigh raise LinAlgError inside it, or add
noise to the eigenvectors numpy.linalg.eigh returns to it, ahead of its
residual check.  Every row of an alpha grid that the phase route does not
take is solved there, in stacks, as is eigendecompose, so solver_spy is the
record of the dense route: an empty list means the phase route took every
row.
"""

import contextlib
from unittest import mock

import numpy as np

from xxchain import dynamics, spectral
from xxchain.chain import TridiagonalHamiltonian
from xxchain.spectral import SpectralDecomposition, TransferSpectrum


def full_route(dec: SpectralDecomposition) -> TransferSpectrum:
    """Energies and weights psi_1 psi_N of a complete decomposition."""
    return TransferSpectrum(dec.energies, dec.vectors[:, 0] * dec.vectors[:, -1], dec.residual_bound)


@contextlib.contextmanager
def pairings():
    """Every dynamics._upper_half result in call order: None where a call takes the full sum."""
    results = []
    helper = dynamics._upper_half

    def recording(*args):
        results.append(helper(*args))
        return results[-1]

    with mock.patch.object(dynamics, "_upper_half", recording):
        yield results


@contextlib.contextmanager
def unpaired():
    """The full-spectrum route: no kernel call inside pairs."""
    with mock.patch.object(dynamics, "_upper_half", return_value=None):
        yield


@contextlib.contextmanager
def factorings():
    """For every dynamics._phase_tables call in order, whether it factored the grid.

    A factored grid has more than one anchor row or a complex anchor table;
    any other grid has the single real anchor row of ones.
    """
    results = []
    helper = dynamics._phase_tables

    def recording(*args):
        coarse, fine = helper(*args)
        results.append(coarse.shape[0] > 1 or np.iscomplexobj(coarse))
        return coarse, fine

    with mock.patch.object(dynamics, "_phase_tables", recording):
        yield results


@contextlib.contextmanager
def blockings():
    """(start, rows) of every block dynamics._site_row_blocks yields, in order."""
    results = []
    kernel = dynamics._site_row_blocks

    def recording(*args):
        for start, rows, centre in kernel(*args):
            results.append((start, len(rows)))
            yield start, rows, centre

    with mock.patch.object(dynamics, "_site_row_blocks", recording):
        yield results


@contextlib.contextmanager
def solver_spy():
    """Every matrix spectral._eigh_rows solves, in order, as a TridiagonalHamiltonian (same_matrices)."""
    solved = []
    solve = spectral._eigh_rows

    def recording(diag, offdiag):
        solved.extend(map(TridiagonalHamiltonian, diag, offdiag))
        return solve(diag, offdiag)

    with mock.patch.object(spectral, "_eigh_rows", recording):
        yield solved


def same_matrices(solved, hamiltonians):
    """Whether two lists hold the same matrices, entry for entry, in the same order."""
    return len(solved) == len(hamiltonians) and all(
        np.array_equal(a.diag, b.diag) and np.array_equal(a.offdiag, b.offdiag) for a, b in zip(solved, hamiltonians))


def _inside_solves(patched_eigh):
    """A patch of spectral._eigh_rows under which its numpy.linalg.eigh call is patched_eigh."""
    solve = spectral._eigh_rows

    def patched(*args):
        with mock.patch("numpy.linalg.eigh", patched_eigh):
            return solve(*args)

    return mock.patch.object(spectral, "_eigh_rows", patched)


def failed_solver():
    """Every solve meets a numpy.linalg.eigh that raises LinAlgError, as one that does not converge."""
    return _inside_solves(mock.Mock(side_effect=np.linalg.LinAlgError("no convergence")))


def noisy_solver(matrices=slice(None)):
    """Every solve gets its eigenvectors plus 1e-7 in each component, before its checks.

    matrices picks the matrices of each stack that get the noise: all of
    them by default.
    """
    eigh = np.linalg.eigh

    def noisy(dense):
        energies, columns = eigh(dense)
        columns[matrices] += 1e-7
        return energies, columns

    return _inside_solves(noisy)
