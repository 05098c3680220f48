"""The full-eigenvector route to f_N(t), kept as a test reference.

Production f_N(t) reads spectral.transfer_spectrum, which solves a
palindromic chain as two reflection-parity blocks.  Tests that pin that
route against the full eigendecomposition build the same TransferSpectrum
from the first and last components of every eigenvector.
"""

from xxchain.spectral import SpectralDecomposition, TransferSpectrum


def full_route(dec: SpectralDecomposition) -> TransferSpectrum:
    """Energies and weights psi_1 psi_N of a complete decomposition."""
    return TransferSpectrum(dec.energies, dec.vectors[:, 0] * dec.vectors[:, -1], dec.residual_bound)
