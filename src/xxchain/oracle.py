"""Brute-force full-Hilbert-space reference simulator for small chains.

Everything here works on the full 2^N space (2^(N+1) with the ancilla) and is
written to be obviously correct rather than fast.  Each chain's Hamiltonian is
assembled once, with numpy, into a dense 2^N x 2^N matrix: each Pauli term is
added into the elements its Kronecker product with identities touches.  Every
nonzero element is then checked to join two basis states with the same number
of excitations; an element between different excitation numbers raises
ExcitationLeak, so conservation is checked rather than assumed.  The matrix is
split into excitation-number blocks and states are evolved block by block.  A
block is diagonalized the first time a state has amplitude in it and kept
with the cached blocks; a block without amplitude stays zero, so the 0- and
1-excitation states of oracle_check diagonalize only the 1-wide and N-wide
blocks.  It exists to validate the one-excitation-sector machinery end to
end, so nothing in this module reuses the sector code paths.  oracle_check
runs on the given chains, any layout, J and h; the CLI passes single-impurity
chains.

Basis conventions (fixed so dumps are comparable):
  * qubit 1 is the most significant bit of the basis index; the ancilla,
    when present, sits above site 1 (qubit 1 = ancilla, qubit k+1 = site k);
  * bit value 1 marks a down (excited) spin, so the all-up state is index 0
    and the one-excitation state |n> is index 2^(N-n).

The bond term is (J_b/2)(sx sx + sy sy): the half compensates the factor 2
the raw Pauli flip-flop carries, so the one-excitation block of the full
matrix reproduces the sector matrix (off-diagonals J_b) and the group
velocity stays at 2|J| sites per unit time (arrival near t ~ N/2).  The
field enters as -h sum(sz) plus the constant h (N-1) that recenters the
one-excitation block's diagonal at exactly h.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .chain import ChainSpec, bond_couplings, validate_spec
from .errors import ExcitationLeak, NotNormalized, TooLarge
from .measures import wootters_concurrence

MAX_SITES = 12
MAX_QUBITS = 13  # chain plus ancilla

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
# sx x sx + sy x sy is real: it is twice the flip-flop operator on a bond.
_FLIP_FLOP = (np.kron(_SX, _SX) + np.kron(_SY, _SY)).real


@dataclass(frozen=True)
class FullState:
    """Normalized amplitudes over the computational basis of all qubits."""

    amps: np.ndarray
    n_qubits: int

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)
        if amps.shape != (2 ** self.n_qubits,):
            raise ValueError(
                f"expected {2 ** self.n_qubits} amplitudes for {self.n_qubits} qubits, "
                f"got shape {amps.shape}"
            )
        if not np.isfinite(amps).all():
            raise NotNormalized("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > 1e-9:
            raise NotNormalized(f"|psi|^2 = {norm_sq!r}, expected 1 within 1e-9")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)


def _add_term(matrix: np.ndarray, scale: float, op: np.ndarray, qubit: int, n_qubits: int) -> None:
    """matrix += scale * (1 x op x 1) for a one- or two-qubit op whose first qubit is qubit (0-based)."""
    left, k = 2 ** qubit, op.shape[0]
    right = 2 ** n_qubits // (left * k)
    # the Kronecker product touches the elements whose left and right digits agree
    np.einsum("lirljr->lijr", matrix.reshape(left, k, right, left, k, right))[...] += scale * op[:, :, None]


def full_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense 2^N x 2^N Hamiltonian assembled from Pauli two-site terms."""
    validate_spec(spec)
    n = spec.n_sites
    if n > MAX_SITES:
        raise TooLarge(f"full Hamiltonian limited to {MAX_SITES} sites, got {n}")
    matrix = np.zeros((2 ** n, 2 ** n))
    for bond, coupling in enumerate(bond_couplings(spec)):
        _add_term(matrix, 0.5 * coupling, _FLIP_FLOP, bond, n)
    if spec.field_h != 0.0:
        for qubit in range(n):
            _add_term(matrix, -spec.field_h, _SZ, qubit, n)
        np.einsum("ii->i", matrix)[...] += spec.field_h * (n - 1)
    return matrix


def one_excitation_indices(n_sites: int) -> np.ndarray:
    """Basis indices of |1>, ..., |N>: site s maps to index 2^(N-s)."""
    return np.array([2 ** (n_sites - s) for s in range(1, n_sites + 1)])


def sector_block(matrix: np.ndarray, n_sites: int) -> np.ndarray:
    """One-excitation block of a full-space operator, ordered by site."""
    indices = one_excitation_indices(n_sites)
    return matrix[np.ix_(indices, indices)]


def _excitation_numbers(n_qubits: int) -> np.ndarray:
    """Number of down spins (set bits) of every basis index."""
    indices = np.arange(2 ** n_qubits)
    counts = np.zeros(2 ** n_qubits, dtype=int)
    for bit in range(n_qubits):
        counts += (indices >> bit) & 1
    return counts


class _BlockSpectrum(NamedTuple):
    """A full-space Hamiltonian split into excitation-number blocks, each diagonalized on first use."""

    sector: np.ndarray  # the one-excitation block, ordered by site
    blocks: tuple  # (basis indices, block matrix) for 0..N excitations
    eigen: dict  # excitation number -> (energies, vectors), filled by block_eigh

    def block_eigh(self, number: int) -> tuple:
        """Energies and real eigenvectors of one block, computed once."""
        if number not in self.eigen:
            energies, vectors = np.linalg.eigh(self.blocks[number][1])
            energies.setflags(write=False)
            vectors.setflags(write=False)
            self.eigen[number] = (energies, vectors)
        return self.eigen[number]


@lru_cache(maxsize=1)
def _full_eigh(spec: ChainSpec) -> _BlockSpectrum:
    """Check that full_hamiltonian(spec) conserves excitations, then split it into blocks.

    Every nonzero element lies in a block exactly when the nonzero counts of
    the matrix and of its blocks agree, so counting checks every element;
    only a leak pays for locating the elements.  One chain is cached:
    oracle_check finishes each chain before the next, and a further entry
    would only hold its blocks (C(24, 12) doubles, 21 MB, at N = 12).
    """
    matrix = full_hamiltonian(spec)
    counts = _excitation_numbers(spec.n_sites)
    blocks = []
    for number in range(spec.n_sites + 1):
        indices = np.flatnonzero(counts == number)
        block = matrix[np.ix_(indices, indices)]
        indices.setflags(write=False)
        block.setflags(write=False)
        blocks.append((indices, block))
    if np.count_nonzero(matrix) != sum(np.count_nonzero(block) for _, block in blocks):
        rows, cols = np.nonzero(matrix)
        leaks = np.flatnonzero(counts[rows] != counts[cols])
        row, col = rows[leaks[0]], cols[leaks[0]]
        raise ExcitationLeak(
            f"H[{row}, {col}] = {matrix[row, col]!r} joins {counts[row]} and "
            f"{counts[col]} excitations ({leaks.size} such elements)"
        )
    sector = sector_block(matrix, spec.n_sites)
    sector.setflags(write=False)
    return _BlockSpectrum(sector=sector, blocks=tuple(blocks), eigen={})


def _evolve_columns(spec: ChainSpec, columns: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) on each column of a complex (2^N, k) array, block by block.

    A block whose amplitudes are all zero stays zero and is not diagonalized.
    The eigenvectors are real, so each product runs as one real GEMM on the
    interleaved real and imaginary parts (the complex array viewed as float).
    """
    spectrum = _full_eigh(spec)
    out = np.zeros_like(columns)
    for number, (indices, _) in enumerate(spectrum.blocks):
        amps = columns[indices]
        if not amps.any():
            continue
        energies, vectors = spectrum.block_eigh(number)
        coefficients = (vectors.T @ amps.view(float)).view(complex)
        coefficients *= np.exp(-1j * energies * float(t))[:, None]
        out[indices] = (vectors @ coefficients.view(float)).view(complex)
    return out


def full_evolve(spec: ChainSpec, initial: FullState, t: float) -> FullState:
    """Evolve a full-space state by exp(-i H t), one excitation-number block at a time."""
    if spec.n_sites > MAX_SITES:
        raise TooLarge(f"full evolution limited to {MAX_SITES} sites, got {spec.n_sites}")
    if initial.n_qubits != spec.n_sites:
        raise ValueError(
            f"state has {initial.n_qubits} qubits but the chain has {spec.n_sites} sites"
        )
    amps = _evolve_columns(spec, initial.amps.reshape(-1, 1), t)
    return FullState(amps=amps.reshape(-1), n_qubits=spec.n_sites)


def site_state(spec: ChainSpec, site: int) -> FullState:
    """Full-space delta state |site> with every other spin up."""
    if not 1 <= site <= spec.n_sites:
        raise ValueError(f"site must be in 1..{spec.n_sites}, got {site}")
    amps = np.zeros(2 ** spec.n_sites, dtype=complex)
    amps[2 ** (spec.n_sites - site)] = 1.0
    return FullState(amps=amps, n_qubits=spec.n_sites)


def bell_pair_state(n_sites: int) -> FullState:
    """(|up_A down_1> + |down_A up_1>)/sqrt(2) with the rest of the chain up."""
    amps = np.zeros(2 ** (n_sites + 1), dtype=complex)
    amps[2 ** (n_sites - 1)] = 1.0 / np.sqrt(2.0)  # ancilla up, excitation on site 1
    amps[2 ** n_sites] = 1.0 / np.sqrt(2.0)  # ancilla down, chain all up
    return FullState(amps=amps, n_qubits=n_sites + 1)


def ancilla_evolve(spec: ChainSpec, t: float) -> FullState:
    """Evolve the Bell-pair state; the ancilla is uncoupled.

    The ancilla Hamiltonian is I_2 x H_chain, so evolution acts blockwise on
    the chain register of each ancilla branch (an exact operator identity,
    not an approximation).
    """
    n = spec.n_sites
    if n + 1 > MAX_QUBITS:
        raise TooLarge(f"ancilla evolution limited to {MAX_QUBITS} qubits, got {n + 1}")
    amps = bell_pair_state(n).amps.reshape(2, 2 ** n)
    evolved = _evolve_columns(spec, np.ascontiguousarray(amps.T), t)
    return FullState(amps=evolved.T.reshape(-1), n_qubits=n + 1)


def partial_trace_pair(state: FullState, qubit_a: int, qubit_b: int) -> np.ndarray:
    """4x4 reduced density matrix of two qubits (1-based, most significant first)."""
    n = state.n_qubits
    if qubit_a == qubit_b or not (1 <= qubit_a <= n and 1 <= qubit_b <= n):
        raise ValueError(f"need two distinct qubits in 1..{n}, got ({qubit_a}, {qubit_b})")
    tensor = state.amps.reshape((2,) * n)
    tensor = np.moveaxis(tensor, (qubit_a - 1, qubit_b - 1), (0, 1))
    flat = tensor.reshape(4, -1)
    return flat @ flat.conj().T


def oracle_concurrence(state: FullState, qubit_a: int, qubit_b: int) -> float:
    """Wootters concurrence of two named qubits of a full-space pure state."""
    if state.n_qubits > MAX_QUBITS:
        raise TooLarge(f"oracle concurrence limited to {MAX_QUBITS} qubits, got {state.n_qubits}")
    return wootters_concurrence(partial_trace_pair(state, qubit_a, qubit_b))


def sz_sector_probabilities(state: FullState) -> np.ndarray:
    """Total probability in each excitation-number sector (0..n_qubits)."""
    counts = _excitation_numbers(state.n_qubits)
    return np.bincount(counts, weights=np.abs(state.amps) ** 2, minlength=state.n_qubits + 1)


@dataclass(frozen=True)
class OracleCheckResult:
    """Sector-versus-full-space deviations for one chain template."""

    n_sites: int
    block_dev: float
    amplitude_dev: float
    concurrence_dev: float
    passed: bool


BLOCK_TOL = 1e-12
AMPLITUDE_TOL = 1e-8
CONCURRENCE_TOL = 1e-8


def oracle_check(
    templates,
    alphas=(0.4, 1.0, 3.0),
    times=(1.0, 5.0, 20.0),
) -> list[OracleCheckResult]:
    """Cross-validate the sector machinery against the full space on the given chains.

    For every template and alpha, with every impurity bond of the template at
    alpha: the one-excitation block of the full Hamiltonian is compared with
    the sector matrix, sector propagation from |1> is compared per amplitude
    with full-space evolution, and the traced (ancilla, N) concurrence is
    compared with concurrence_AN of transfer_spectrum, whose mirror route the
    uniform and mirror chains exercise.  One result per template.
    """
    from .chain import build_hamiltonian, with_alpha
    from .dynamics import amplitude_matrix, concurrence_AN
    from .spectral import eigendecompose, transfer_spectrum

    alphas, times = tuple(alphas), tuple(times)
    if not alphas or not times:
        raise ValueError("alpha and time grids must be nonempty")
    results = []
    for template in templates:
        block_dev = 0.0
        amplitude_dev = 0.0
        concurrence_dev = 0.0
        for alpha in alphas:
            spec = with_alpha(template, float(alpha))
            sector = build_hamiltonian(spec)
            block = _full_eigh(spec).sector
            block_dev = max(block_dev, float(np.max(np.abs(block - sector.to_dense()))))

            dec = eigendecompose(sector)
            spectrum = transfer_spectrum(sector)
            indices = one_excitation_indices(spec.n_sites)
            start = site_state(spec, 1)
            for t in times:
                full = full_evolve(spec, start, float(t))
                sector_amps = amplitude_matrix(dec, [float(t)])[0]
                amplitude_dev = max(
                    amplitude_dev, float(np.max(np.abs(full.amps[indices] - sector_amps)))
                )
                traced = oracle_concurrence(ancilla_evolve(spec, float(t)), 1, spec.n_sites + 1)
                concurrence_dev = max(concurrence_dev, abs(traced - concurrence_AN(spectrum, float(t))))
        passed = (
            block_dev <= BLOCK_TOL
            and amplitude_dev <= AMPLITUDE_TOL
            and concurrence_dev <= CONCURRENCE_TOL
        )
        results.append(
            OracleCheckResult(
                n_sites=template.n_sites,
                block_dev=block_dev,
                amplitude_dev=amplitude_dev,
                concurrence_dev=concurrence_dev,
                passed=passed,
            )
        )
    return results
