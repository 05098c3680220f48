"""Chain specification and the one-excitation Hamiltonian.

An open chain of N spin-1/2 sites with isotropic in-plane (XX) exchange sits
in a uniform field h.  Every bond carries the exchange J except a small set of
impurity bonds, where the coupling is rescaled to alpha*J.  Total Sz is
conserved, so the sector with a single flipped spin, spanned by the states
|n> (site n down, every other spin up), is invariant.  In that sector the
Hamiltonian is the real symmetric tridiagonal N x N matrix

    H[n, n]   = h
    H[b, b+1] = alpha_b * J   on an impurity bond b, J elsewhere.

Units: |J| = 1 and hbar = 1, so time is measured in 1/|J|.  Defaults are
J = -1 and h = 0; a uniform h shifts every sector eigenvalue by the same
amount and leaves the eigenvectors untouched.

Sites and bonds are labelled 1-based: bond b couples sites b and b+1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BadBond,
    CouplingSignWarning,
    InvalidN,
    NegativeAlpha,
    NonFiniteParameter,
    ZeroCoupling,
)


@dataclass(frozen=True)
class ChainSpec:
    """Physical parameters of the chain.

    impurities holds (bond_index, strength) pairs with 1-based bond indices;
    entries are kept sorted by bond so equal specs compare and hash equal.
    """

    n_sites: int
    exchange_j: float = -1.0
    field_h: float = 0.0
    impurities: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n_sites", int(self.n_sites))
        object.__setattr__(self, "exchange_j", float(self.exchange_j))
        object.__setattr__(self, "field_h", float(self.field_h))
        pairs = tuple(sorted((int(b), float(a)) for b, a in self.impurities))
        object.__setattr__(self, "impurities", pairs)


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """One-excitation Hamiltonian in compact diagonal/off-diagonal form."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag = np.array(self.diag, dtype=float)
        offdiag = np.array(self.offdiag, dtype=float)
        if diag.ndim != 1 or offdiag.ndim != 1 or offdiag.size != diag.size - 1:
            raise ValueError("need diag of length N and offdiag of length N-1")
        if diag.size < 2:
            raise ValueError("need at least two sites")
        diag.setflags(write=False)
        offdiag.setflags(write=False)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)

    @property
    def n_sites(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        return (
            np.diag(self.diag)
            + np.diag(self.offdiag, 1)
            + np.diag(self.offdiag, -1)
        )

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Apply the tridiagonal matrix to a (possibly complex) vector."""
        return _tridiagonal_matvec(self.diag, self.offdiag, np.asarray(v))


def _tridiagonal_matvec(diag: np.ndarray, offdiag: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the tridiagonal matrix along the last axis of v (one vector or rows)."""
    out = v * diag
    out[..., :-1] += v[..., 1:] * offdiag
    out[..., 1:] += v[..., :-1] * offdiag
    return out


def validate_spec(spec: ChainSpec) -> ChainSpec:
    """Check all ChainSpec invariants and return the spec unchanged.

    Raises InvalidN, NonFiniteParameter (also where |h| + 2 max|coupling|,
    the bound on every |E|, overflows), BadBond, NegativeAlpha or
    ZeroCoupling.  J > 0 is accepted but flagged with a CouplingSignWarning.
    """
    if spec.n_sites < 2:
        raise InvalidN(f"n_sites must be >= 2, got {spec.n_sites}")
    for name, value in (("exchange_j", spec.exchange_j), ("field_h", spec.field_h)):
        if not math.isfinite(value):
            raise NonFiniteParameter(f"{name} must be finite, got {value}")
    if spec.exchange_j == 0.0:
        raise ZeroCoupling("exchange_j must be nonzero")
    seen: set[int] = set()
    for bond, alpha in spec.impurities:
        if bond < 1 or bond > spec.n_sites - 1:
            raise BadBond(
                f"bond {bond} out of range 1..{spec.n_sites - 1} for n_sites={spec.n_sites}"
            )
        if bond in seen:
            raise BadBond(f"duplicate impurity bond {bond}")
        seen.add(bond)
        if not math.isfinite(alpha):
            raise NonFiniteParameter(f"impurity strength must be finite, got {alpha} on bond {bond}")
        if alpha < 0.0:
            raise NegativeAlpha(f"impurity strength must be >= 0, got {alpha} on bond {bond}")
    # |h| + 2 max|coupling| bounds every |E|; bonds without an impurity couple 1.0 * J
    strengths = [alpha for _, alpha in spec.impurities] + [1.0] * (len(seen) < spec.n_sites - 1)
    top = max(abs(alpha * spec.exchange_j) for alpha in strengths)
    if not math.isfinite(abs(spec.field_h) + 2.0 * top):
        raise NonFiniteParameter(f"|h| + 2 max|coupling| = |{spec.field_h}| + 2 * {top} overflows")
    if spec.exchange_j > 0.0:
        warnings.warn(
            "exchange_j > 0: spectrum maps onto the J < 0 convention under "
            "the alternating-sign parity transform",
            CouplingSignWarning,
            stacklevel=2,
        )
    return spec


def bond_couplings(spec: ChainSpec) -> np.ndarray:
    """Per-bond couplings: alpha_b * J on impurity bonds, J elsewhere."""
    couplings = np.full(spec.n_sites - 1, spec.exchange_j)
    for bond, alpha in spec.impurities:
        couplings[bond - 1] = alpha * spec.exchange_j
    return couplings


def build_hamiltonian(spec: ChainSpec) -> TridiagonalHamiltonian:
    """Assemble the one-excitation sector matrix for a validated spec."""
    validate_spec(spec)
    diag = np.full(spec.n_sites, spec.field_h)
    return TridiagonalHamiltonian(diag=diag, offdiag=bond_couplings(spec))


def single_impurity(
    n_sites: int, alpha: float, *, exchange_j: float = -1.0, field_h: float = 0.0
) -> ChainSpec:
    """Chain with one modified bond at the left end (bond 1)."""
    return ChainSpec(n_sites, exchange_j, field_h, ((1, alpha),))


def mirror_impurities(
    n_sites: int, alpha: float, *, exchange_j: float = -1.0, field_h: float = 0.0
) -> ChainSpec:
    """Chain with the same modified bond strength at both ends (bonds 1 and N-1)."""
    if n_sites < 3:
        raise BadBond("mirror impurities need n_sites >= 3 so bonds 1 and N-1 are distinct")
    return ChainSpec(n_sites, exchange_j, field_h, ((1, alpha), (n_sites - 1, alpha)))


def with_alpha(spec: ChainSpec, alpha: float) -> ChainSpec:
    """Same impurity layout with every impurity strength replaced by alpha."""
    bonds = tuple((b, float(alpha)) for b, _ in spec.impurities)
    return replace(spec, impurities=bonds)


_CONFIG_KEYS = ("n_sites", "exchange_j", "field_h", "impurities")


def parse_chain_config(text: str) -> ChainSpec:
    """Parse the plain-text key=value chain config format.

    Recognized keys: n_sites, exchange_j, field_h and impurities (comma
    separated bond:alpha pairs).  Blank lines and '#' comments are ignored.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    if "n_sites" not in values:
        raise ValueError("config is missing required key 'n_sites'")
    impurities: tuple[tuple[int, float], ...] = ()
    if values.get("impurities"):
        pairs = []
        for item in values["impurities"].split(","):
            item = item.strip()
            if not item:
                continue
            bond_str, sep, alpha_str = item.partition(":")
            if not sep:
                raise ValueError(f"impurity entry {item!r} must look like 'bond:alpha'")
            pairs.append((int(bond_str), float(alpha_str)))
        impurities = tuple(pairs)
    return ChainSpec(
        n_sites=int(values["n_sites"]),
        exchange_j=float(values.get("exchange_j", -1.0)),
        field_h=float(values.get("field_h", 0.0)),
        impurities=impurities,
    )


def load_chain_config(path) -> ChainSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_chain_config(handle.read())
