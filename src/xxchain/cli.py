"""Command-line front end: deterministic CSV/JSON emission for every study.

Each subcommand handler validates its own flags (plus an optional key=value
config file) before any solve, then makes one library call and writes either
CSV rows or a JSON report.  The alpha-grid commands write a grid: an outer
axis (alpha), an inner axis (the state j or the time t) and one table per
cell column, whose CSV formats each outer and inner value once and only the
cells per row (_Grid).  All numeric output uses 12 significant digits and
runs are byte-identical on rerun (there is no randomness anywhere in the
package).  A J > 0 chain warns once per command (CouplingSignWarning).

Exit codes: 0 success, 2 usage or chain-parameter error, 1 computation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
import warnings

import numpy as np

from .chain import (
    ChainSpec,
    build_hamiltonian,
    load_chain_config,
    mirror_impurities,
    single_impurity,
    validate_spec,
)
from .dynamics import SeriesKind, time_series
from .errors import (
    BadBond,
    CouplingSignWarning,
    InvalidN,
    NegativeAlpha,
    NonFiniteParameter,
    XXChainError,
    ZeroCoupling,
)
from .measures import c12_sweep, ipr_sweep
from .oracle import MAX_SITES, oracle_check
from .protocols import (
    default_alpha_grid,
    fidelity_landscape,
    inclusive_grid,
    optimize_alpha,
    scaling_sweep,
)
from .spectral import BandLabel, _band_codes, eigendecompose, energies_batch

# the label column of spectrum: the three label strings, shared by every row
_LABELS = np.array([label.value for label in BandLabel], dtype=object)


class UsageError(Exception):
    """Bad flag combination or malformed flag value."""


@dataclasses.dataclass(frozen=True)
class _Grid:
    """Rows (outer[i], inner[k], *cells) with cell c of the row tables[c][i, k], outer-major."""

    outer: np.ndarray
    inner: np.ndarray
    tables: tuple

    def text(self) -> str:
        """The CSV rows, newline-terminated: each outer and inner value formatted once, the cells per row.

        One line template per inner value holds its text and the cell
        conversions, with \0 where the outer text goes; each outer value
        fills the block of its rows with one str.replace and one % of its
        cells.  Number texts hold neither \0 nor %.
        """
        if not self.outer.size or not self.inner.size:
            return ""
        cells = ",".join(_conversion(table.flat[0]) for table in self.tables)
        inner = _conversion(self.inner.flat[0])
        block = "".join(f"\0,{inner % value},{cells}\n" for value in self.inner.tolist())
        # the cells of each outer value, row after row (an object array where the tables mix types)
        rows = np.stack(self.tables, axis=-1).reshape(self.outer.size, -1).tolist()
        outer = _conversion(self.outer.flat[0])
        return "".join(block.replace("\0", outer % value) % tuple(row)
                       for value, row in zip(self.outer.tolist(), rows))

    def rows(self) -> list:
        """The row tuples (outer, inner, *cells) in CSV order."""
        cells = zip(*(table.ravel().tolist() for table in self.tables))
        pairs = itertools.product(self.outer.tolist(), self.inner.tolist())
        return [(*pair, *cell) for pair, cell in zip(pairs, cells)]


def _conversion(value) -> str:
    """printf conversion of a value: %d for ints, %.12g for floats, %s else."""
    if isinstance(value, (int, np.integer)):
        return "%d"
    if isinstance(value, (float, np.floating)):
        return "%.12g"
    return "%s"


def _round12(value: float) -> float:
    return float(format(float(value), ".12g"))


def _json_ready(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {field.name: _json_ready(getattr(obj, field.name)) for field in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: _json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(item) for item in obj]
    if isinstance(obj, (float, np.floating)):
        return _round12(obj)
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def emit_csv(rows, schema, out_path=None) -> None:
    """Write header + rows, newline-terminated, locale-independent.

    rows are a _Grid or a list of tuples whose column types are those of
    the first row: one row format is built from them (_conversion).
    """
    if isinstance(rows, _Grid):
        _write_text(",".join(schema) + "\n" + rows.text(), out_path)
        return
    lines = [",".join(schema)]
    if rows:
        row_format = ",".join(_conversion(value) for value in rows[0])
        lines.extend(row_format % row for row in rows)
    _write_text("\n".join(lines) + "\n", out_path)


def emit_json(payload, out_path=None) -> None:
    _write_text(json.dumps(_json_ready(payload), indent=2) + "\n", out_path)


def _write_text(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _parse_range(text: str, flag: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{flag} expects lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(part) for part in parts)
    except ValueError:
        raise UsageError(f"{flag} expects numeric lo:hi:step, got {text!r}") from None
    if not np.all(np.isfinite([lo, hi, step])):
        raise UsageError(f"{flag} expects finite lo:hi:step, got {text!r}")
    if step <= 0.0:
        raise UsageError(f"{flag} step must be positive, got {step}")
    if hi < lo:
        raise UsageError(f"{flag} needs hi >= lo, got {text!r}")
    if not (hi - lo) / step < np.iinfo(np.intp).max:  # an infinite or uncountable point count
        raise UsageError(f"{flag} has more points than an array can index, got {text!r}")
    grid = inclusive_grid(lo, hi, step)
    if np.any(np.diff(grid) <= 0.0):
        raise UsageError(f"{flag} points are not strictly ascending after rounding, got {text!r}")
    return grid


def _parse_states(text: str, n_sites: int) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"--states expects lo:hi, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--states expects integer lo:hi, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise UsageError(f"--states needs 1 <= lo <= hi, got {text!r}")
    if hi > n_sites:
        raise UsageError(f"--states upper bound {hi} exceeds n={n_sites}")
    return lo, hi


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"--n-list expects comma-separated integers, got {text!r}") from None
    if not values:
        raise UsageError("--n-list must name at least one chain length")
    return values


def _chain_template(args, layout, n_sites=None) -> ChainSpec:
    """Assemble and validate the chain from flags and config file; flags win.

    layout is the command's default impurity maker (None: uniform chain).
    --alpha and --mirror replace it; a command without them refuses a config
    impurity list.  n_sites overrides --n.  Parameter errors become
    UsageError (exit 2) naming the underlying error class.
    """
    try:
        base = load_chain_config(args.config) if getattr(args, "config", None) else None
    except (OSError, ValueError) as error:
        raise UsageError(f"--config: {error}") from error
    if n_sites is None:
        n_sites = args.n if args.n is not None else (base.n_sites if base else None)
    if n_sites is None:
        raise UsageError("--n is required (or a --config file providing n_sites)")
    exchange_j = args.j if args.j is not None else (base.exchange_j if base else -1.0)
    field_h = args.h if args.h is not None else (base.field_h if base else 0.0)

    alpha = getattr(args, "alpha", None)
    if getattr(args, "mirror", False) or alpha is not None:
        layout = mirror_impurities if args.mirror else single_impurity
    elif base is not None and base.impurities:
        if not hasattr(args, "alpha"):
            raise UsageError(f"--config: {args.command} fixes the impurity layout; drop 'impurities'")
        layout = None
    try:
        if layout is not None:
            strength = 1.0 if alpha is None else alpha
            spec = layout(n_sites, strength, exchange_j=exchange_j, field_h=field_h)
        else:
            spec = ChainSpec(n_sites, exchange_j, field_h, base.impurities if base else ())
        validate_spec(spec)
    except XXChainError as error:
        raise UsageError(f"{type(error).__name__}: {error}") from error
    # the template has warned; main restores the filters after the command
    warnings.simplefilter("ignore", CouplingSignWarning)
    return spec


def _sweep_alphas(args) -> np.ndarray:
    if args.alpha_range is not None and args.alpha is not None:
        raise UsageError("use either --alpha or --alpha-range, not both")
    if args.alpha_range is not None:
        return _nonnegative(_parse_range(args.alpha_range, "--alpha-range"))
    if args.alpha is not None:
        return np.array([float(args.alpha)])
    raise UsageError("--alpha or --alpha-range is required")


def _nonnegative(alphas: np.ndarray) -> np.ndarray:
    if alphas[0] < 0.0:
        raise UsageError(f"NegativeAlpha: --alpha-range entries must be >= 0, got {alphas[0]}")
    return alphas


def _optimize_alphas(args) -> np.ndarray:
    if args.alpha_range is None:
        return default_alpha_grid()
    alphas = _parse_range(args.alpha_range, "--alpha-range")
    if alphas[0] <= 0.0:
        raise UsageError(f"ValueError: --alpha-range entries must be positive, got {alphas[0]}")
    return alphas


def _require_json(args) -> None:
    if args.format == "csv":
        raise UsageError("reports are emitted as JSON; drop --format csv")


def _cmd_spectrum(args) -> int:
    template = _chain_template(args, single_impurity)
    alphas = _sweep_alphas(args)
    energies = energies_batch(template, alphas)  # every alpha checked first
    labels = _LABELS[_band_codes(energies, template)]
    grid = _Grid(alphas, np.arange(1, template.n_sites + 1), (energies, labels))
    _emit_rows(grid, ["alpha", "j", "energy", "label"], args)
    return 0


def _per_state_sweep(args, observable, default_states) -> int:
    template = _chain_template(args, single_impurity)
    n = template.n_sites
    lo, hi = _parse_states(args.states, n) if args.states else default_states(n)
    sweep = observable(template, _sweep_alphas(args), range(lo, hi + 1))
    _emit_rows(_Grid(sweep.alphas, sweep.states, (sweep.values,)), ["alpha", "j", "value"], args)
    return 0


def _cmd_ipr_sweep(args) -> int:
    return _per_state_sweep(args, ipr_sweep, lambda n: (1, n))


def _cmd_concurrence_sweep(args) -> int:
    return _per_state_sweep(args, c12_sweep, lambda n: (2, max(n // 2, 2)))


def _cmd_eigenvector(args) -> int:
    template = _chain_template(args, None)
    if not 1 <= args.state <= template.n_sites:
        raise UsageError(f"--state must be in 1..{template.n_sites}, got {args.state}")
    dec = eigendecompose(build_hamiltonian(template))
    vector = dec.vectors[args.state - 1]
    rows = [(site + 1, float(vector[site])) for site in range(dec.n_sites)]
    _emit_rows(rows, ["site", "amplitude"], args)
    return 0


def _cmd_evolve(args) -> int:
    template = _chain_template(args, None)
    if args.t_range is not None and args.t_max is not None:
        raise UsageError("use either --t-range or --t-max, not both")
    if args.t_range is not None:
        times = _parse_range(args.t_range, "--t-range")
    elif args.t_max is not None:
        if args.t_max < 0:
            raise UsageError("--t-max must be non-negative")
        times = _parse_range(f"0:{args.t_max}:{args.dt}", "--t-max/--dt")
    else:
        raise UsageError("--t-range or --t-max is required")
    kind = SeriesKind(args.kind)
    series = time_series(build_hamiltonian(template), kind, times)
    times, values = series.times.tolist(), series.values
    if kind is SeriesKind.TRANSFER_AMPLITUDE:
        rows = list(zip(times, values.real.tolist(), values.imag.tolist()))
        _emit_rows(rows, ["t", "re", "im"], args)
    else:
        rows = list(zip(times, values.tolist()))
        _emit_rows(rows, ["t", "value"], args)
    return 0


def _cmd_landscape(args) -> int:
    template = _chain_template(args, mirror_impurities)
    if args.alpha_range is None or args.t_range is None:
        raise UsageError("landscape requires --alpha-range and --t-range")
    alphas = _parse_range(args.alpha_range, "--alpha-range")
    times = _parse_range(args.t_range, "--t-range")
    landscape = fidelity_landscape(template, _nonnegative(alphas), times)
    grid = _Grid(landscape.alphas, landscape.times, (landscape.fidelities,))
    _emit_rows(grid, ["alpha", "t", "fidelity"], args)
    return 0


def _cmd_optimize(args) -> int:
    template = _chain_template(args, mirror_impurities)
    alphas = _optimize_alphas(args)
    _require_json(args)
    emit_json(optimize_alpha(template, alphas), args.out)
    return 0


def _cmd_scaling(args) -> int:
    templates = [_chain_template(args, mirror_impurities, n) for n in _parse_n_list(args.n_list)]
    alphas = _optimize_alphas(args)
    _require_json(args)
    emit_json(scaling_sweep(templates, alphas), args.out)
    return 0


def _cmd_oracle_check(args) -> int:
    if not 2 <= args.n_max <= MAX_SITES:
        raise UsageError(f"--n-max must be in 2..{MAX_SITES}, got {args.n_max}")
    results = oracle_check([single_impurity(n, 1.0) for n in range(2, args.n_max + 1)])
    lines = ["  n  block_dev       amplitude_dev   concurrence_dev  status"]
    for item in results:
        lines.append(
            "%3d  %-15.12g %-15.12g %-16.12g %s"
            % (item.n_sites, item.block_dev, item.amplitude_dev, item.concurrence_dev,
               "pass" if item.passed else "FAIL")
        )
    _write_text("\n".join(lines) + "\n", args.out)
    return 0 if all(item.passed for item in results) else 1


def _emit_rows(rows, schema, args) -> None:
    """rows (a _Grid or a list of tuples) as CSV, or as JSON: one object per row."""
    if args.format == "json":
        payload = [dict(zip(schema, row)) for row in (rows.rows() if isinstance(rows, _Grid) else rows)]
        emit_json(payload, args.out)
    else:
        emit_csv(rows, schema, args.out)


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "ipr-sweep": _cmd_ipr_sweep,
    "concurrence-sweep": _cmd_concurrence_sweep,
    "eigenvector": _cmd_eigenvector,
    "evolve": _cmd_evolve,
    "landscape": _cmd_landscape,
    "optimize": _cmd_optimize,
    "scaling": _cmd_scaling,
    "oracle-check": _cmd_oracle_check,
}


def _add_chain_flags(parser: argparse.ArgumentParser, *, alpha: bool = True) -> None:
    parser.add_argument("--n", type=int, default=None, help="number of chain sites")
    parser.add_argument("--j", type=float, default=None, help="exchange coupling J (default -1)")
    parser.add_argument("--h", type=float, default=None, help="uniform field h (default 0)")
    parser.add_argument("--config", default=None, help="key=value chain config file; flags override")
    if alpha:
        parser.add_argument("--alpha", type=float, default=None, help="impurity strength")
        parser.add_argument("--mirror", action="store_true", help="impurities on both edge bonds")


def _add_output_flags(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument(
        "--format", choices=("csv", "json"), default=default_format, help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xxchain",
        description="One-excitation studies of an XX chain with edge-bond impurities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues and band labels over an alpha grid")
    _add_chain_flags(p)
    p.add_argument("--alpha-range", default=None, help="alpha grid lo:hi:step")
    _add_output_flags(p, "csv")

    p = sub.add_parser("ipr-sweep", help="eigenstate IPR over an alpha grid")
    _add_chain_flags(p)
    p.add_argument("--alpha-range", default=None, help="alpha grid lo:hi:step")
    p.add_argument("--states", default=None, help="1-based eigenstate range lo:hi (default 1:N)")
    _add_output_flags(p, "csv")

    p = sub.add_parser("concurrence-sweep", help="first-bond concurrence over an alpha grid")
    _add_chain_flags(p)
    p.add_argument("--alpha-range", default=None, help="alpha grid lo:hi:step")
    p.add_argument("--states", default=None, help="1-based eigenstate range lo:hi (default 2:N/2)")
    _add_output_flags(p, "csv")

    p = sub.add_parser("eigenvector", help="site amplitudes of one eigenstate")
    _add_chain_flags(p)
    p.add_argument("--state", type=int, required=True, help="1-based eigenstate index")
    _add_output_flags(p, "csv")

    p = sub.add_parser("evolve", help="time series of IPR, fidelity, amplitude or concurrence")
    _add_chain_flags(p)
    p.add_argument("--kind", choices=sorted(k.value for k in SeriesKind), default="fidelity")
    p.add_argument("--t-range", default=None, help="time grid lo:hi:step")
    p.add_argument("--t-max", type=float, default=None, help="evolve over [0, t-max]")
    p.add_argument("--dt", type=float, default=0.05, help="time step for --t-max (default 0.05)")
    _add_output_flags(p, "csv")

    p = sub.add_parser("landscape", help="fidelity F(alpha, t) for the mirror chain")
    _add_chain_flags(p, alpha=False)
    p.add_argument("--alpha-range", default=None, help="alpha grid lo:hi:step")
    p.add_argument("--t-range", default=None, help="time grid lo:hi:step")
    p.add_argument("--seedless", action="store_true", help="no-op; runs are deterministic")
    _add_output_flags(p, "csv")

    p = sub.add_parser("optimize", help="best mirror-impurity strength for one chain length")
    _add_chain_flags(p, alpha=False)
    p.add_argument("--alpha-range", default=None, help="alpha grid lo:hi:step (default 0.3:1.0:0.01)")
    p.add_argument("--seedless", action="store_true", help="no-op; runs are deterministic")
    _add_output_flags(p, "json")

    p = sub.add_parser("scaling", help="optimize several chain lengths and fit t_tr vs N")
    p.add_argument("--n-list", required=True, help="comma-separated chain lengths")
    p.add_argument("--j", type=float, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--alpha-range", default=None, help="alpha grid lo:hi:step (default 0.3:1.0:0.01)")
    p.add_argument("--seedless", action="store_true", help="no-op; runs are deterministic")
    _add_output_flags(p, "json")

    p = sub.add_parser("oracle-check", help="sector vs full-Hilbert-space equivalence table")
    p.add_argument(
        "--n-max", type=int, default=8, help=f"largest chain length to check, 2..{MAX_SITES} (default 8)"
    )
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_info:
        return int(exit_info.code or 0)
    try:
        with warnings.catch_warnings():
            return _HANDLERS[args.command](args)
    except (UsageError, BadBond, InvalidN, NegativeAlpha, NonFiniteParameter, ZeroCoupling) as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)  # the batches check each grid alpha's chain
        return 2
    except (XXChainError, ValueError, OSError, MemoryError) as error:
        # numpy raises a private MemoryError subclass; print the public name
        name = "MemoryError" if isinstance(error, MemoryError) else type(error).__name__
        print(f"error: {name}: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
