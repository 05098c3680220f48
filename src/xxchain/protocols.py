"""Transfer experiments on the given chain; the CLI passes the mirror layout.

The excitation is injected at site 1 and read out at site N.  Every protocol
takes a ChainSpec template, and each grid alpha replaces the strength of
every impurity bond of the template (chain.with_alpha), so the caller picks
the layout, J and h.  On the paper's mirror layout both edge bonds carry the
same rescaled coupling.  The wavefront crosses the chain at the maximal group
velocity 2|J| sites per unit time, so the arrival shows up near t ~ N/2 as a
local minimum of the running IPR and, at the same time, as the first
prominent fidelity maximum.  The protocol layer scans the impurity strength
on a grid, records the fidelity peak inside the refocus window
[0.25 N, 0.75 N], and reports the strength that transfers best together with
its transfer time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, _frozen
from .dynamics import SeriesKind, TimeSeries, _even_grid, fidelity
from .errors import NoMinimumInWindow
from .measures import _local_maxima
from .spectral import transfer_spectrum_batch

REFOCUS_T_STEP = 0.1


def refocus_window(n_sites: int) -> tuple[float, float]:
    """Search window [0.25 N, 0.75 N] around the ballistic arrival time."""
    return 0.25 * n_sites, 0.75 * n_sites


def inclusive_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Points lo + k step up to hi; a point within 1e-9 steps past hi is kept."""
    count = math.floor((hi - lo) / step + 1e-9) + 1
    return lo + step * np.arange(count)


def default_alpha_grid() -> np.ndarray:
    """Impurity-strength grid 0.30 .. 1.00, step 0.01."""
    return np.arange(30, 101) / 100.0


@dataclass(frozen=True)
class Landscape:
    """Fidelity F(alpha, t) tabulated on a rectangular grid."""

    alphas: np.ndarray
    times: np.ndarray
    fidelities: np.ndarray

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=float)
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.fidelities, dtype=float)
        if values.shape != (alphas.size, times.size):
            raise ValueError("fidelity grid shape must be (len(alphas), len(times))")
        _frozen(self, alphas=alphas, times=times, fidelities=values)

    def peak(self) -> tuple[float, float, float]:
        """(alpha, t, F) of the global maximum; first grid point on ties."""
        flat = int(np.argmax(self.fidelities))
        row, col = divmod(flat, self.times.size)
        return float(self.alphas[row]), float(self.times[col]), float(self.fidelities[row, col])


@dataclass(frozen=True)
class AlphaTrace:
    """Refocus-window fidelity peak for one impurity strength.

    at_window_edge is true when the peak sits on the first or last time of
    the window grid, where the fidelity may still be rising or falling: the
    maximum is then not interior.
    """

    alpha: float
    t_refocus: float
    f_peak: float
    at_window_edge: bool


@dataclass(frozen=True)
class TransferReport:
    """Outcome of the impurity-strength optimization for one chain length."""

    n_sites: int
    alpha_opt: float
    t_tr: float
    f_max: float
    c_max: float
    per_alpha: tuple[AlphaTrace, ...]


@dataclass(frozen=True)
class ScalingResult:
    """Per-length reports plus the linear fit of the transfer time vs N."""

    reports: tuple[TransferReport, ...]
    t_tr_slope: float | None
    t_tr_intercept: float | None
    t_tr_correlation: float | None


def fidelity_landscape(template: ChainSpec, alphas, times) -> Landscape:
    """Tabulate F(alpha, t) with every impurity bond of the template at alpha.

    The grid is solved by spectral.transfer_spectrum_batch: a mirror
    template from the phase equation in batches, without a matrix; any
    other layout, alpha = 0 and a refused row by eigendecompose.  Whether
    the time grid is even is decided once, for every spectrum; a NaN or
    infinite time is a ValueError there.
    """
    alphas = np.asarray(alphas, dtype=float)
    times = np.asarray(times, dtype=float)
    if alphas.size == 0 or times.size == 0:
        raise ValueError("alpha and time grids must be nonempty")
    grid = np.empty((alphas.size, times.size))
    even = _even_grid(times)
    for row, spectrum in enumerate(transfer_spectrum_batch(template, alphas)):
        grid[row] = fidelity(spectrum, times, _even=even)
    return Landscape(alphas=alphas, times=times, fidelities=grid)


def detect_refocus_time(series: TimeSeries, window: tuple[float, float]) -> float:
    """Time of the deepest IPR local minimum inside the window.

    Ties break toward the earliest time.  Raises NoMinimumInWindow when the
    series has no interior local minimum there.
    """
    if series.kind is not SeriesKind.IPR:
        raise ValueError(f"need an IPR series, got kind={series.kind.value!r}")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError(f"window must satisfy lo < hi, got {window}")
    times = series.times
    values = series.values
    if times[0] > lo or times[-1] < hi:
        raise ValueError(
            f"series [{times[0]}, {times[-1]}] does not cover the window [{lo}, {hi}]"
        )
    minima = [k for k in _local_maxima(-values) if lo <= times[k] <= hi]
    if not minima:
        raise NoMinimumInWindow(f"no IPR local minimum inside [{lo}, {hi}]")
    return float(times[min(minima, key=values.__getitem__)])


def optimize_alpha(template: ChainSpec, alpha_grid=None) -> TransferReport:
    """Grid search for the impurity strength with the best refocus-window peak.

    For every alpha the fidelity is scanned over the refocus window with step
    REFOCUS_T_STEP and its maximum recorded; the winning alpha (first grid
    point on ties) defines alpha_opt, t_tr and f_max.  The landscape is
    multimodal, so the search is exhaustive rather than gradient-based.

    The argmax runs over the closed window, so a fidelity still rising at
    0.75 N gives an edge "peak", which its trace marks (at_window_edge): on
    the grid 0.3..0.5, N = 8, 9 and 10 all give t_tr = 0.75 N and a t_tr fit
    of slope 0.75, and every winning trace is marked.
    """
    if alpha_grid is None:
        alpha_grid = default_alpha_grid()
    alphas = np.asarray(alpha_grid, dtype=float)
    if alphas.size == 0:
        raise ValueError("alpha grid must be nonempty")
    if np.any(alphas <= 0.0):
        raise ValueError("alpha grid entries must be positive")
    times = inclusive_grid(*refocus_window(template.n_sites), REFOCUS_T_STEP)

    grid = fidelity_landscape(template, alphas, times).fidelities
    last = times.size - 1
    traces = [
        AlphaTrace(alpha=float(alpha), t_refocus=float(times[k]), f_peak=float(values[k]),
                   at_window_edge=k in (0, last))
        for alpha, values, k in zip(alphas, grid, np.argmax(grid, axis=1).tolist())
    ]
    winner = traces[int(np.argmax([trace.f_peak for trace in traces]))]
    return TransferReport(
        n_sites=template.n_sites,
        alpha_opt=winner.alpha,
        t_tr=winner.t_refocus,
        f_max=winner.f_peak,
        c_max=math.sqrt(winner.f_peak),
        per_alpha=tuple(traces),
    )


def scaling_sweep(templates, alpha_grid=None) -> ScalingResult:
    """Optimize every template and fit t_tr vs N by least squares.

    The fit is reported as absent unless at least two distinct lengths are
    given.
    """
    reports = tuple(optimize_alpha(template, alpha_grid) for template in templates)
    if not reports:
        raise ValueError("templates must be nonempty")
    if len({report.n_sites for report in reports}) < 2:
        return ScalingResult(reports=reports, t_tr_slope=None, t_tr_intercept=None, t_tr_correlation=None)
    ns = np.array([report.n_sites for report in reports], dtype=float)
    t_trs = np.array([report.t_tr for report in reports])
    slope, intercept = np.polyfit(ns, t_trs, 1)
    correlation = float(np.corrcoef(ns, t_trs)[0, 1])
    return ScalingResult(
        reports=reports,
        t_tr_slope=float(slope),
        t_tr_intercept=float(intercept),
        t_tr_correlation=correlation,
    )
