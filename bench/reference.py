"""Independent reference checks of every study's output.

The references use dense `numpy.linalg.eigh` on the one-excitation matrix and
never import `xxchain`; they run after the timed passes.  Printed values carry
12 significant digits, so a value passes when it is within `TOL` of the
reference, relative to max(1, |reference|).

Where two levels are closer than `DEGENERATE_GAP` (site 1 decouples at
alpha = 0 and leaves a pair about 5e-16 apart), an eigenvector is any vector
of the pair's plane, so IPR, C12 and amplitude rows of those states depend on
the LAPACK basis.  They are counted as basis-dependent and only checked to lie
in their valid range; they are not dropped.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

TOL = 1e-9
DEGENERATE_GAP = 1e-10
BAND_EDGE_TOL = 1e-9  # in-band tolerance of the band labels
SIGN_EPS = 1e-12  # first coefficient above this is made positive
REFOCUS_T_STEP = 0.1


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def cli_grid(text: str) -> np.ndarray:
    """The grid `lo:hi:step` exactly as the command line builds it."""
    lo, hi, step = (float(part) for part in text.split(":"))
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


def _grid(study, key: str) -> np.ndarray:
    """A study's grid as the command line builds it, with the planned size."""
    grid = study.params[key]
    values = cli_grid(grid.text)
    if values.size != grid.count:
        raise CheckFailed(f"{key} {grid.text} has {values.size} points, planned {grid.count}")
    return values


def _close(value: float, reference: float, what: str) -> None:
    if not abs(value - reference) <= TOL * max(1.0, abs(reference)):
        raise CheckFailed(f"{what}: got {value!r}, reference {reference!r}")


def _close_all(values, references, what: str) -> None:
    values = np.asarray(values, dtype=float)
    references = np.asarray(references, dtype=float)
    if values.shape != references.shape:
        raise CheckFailed(f"{what}: {values.shape[0]} values, expected {references.shape[0]}")
    bad = np.abs(values - references) > TOL * np.maximum(1.0, np.abs(references))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise CheckFailed(f"{what}[{k}]: got {values[k]!r}, reference {references[k]!r}")


def _read_csv(path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != header:
        raise CheckFailed(f"header {rows[0] if rows else None}, expected {header}")
    return rows[1:]


def _expect_rows(rows, count: int) -> None:
    if len(rows) != count:
        raise CheckFailed(f"{len(rows)} rows, expected {count}")


class Reference:
    """Dense eigendecompositions, cached per chain for the checks of one run."""

    def __init__(self):
        self._cache = {}

    def solve(self, n: int, alpha: float, mirror: bool = False):
        key = (n, float(alpha), mirror)
        if key not in self._cache:
            off = np.full(n - 1, -1.0)
            off[0] = -alpha
            if mirror:
                off[-1] = -alpha
            energies, columns = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
            vectors = columns.T.copy()
            lead = np.argmax(np.abs(vectors) > SIGN_EPS, axis=1)
            signs = np.sign(vectors[np.arange(n), lead])
            vectors *= np.where(signs == 0.0, 1.0, signs)[:, None]
            gaps = np.diff(energies)
            degenerate = np.zeros(n, dtype=bool)
            degenerate[:-1] |= gaps < DEGENERATE_GAP
            degenerate[1:] |= gaps < DEGENERATE_GAP
            self._cache[key] = (energies, vectors, degenerate)
        return self._cache[key]

    def transfer_amplitude(self, n, alpha, times, mirror=True):
        energies, vectors, _ = self.solve(n, alpha, mirror)
        return np.exp(-1j * np.outer(times, energies)) @ (vectors[:, 0] * vectors[:, -1])

    # One check per study kind, named after it; each returns the number of
    # basis-dependent rows it saw.

    def spectrum(self, study, path) -> int:
        n, alphas = study.params["n"], _grid(study, "alphas")
        rows = _read_csv(path, ["alpha", "j", "energy", "label"])
        _expect_rows(rows, n * alphas.size)
        for k, alpha in enumerate(alphas):
            energies = self.solve(n, alpha)[0]
            block = rows[k * n:(k + 1) * n]
            _close_all([float(r[0]) for r in block], np.full(n, alpha), "alpha")
            if [int(r[1]) for r in block] != list(range(1, n + 1)):
                raise CheckFailed(f"state indices at alpha={alpha}")
            _close_all([float(r[2]) for r in block], energies, f"energy at alpha={alpha}")
            for row, energy in zip(block, energies):
                if abs(abs(energy) - 2.0 - BAND_EDGE_TOL) <= 1e-12:
                    continue  # on the edge tolerance itself either label is right
                label = "in_band" if abs(energy) <= 2.0 + BAND_EDGE_TOL else (
                    "isolated_below" if energy < 0 else "isolated_above")
                if row[3] != label:
                    raise CheckFailed(f"label {row[3]} at alpha={alpha}, E={energy}")
        return 0

    def _state_sweep(self, study, path, observable, lower, upper) -> int:
        n, alphas = study.params["n"], _grid(study, "alphas")
        lo, hi = study.params["states"]
        width = hi - lo + 1
        rows = _read_csv(path, ["alpha", "j", "value"])
        _expect_rows(rows, width * alphas.size)
        basis_dependent = 0
        for k, alpha in enumerate(alphas):
            _, vectors, degenerate = self.solve(n, alpha)
            block = rows[k * width:(k + 1) * width]
            _close_all([float(r[0]) for r in block], np.full(width, alpha), "alpha")
            if [int(r[1]) for r in block] != list(range(lo, hi + 1)):
                raise CheckFailed(f"state indices at alpha={alpha}")
            values = observable(vectors[lo - 1:hi])
            for row, j, reference in zip(block, range(lo, hi + 1), values):
                value = float(row[2])
                if degenerate[j - 1]:
                    basis_dependent += 1
                    if not lower(n) - TOL <= value <= upper(n) + TOL:
                        raise CheckFailed(f"state {j} at alpha={alpha}: {value} out of range")
                else:
                    _close(value, reference, f"state {j} at alpha={alpha}")
        return basis_dependent

    def ipr(self, study, path) -> int:
        def ipr_rows(vectors):
            p = vectors ** 2
            return p.sum(axis=1) ** 2 / (p * p).sum(axis=1)

        return self._state_sweep(study, path, ipr_rows, lambda n: 1.0, lambda n: float(n))

    def c12(self, study, path) -> int:
        return self._state_sweep(
            study, path, lambda v: 2.0 * np.abs(v[:, 0] * v[:, 1]), lambda n: 0.0, lambda n: 1.0
        )

    def eigenvector(self, study, path) -> int:
        n, state = study.params["n"], study.params["state"]
        _, vectors, degenerate = self.solve(n, float(study.params["alpha"]))
        rows = _read_csv(path, ["site", "amplitude"])
        _expect_rows(rows, n)
        if [int(r[0]) for r in rows] != list(range(1, n + 1)):
            raise CheckFailed("site column")
        values = np.array([float(r[1]) for r in rows])
        if degenerate[state - 1]:
            _close(float(values @ values), 1.0, "norm of a basis-dependent profile")
            return n
        _close_all(values, vectors[state - 1], "amplitude")
        return 0

    def _series(self, study, path) -> tuple[np.ndarray, np.ndarray]:
        times = _grid(study, "times")
        rows = _read_csv(path, ["t", "value"])
        _expect_rows(rows, times.size)
        _close_all([float(r[0]) for r in rows], times, "t")
        return times, np.array([float(r[1]) for r in rows])

    def evolve_ipr(self, study, path) -> int:
        times, values = self._series(study, path)
        n = study.params["n"]
        energies, vectors, _ = self.solve(n, float(study.params["alpha"]))
        reference = np.empty(times.size)
        for start in range(0, times.size, 1000):
            chunk = times[start:start + 1000]
            amps = (np.exp(-1j * np.outer(chunk, energies)) * vectors[:, 0]) @ vectors
            p = np.abs(amps) ** 2
            reference[start:start + chunk.size] = p.sum(axis=1) ** 2 / (p * p).sum(axis=1)
        _close_all(values, reference, "running IPR")
        return 0

    def _edge_series(self, study, path, observable) -> int:
        times, values = self._series(study, path)
        f = self.transfer_amplitude(study.params["n"], float(study.params["alpha"]), times)
        _close_all(values, observable(f), study.kind)
        return 0

    def evolve_fidelity(self, study, path) -> int:
        return self._edge_series(study, path, lambda f: np.minimum(np.abs(f) ** 2, 1.0))

    def evolve_concurrence(self, study, path) -> int:
        return self._edge_series(study, path, lambda f: np.minimum(np.abs(f), 1.0))

    def landscape(self, study, path) -> int:
        n = study.params["n"]
        alphas = _grid(study, "alphas")
        times = _grid(study, "times")
        rows = _read_csv(path, ["alpha", "t", "fidelity"])
        _expect_rows(rows, alphas.size * times.size)
        table = np.array([[float(x) for x in row] for row in rows])
        _close_all(table[:, 0], np.repeat(alphas, times.size), "alpha")
        _close_all(table[:, 1], np.tile(times, alphas.size), "t")
        reference = np.concatenate([
            np.minimum(np.abs(self.transfer_amplitude(n, alpha, times)) ** 2, 1.0)
            for alpha in alphas
        ])
        _close_all(table[:, 2], reference, "fidelity")
        return 0

    def scaling(self, study, path) -> int:
        grid = study.params["alphas"]
        alphas = np.arange(30, 101) / 100.0 if grid is None else _grid(study, "alphas")
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        reports = result["reports"]
        if [r["n_sites"] for r in reports] != list(study.params["n_list"]):
            raise CheckFailed("chain lengths of the reports")
        for report in reports:
            n = report["n_sites"]
            lo, hi = 0.25 * n, 0.75 * n
            times = lo + REFOCUS_T_STEP * np.arange(
                int(math.floor((hi - lo) / REFOCUS_T_STEP + 1e-9)) + 1)
            traces = report["per_alpha"]
            if len(traces) != alphas.size:
                raise CheckFailed(f"N={n}: {len(traces)} alpha points, expected {alphas.size}")
            peaks = np.empty(alphas.size)
            for k, (alpha, trace) in enumerate(zip(alphas, traces)):
                fid = np.minimum(np.abs(self.transfer_amplitude(n, alpha, times)) ** 2, 1.0)
                peaks[k] = fid.max()
                _close(trace["alpha"], alpha, f"N={n} alpha")
                _close(trace["f_peak"], peaks[k], f"N={n} f_peak at alpha={alpha}")
                # ties on the time grid: the reported time must reach the peak
                at = int(np.argmin(np.abs(times - trace["t_refocus"])))
                _close(trace["t_refocus"], times[at], f"N={n} t_refocus grid point")
                _close(fid[at], peaks[k], f"N={n} fidelity at t_refocus, alpha={alpha}")
            best = int(np.argmin(np.abs(alphas - report["alpha_opt"])))
            _close(report["alpha_opt"], alphas[best], f"N={n} alpha_opt grid point")
            _close(peaks[best], peaks.max(), f"N={n} peak at alpha_opt")
            _close(report["t_tr"], traces[best]["t_refocus"], f"N={n} t_tr")
            _close(report["f_max"], peaks.max(), f"N={n} f_max")
            _close(report["c_max"], math.sqrt(peaks.max()), f"N={n} c_max")
        if len(reports) >= 2:
            ns = np.array([r["n_sites"] for r in reports], dtype=float)
            t_trs = np.array([r["t_tr"] for r in reports])
            slope, intercept = np.polyfit(ns, t_trs, 1)
            _close(result["t_tr_slope"], slope, "t_tr slope")
            _close(result["t_tr_intercept"], intercept, "t_tr intercept")
            _close(result["t_tr_correlation"], np.corrcoef(ns, t_trs)[0, 1], "t_tr correlation")
        return 0

    def oracle(self, study, path) -> int:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        body = lines[1:]
        expected = list(range(2, study.params["n_max"] + 1))
        if [int(line.split()[0]) for line in body] != expected:
            raise CheckFailed(f"oracle rows for n={[line.split()[0] for line in body]}")
        failing = [line for line in body if line.split()[-1] != "pass"]
        if failing:
            raise CheckFailed(f"oracle reports {failing[0]!r}")
        return 0


def check_fidelity_concurrence(studies, paths) -> None:
    """F = C^2 on the time grid that the mirror-chain series share."""
    by_kind = {study.kind: study for study in studies}
    if "evolve_fidelity" not in by_kind or "evolve_concurrence" not in by_kind:
        return
    series = {}
    for kind in ("evolve_fidelity", "evolve_concurrence"):
        rows = _read_csv(paths[by_kind[kind].name], ["t", "value"])
        series[kind] = np.array([[float(x) for x in row] for row in rows])
    fid, conc = series["evolve_fidelity"], series["evolve_concurrence"]
    if fid.shape != conc.shape or np.any(fid[:, 0] != conc[:, 0]):
        raise CheckFailed("fidelity and concurrence series do not share a time grid")
    _close_all(conc[:, 1] ** 2, fid[:, 1], "C^2 against F")
