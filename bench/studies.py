"""Study lists of the four benchmark workloads.

Each study is one `xxchain` command line, run in-process through
`xxchain.cli.main`.  Seed 0 reproduces the README canonical-study grids
exactly.  Any other seed shifts every alpha grid, every point alpha and every
time grid by a fraction of a step drawn from the seed, so the same seed always
gives the same command lines while the number of alpha points, time samples
and chain lengths, and with them the work per pass, stays fixed.

`oracle-check` takes no grid flags, so the `oracle` workload is the same for
every seed.

This module is stdlib only: the harness and the workload process both use it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from decimal import Decimal

WORKLOADS = ("transfer", "sweeps", "evolve", "oracle")

# Shift applied to the point alphas (evolve panels, mirror chain, eigenvector
# profiles) per unit of the seed's draw; small next to every panel value.
POINT_ALPHA_SPAN = Decimal("0.02")


def _text(value: Decimal) -> str:
    """Plain decimal text without exponent or trailing zeros."""
    return format(value.normalize(), "f")


@dataclass(frozen=True)
class Grid:
    """Evenly spaced grid `lo:hi:step` in exact decimal arithmetic."""

    lo: Decimal
    step: Decimal
    count: int

    @classmethod
    def parse(cls, text: str) -> "Grid":
        lo, hi, step = (Decimal(part) for part in text.split(":"))
        return cls(lo, step, int((hi - lo) / step) + 1)

    def shifted(self, fraction: Decimal) -> "Grid":
        return Grid(self.lo + fraction * self.step, self.step, self.count)

    @property
    def hi(self) -> Decimal:
        return self.lo + self.step * (self.count - 1)

    @property
    def text(self) -> str:
        return f"{_text(self.lo)}:{_text(self.hi)}:{_text(self.step)}"


@dataclass
class Study:
    """One CLI call: its arguments without `--out`, and what to check."""

    name: str
    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)

    @property
    def suffix(self) -> str:
        return {"scaling": ".json", "oracle": ".txt"}.get(self.kind, ".csv")


@dataclass(frozen=True)
class Shifts:
    """Fractions of a step by which a seed moves the grids; all 0 for seed 0."""

    alpha: Decimal
    time: Decimal
    point: Decimal

    @classmethod
    def for_seed(cls, seed: int) -> "Shifts":
        if seed == 0:
            return cls(Decimal(0), Decimal(0), Decimal(0))
        rng = random.Random(seed)
        draw = [Decimal(rng.randint(1, 999)) / 1000 for _ in range(3)]
        return cls(draw[0], draw[1], draw[2] * POINT_ALPHA_SPAN)


# Sizes of the README studies, and the tiny profile used by the smoke test.
FULL = {
    "spectrum": (40, "0:3:0.01"),
    "ipr": (200, "0:2:0.005", (1, 100)),
    "c12_low": (200, "0:3:0.005", (1, 1)),
    "c12_band": (200, "0:2:0.005", None),
    "panels": ("0.1", "0.4", "1.0", "1.4", "1.5", "3.0"),
    "evolve_ipr": (200, "0:500:0.05"),
    "mirror": (200, "0.4", "0:150:0.05"),
    "landscape": (31, "0.1:1.5:0.02", "0:40:0.1"),
    "eigenvector": (112, (("bound", "1.6", 1), ("center", "0.1", 56))),
    "scaling": ((50, 100, 200, 400), "0.3:1:0.01"),
    "oracle": 10,
}
TINY = {
    "spectrum": (8, "0:3:0.5"),
    "ipr": (10, "0:2:0.5", (1, 5)),
    "c12_low": (10, "0:3:0.5", (1, 1)),
    "c12_band": (10, "0:2:0.5", None),
    "panels": ("0.4", "1.5"),
    "evolve_ipr": (10, "0:5:0.5"),
    "mirror": (10, "0.4", "0:5:0.5"),
    "landscape": (7, "0.1:1.5:0.2", "0:4:0.5"),
    "eigenvector": (10, (("bound", "1.6", 1), ("center", "0.1", 5))),
    "scaling": ((8, 10), "0.3:0.5:0.1"),
    "oracle": 4,
}


def _sweep(name, kind, subcommand, n, grid, states):
    argv = [subcommand, "--n", str(n), "--alpha-range", grid.text]
    if states is not None:
        argv += ["--states", f"{states[0]}:{states[1]}"]
    elif kind == "c12":
        states = (2, max(n // 2, 2))  # the subcommand's documented default
    return Study(name, kind, tuple(argv), {"n": n, "alphas": grid, "states": states})


def plan(workload: str, seed: int, tiny: bool = False) -> list[Study]:
    """The study list of one workload for one seed."""
    sizes = TINY if tiny else FULL
    shift = Shifts.for_seed(seed)

    def alpha_grid(text):
        return Grid.parse(text).shifted(shift.alpha)

    def time_grid(text):
        return Grid.parse(text).shifted(shift.time)

    def point(text):
        return _text(Decimal(text) + shift.point)

    if workload == "transfer":
        n_list, default_grid = sizes["scaling"]
        argv = ["scaling", "--n-list", ",".join(str(n) for n in n_list)]
        grid = None
        if tiny or seed != 0:
            grid = alpha_grid(default_grid)
            argv += ["--alpha-range", grid.text]
        return [Study("scaling", "scaling", tuple(argv), {"n_list": n_list, "alphas": grid})]

    if workload == "sweeps":
        n, text = sizes["spectrum"]
        studies = [_sweep("spectrum", "spectrum", "spectrum", n, alpha_grid(text), None)]
        for name, kind, subcommand in (
            ("ipr", "ipr", "ipr-sweep"),
            ("c12_low", "c12", "concurrence-sweep"),
            ("c12_band", "c12", "concurrence-sweep"),
        ):
            n, text, states = sizes[name]
            studies.append(_sweep(name, kind, subcommand, n, alpha_grid(text), states))
        return studies

    if workload == "evolve":
        studies = []
        n, text = sizes["evolve_ipr"]
        for panel in sizes["panels"]:
            alpha = point(panel)
            studies.append(Study(
                f"ipr_t_{panel}", "evolve_ipr",
                ("evolve", "--n", str(n), "--alpha", alpha, "--kind", "ipr",
                 "--t-range", time_grid(text).text),
                {"n": n, "alpha": alpha, "times": time_grid(text)},
            ))
        n, panel, text = sizes["mirror"]
        alpha = point(panel)
        for kind in ("fidelity", "concurrence"):
            studies.append(Study(
                f"{kind}_t", f"evolve_{kind}",
                ("evolve", "--n", str(n), "--alpha", alpha, "--mirror", "--kind", kind,
                 "--t-range", time_grid(text).text),
                {"n": n, "alpha": alpha, "times": time_grid(text)},
            ))
        n, alphas, times = sizes["landscape"]
        studies.append(Study(
            "landscape", "landscape",
            ("landscape", "--n", str(n), "--alpha-range", alpha_grid(alphas).text,
             "--t-range", time_grid(times).text),
            {"n": n, "alphas": alpha_grid(alphas), "times": time_grid(times)},
        ))
        n, profiles = sizes["eigenvector"]
        for name, panel, state in profiles:
            alpha = point(panel)
            studies.append(Study(
                f"eigenvector_{name}", "eigenvector",
                ("eigenvector", "--n", str(n), "--alpha", alpha, "--state", str(state)),
                {"n": n, "alpha": alpha, "state": state},
            ))
        return studies

    if workload == "oracle":
        n_max = sizes["oracle"]
        return [Study("oracle", "oracle", ("oracle-check", "--n-max", str(n_max)), {"n_max": n_max})]

    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
