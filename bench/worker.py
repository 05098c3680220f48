"""Workload process: runs one workload's studies through `xxchain.cli.main`.

One caller in a closed loop: each pass runs the workload's study list once,
in order, and the next pass starts when the previous one ends.  Passes repeat
until `--seconds` have elapsed (at least one).  With `--trace 1` the first
half of the time runs untraced and the second half with spans installed.

BLAS and OpenMP are pinned to one thread before numpy is imported.  The last
line of stdout is a JSON report: per-pass wall times, each call's exit code
and the SHA-256 of its `--out` file and stdout, peak RSS and provenance.
Spans of traced passes are written to `spans.jsonl` in `--work-dir`.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import studies  # noqa: E402  (bench/ is the script directory)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def provenance() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def run_pass(cli, plan, out_dir: Path):
    """Run every study once; returns (wall seconds, per-call records)."""
    calls = []
    start = time.perf_counter()
    for study in plan:
        out = out_dir / f"{study.name}{study.suffix}"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main([*study.argv, "--out", str(out)])
            except Exception:  # a crash is a failed call, not a failed benchmark
                traceback.print_exc()
                code = -1
        calls.append((study, out, code, stdout.getvalue(), stderr.getvalue()))
    wall = time.perf_counter() - start
    records = []
    for study, out, code, stdout, stderr in calls:
        records.append({
            "study": study.name,
            "code": code,
            "out": _sha(out.read_bytes()) if out.is_file() else None,
            "stdout": _sha(stdout.encode()),
            "stderr": stderr[-2000:],
        })
    return wall, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=studies.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    import xxchain.cli as cli
    import xxchain.oracle as oracle

    if Path(cli.__file__).resolve().parent != SRC / "xxchain":
        print(f"xxchain imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    plan = studies.plan(args.workload, args.seed, args.tiny)
    out_dir = args.work_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    phases = [(False, args.seconds / 2), (True, args.seconds / 2)] if args.trace else [
        (False, args.seconds)]
    passes = []
    spans_by_pass = []
    for traced, budget in phases:
        if traced:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)  # rebinds cli.main and everything it reaches
        begin = time.perf_counter()
        while True:
            cache_before = oracle._full_eigh.cache_info() if traced else None
            wall, records = run_pass(cli, plan, out_dir)
            entry = {"traced": traced, "wall_s": wall, "calls": records}
            if traced:
                info = oracle._full_eigh.cache_info()
                entry["eigh_cache"] = [info.hits - cache_before.hits,
                                       info.misses - cache_before.misses]
                spans_by_pass.append((len(passes), tracer.reset()))
            passes.append(entry)
            if time.perf_counter() - begin >= budget:
                break

    if spans_by_pass:
        with open(args.work_dir / "spans.jsonl", "w", encoding="utf-8") as handle:
            for index, recorded in spans_by_pass:
                for name, layer, start, end, parent, counts in recorded:
                    handle.write(json.dumps({
                        "pass": index, "name": name, "layer": layer, "start": start,
                        "end": end, "parent": parent, "counts": counts,
                    }) + "\n")

    report = {
        "xxchain": str(Path(cli.__file__).resolve()),
        "provenance": provenance(),
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
