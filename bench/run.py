"""Benchmark of the xxchain canonical studies, end to end and per layer.

    python3 bench/run.py --workload transfer --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all       # every workload, one summary line each

Each run measures set-up (`setup_s`: median import time of `xxchain.cli` in
fresh interpreters), then starts one workload process (`bench/worker.py`)
that runs the workload's studies in a closed loop for `--seconds`, and
finally checks every output against an independent dense-`eigh` reference
(`bench/reference.py`).  Outputs go to a scratch directory under
`.bench_tmp/` in the checkout, removed at the end.

With `--trace 0` the metrics are the end-to-end ones: `wall_s` (median pass
time), `setup_s` and `peak_rss_mb` of the workload process.  With `--trace 1`
they are the per-layer ones, computed from the spans of the traced passes.
The last stdout line is the JSON result; the lines before it give the
provenance and a readable summary, including `failed_frac`.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import reference
import studies

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150

# Layers each workload runs; the traced run fails if one records no span.
EXERCISED = {
    "transfer": ("chain", "spectral", "dynamics", "protocols", "cli", "emit"),
    "sweeps": ("chain", "spectral", "measures", "cli", "emit"),
    "evolve": ("chain", "spectral", "dynamics", "measures", "protocols", "cli", "emit"),
    "oracle": ("chain", "spectral", "dynamics", "measures", "oracle", "cli"),
}


def git_commit() -> str:
    """Commit of the checkout, read from `.git` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(probes: int) -> float:
    """Median time for a fresh interpreter to import xxchain.cli."""
    code = ("import time; t = time.perf_counter(); import xxchain.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(probes):
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_worker(args, work_dir: Path) -> dict:
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir)]
    if args.tiny:
        command.append("--tiny")
    done = subprocess.run(command, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"workload process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def verify(plan, report, out_dir: Path):
    """Check outputs; returns (attempted, failed, basis-dependent rows, messages)."""
    checker = reference.Reference()
    paths = {study.name: out_dir / f"{study.name}{study.suffix}" for study in plan}
    final = {name: hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
             for name, path in paths.items()}
    bad, messages, basis_dependent = set(), [], 0
    for study in plan:
        try:
            basis_dependent += getattr(checker, study.kind)(study, paths[study.name])
        except (reference.CheckFailed, OSError, ValueError, KeyError, IndexError) as error:
            bad.add(study.name)
            messages.append(f"{study.name}: {type(error).__name__}: {error}")
    try:
        reference.check_fidelity_concurrence(plan, paths)
    except (reference.CheckFailed, OSError, ValueError) as error:
        bad.update(s.name for s in plan if s.kind in ("evolve_fidelity", "evolve_concurrence"))
        messages.append(f"F = C^2: {error}")

    attempted = failed = 0
    stdout_of = {}
    for index, entry in enumerate(report["passes"]):
        for call in entry["calls"]:
            attempted += 1
            name = call["study"]
            problem = None
            if call["code"] != 0:
                problem = f"exit code {call['code']}: {call['stderr'].strip()[-300:]}"
            elif call["out"] != final[name]:
                problem = "--out bytes differ from the checked output"
            elif stdout_of.setdefault(name, call["stdout"]) != call["stdout"]:
                problem = "stdout differs between passes"
            elif name in bad:
                problem = "reference check failed"
            if problem:
                failed += 1
                messages.append(f"pass {index} {name}: {problem}")
    return attempted, failed, basis_dependent, messages


def layer_metrics(report, spans_path: Path, workload: str, names):
    """Per-layer metrics (median over traced passes) and coverage messages."""
    by_pass = defaultdict(list)
    with open(spans_path, encoding="utf-8") as handle:
        for line in handle:
            span = json.loads(line)
            by_pass[span["pass"]].append(span)
    per_pass, messages = [], []
    for index, entry in enumerate(report["passes"]):
        if not entry["traced"]:
            continue
        spans = by_pass.get(index, [])
        covered = [0.0] * len(spans)
        for span in spans:
            if span["parent"] >= 0:
                covered[span["parent"]] += span["end"] - span["start"]
        m = defaultdict(float)
        layers_seen = set()
        for span, inner in zip(spans, covered):
            duration = span["end"] - span["start"]
            layer = span["layer"]
            layers_seen.add(layer)
            owner = "cli" if layer == "emit" else layer
            m[f"{owner}.calls"] += 1
            m["cli.emit_s" if layer == "emit" else f"{layer}.self_s"] += duration - inner
            if span["name"] == "measures.wootters_concurrence":
                m["measures.wootters_s"] += duration
            for key, value in (span["counts"] or {}).items():
                if key == "max_dim":
                    m["oracle.max_dim"] = max(m["oracle.max_dim"], value)
                else:
                    m[f"{owner}.{key}"] += value
        m["dynamics.bytes"] = 16 * m["dynamics.phase_evals"]
        hits, misses = entry["eigh_cache"]
        m["oracle.eigh_lookups"] = hits + misses
        m["oracle.eigh_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        missing = [layer for layer in EXERCISED[workload] if layer not in layers_seen]
        if missing:
            messages.append(f"traced pass {index}: no spans for layer(s) {', '.join(missing)}")
        per_pass.append(m)
    walls = {traced: [e["wall_s"] for e in report["passes"] if e["traced"] is traced]
             for traced in (False, True)}
    metrics = {}
    for name, unit in names:
        if name == "trace.overhead_s":
            value = statistics.median(walls[True]) - statistics.median(walls[False])
        else:
            value = statistics.median(m[name] for m in per_pass)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, messages


def run_workload(args, spec) -> tuple[dict, str]:
    """One benchmark run; returns (result object, summary line)."""
    plan = studies.plan(args.workload, args.seed, args.tiny)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_tmp"))
    try:
        setup_s = measure_setup(1 if args.tiny else SETUP_PROBES)
        report = run_worker(args, work_dir)
        attempted, failed, basis_dependent, messages = verify(plan, report, work_dir / "out")
        if args.trace:
            names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
            metrics, coverage = layer_metrics(report, work_dir / "spans.jsonl", args.workload, names)
            messages += coverage
        else:
            untraced = [entry["wall_s"] for entry in report["passes"]]
            values = {
                "wall_s": statistics.median(untraced),
                "setup_s": setup_s,
                "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass

    for message in messages:
        print(f"check: {message}", file=sys.stderr)
    provenance = dict(report["provenance"], commit=git_commit(), xxchain=report["xxchain"])
    print("provenance " + json.dumps(provenance, sort_keys=True))
    walls = [entry["wall_s"] for entry in report["passes"] if not entry["traced"]]
    summary = (
        f"{args.workload:<8} seed={args.seed} trace={args.trace} passes={len(report['passes'])} "
        f"wall_s={statistics.median(walls):.4f} s setup_s={setup_s:.4f} s "
        f"peak_rss_mb={report['peak_rss_kb'] / 1024.0:.1f} MB "
        f"failed_frac={failed / attempted:.4g} ratio ({failed}/{attempted} study calls) "
        f"basis_dependent_rows={basis_dependent}"
    )
    result = {
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*studies.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="N <= 10 and a few grid points: the smoke-test profile")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "xxchain" / "cli.py").is_file():
        print(f"error: no xxchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    if args.workload != "all":
        result, summary = run_workload(args, spec)
        print(summary)
        print(json.dumps(result))
        return 0

    all_correct = True
    for workload in studies.WORKLOADS:
        args.workload = workload
        result, summary = run_workload(args, spec)
        print(summary if result["correct"] else summary + " INCORRECT")
        all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
