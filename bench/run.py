#!/usr/bin/env python3
"""Benchmark for mpqkd: run one workload, check its results, print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload rate_curve --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --selftest

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the library's public
functions and reports the per-layer metrics instead.  A full record of each
run, stamped with the machine and library versions, is written under
``bench/results/``.
"""

import os

# BLAS and OpenMP pools stay single-threaded here and in the set-up probes
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"
RESULTS = BENCH_DIR / "results"
WORKLOAD_NAMES = ("rate_curve", "threshold_scan", "mc_validation")

SETUP_SAMPLES = 4  # fresh interpreters per run, after one uncounted warm-up


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing sources, failed probe)."""


def _import_library():
    """Import mpqkd from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "mpqkd" / "__init__.py").is_file():
        raise BenchError(f"no mpqkd sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mpqkd

    if Path(mpqkd.__file__).resolve().parent != (SRC / "mpqkd").resolve():
        raise BenchError(f"imported mpqkd from {mpqkd.__file__}, not from {SRC}")
    import workloads

    return workloads


def probe(workload: str, seed: int, quick: bool) -> None:
    """Set-up probe: import mpqkd, build the inputs, print the monotonic clock."""
    workloads = _import_library()
    workloads.WORKLOADS[workload](seed, quick)
    print(repr(time.monotonic()))


def measure_setup(workload: str, seed: int, samples: int, quick: bool) -> list:
    """Seconds from starting a fresh interpreter to built inputs, per sample."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload]
    cmd += ["--seed", str(seed)] + (["--quick"] if quick else [])
    times = []
    for _ in range(samples + 1):
        started = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()[-2000:]}")
        times.append(float(proc.stdout.split()[-1]) - started)
    # the first probe in a fresh checkout also compiles bytecode
    return times[1:]


def _git_commit():
    """The checked-out commit; None outside a git repository or without git."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, cwd=ROOT
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def stamp(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run_pass(ops, tracer=None):
    """Run every operation once; returns (wall_s, cpu_s, [(result, error, op_s)])."""
    outcomes = []
    if tracer is not None:
        tracer.install()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.current_op = index
            op_start = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # an operation that raises counts as failed
                result, error = None, "".join(traceback.format_exception_only(exc)).strip()
            outcomes.append((result, error, time.perf_counter() - op_start))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.remove()
    return wall, cpu, outcomes


def _recorded(workloads, workload: str, seed: int, quick: bool):
    """Fingerprints recorded at the seed commit; only the default seed has them."""
    if quick or seed != workloads.DEFAULT_SEED:
        return None
    if not FINGERPRINTS.is_file():
        raise BenchError(f"missing {FINGERPRINTS}")
    return json.loads(FINGERPRINTS.read_text())[workload]


def run_workload(workload, seed, seconds, trace, quick=False, expected=None, setup_samples=SETUP_SAMPLES):
    """Measure one workload and check every result; returns the result record.

    Passes over the fixed operation list repeat while another one is expected
    to end within ``seconds``; a traced run alternates untraced and traced
    passes so that the tracing overhead comes from the same run.
    """
    setup = [] if trace else measure_setup(workload, seed, setup_samples, quick)
    workloads = _import_library()
    ops = workloads.WORKLOADS[workload](seed, quick)
    if expected is None:
        expected = _recorded(workloads, workload, seed, quick)

    from tracing import Tracer, covered_seconds, function_stats, layer_metrics, span_problems

    passes, tracer = [], None
    started = time.monotonic()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        if traced:
            tracer = Tracer()
        wall, cpu, outcomes = run_pass(ops, tracer if traced else None)
        passes.append({"wall": wall, "cpu": cpu, "traced": traced, "outcomes": outcomes})
        typical = statistics.median(p["wall"] for p in passes)
        if (tracer is not None or not trace) and time.monotonic() - started + typical > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records, failed, attempted = [], 0, 0
    for pass_index, run in enumerate(passes):
        for op, (result, error, op_s) in zip(ops, run["outcomes"]):
            attempted += 1
            want = None if expected is None else expected.get(op.name)
            if error is None:
                problems = op.check(result, want)
            else:
                problems = [f"raised {error}"]
            failed += bool(problems)
            if pass_index == 0:
                fingerprint = None if error else op.fingerprint(result)
                records.append(
                    {"op": op.name, "seconds": op_s, "fingerprint": fingerprint, "problems": problems}
                )
            elif problems:
                records.append({"op": op.name, "pass": pass_index, "problems": problems})

    untraced = [p for p in passes if not p["traced"]]
    traced_walls = [p["wall"] for p in passes if p["traced"]]
    doc = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "stamp": stamp(seed),
        "passes": [{k: p[k] for k in ("wall", "cpu", "traced")} for p in passes],
        "setup_samples_s": setup,
        "attempted": attempted,
        "failed": failed,
        "operations": records,
    }
    if trace:
        spans = tracer.spans()
        traced_wall = traced_walls[-1]
        covered = covered_seconds(spans)
        metrics = layer_metrics(spans, tracer.names, tracer.values)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.uninstrumented_s"] = (traced_wall - covered, "s")
        metrics["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(p["wall"] for p in untraced),
            "s",
        )
        metrics["trace.spans"] = (len(spans["start"]), "count")
        stats = function_stats(spans, tracer.names)
        doc["functions"] = stats
        doc["self_s_total"] = sum(s["self_s"] for s in stats.values())
        doc["span_problems"] = span_problems(spans)
        RESULTS.mkdir(exist_ok=True)
        import numpy

        # one file per workload, overwritten by the next traced run
        numpy.savez(
            RESULTS / f"{workload}.spans.npz",
            names=numpy.array(tracer.names),
            name_id=spans["name_id"].astype(numpy.uint16),
            parent=spans["parent"].astype(numpy.int32),
            op=spans["op"].astype(numpy.int32),
            start=spans["start"],
            end=spans["end"],
        )
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(p["wall"] for p in untraced), "s"),
            "cpu_s": (statistics.median(p["cpu"] for p in untraced), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    doc["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return doc


def _write_record(doc: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    name = f"{doc['workload']}-seed{doc['seed']}-trace{doc['trace']}.json"
    (RESULTS / name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _corrupt(value):
    """A fingerprint that the check must reject: every leaf moved."""
    if isinstance(value, dict):
        return {k: _corrupt(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_corrupt(v) for v in value]
    if isinstance(value, str):
        return repr(float(value) + 1e-6)
    if isinstance(value, int):
        return 2 * value + 1
    return value


def _undetected_span_faults(workload: str) -> list:
    """Damage the saved spans of a traced run; the span check must notice."""
    import numpy

    from tracing import span_problems

    with numpy.load(RESULTS / f"{workload}.spans.npz") as saved:
        spans = {key: saved[key].copy() for key in ("parent", "start", "end")}
    child = int(numpy.flatnonzero(spans["parent"] >= 0)[0])
    parent = int(spans["parent"][child])
    faults = {
        "a child moved to the top level": ("parent", child, -1),
        "a child starting before its parent": ("start", child, spans["start"][parent] - 1e-3),
        "a child ending after its parent": ("end", child, spans["end"][parent] + 1e-3),
    }
    missed = []
    for fault, (key, index, value) in faults.items():
        damaged = {k: v.copy() for k, v in spans.items()}
        damaged[key][index] = value
        if not span_problems(damaged):
            missed.append(f"span check missed {fault}")
    return missed


def selftest() -> int:
    """A few points per workload: metric names and units, a wrong fingerprint
    counted as a failure, and self times that add up to the traced wall time
    minus the uninstrumented time, on spans that the span check accepts and
    that it rejects once damaged."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOAD_NAMES:
        docs = {
            trace: run_workload(workload, 0, 0.0, trace, quick=True, setup_samples=1)
            for trace in (0, 1)
        }
        for trace, doc in docs.items():
            got = {name: m["unit"] for name, m in doc["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace].items()) ^ set(got.items()))
                problems.append(f"{workload} trace {trace}: metric names or units differ: {missing}")
            if doc["failed"]:
                problems.append(f"{workload} trace {trace}: {doc['failed']} operations failed")
        traced = docs[1]
        wall = traced["metrics"]["trace.wall_s"]["value"]
        rest = traced["metrics"]["trace.uninstrumented_s"]["value"]
        if not 0.0 <= rest < wall or abs(traced["self_s_total"] - (wall - rest)) > 1e-6 * wall:
            problems.append(
                f"{workload}: self times sum to {traced['self_s_total']!r}, "
                f"traced wall minus uninstrumented is {wall - rest!r}"
            )
        problems += [f"{workload}: {problem}" for problem in traced["span_problems"]]
        problems += [f"{workload}: {problem}" for problem in _undetected_span_faults(workload)]
        wrong = {
            r["op"]: _corrupt(r["fingerprint"])
            for r in docs[0]["operations"]
            if r.get("fingerprint") is not None
        }
        # traced, so that no set-up probes run; it makes two passes
        doc = run_workload(workload, 0, 0.0, 1, quick=True, expected=wrong)
        if not wrong or doc["failed"] != len(wrong) * len(doc["passes"]):
            problems.append(
                f"{workload}: {len(wrong)} wrong fingerprints in {len(doc['passes'])} passes,"
                f" {doc['failed']} operations failed"
            )
        print(f"selftest {workload}: {'ok' if not problems else 'FAILED'}", flush=True)
    for problem in problems:
        print("selftest problem:", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="fast check of the benchmark itself")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be >= 0")
        if args.probe:
            probe(args.workload, args.seed, args.quick)
            return 0
        doc = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_record(doc)
    for record in doc["operations"]:
        for problem in record["problems"]:
            print(f"FAILED {record['op']}: {problem}")
    for problem in doc.get("span_problems", []):
        print(f"trace problem: {problem}")
    print(
        f"{doc['workload']} seed {doc['seed']}: failed_ops {doc['failed']}/{doc['attempted']}"
        f" = {doc['failed'] / doc['attempted']:.4f} (ratio)"
    )
    for name, metric in doc["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": doc["failed"] == 0,
                "attempted": doc["attempted"],
                "failed": doc["failed"],
                "metrics": doc["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
