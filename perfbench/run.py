"""Fit benchmark for crossprop: end-to-end time, memory and accuracy, plus per-layer spans.

    python3 perfbench/run.py --workload uda-900 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # all three workloads, seed 0

Each workload runs in ``CHILDREN`` fresh child processes, one after another.
Each child sets up once and then calls ``crossprop.fit`` in a closed loop (one
client, the next fit starts when the previous one returns) for its share of
``--seconds``.  With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it wraps the library's layer functions and prints per-layer
totals per fit.  Every fit passes through the correctness gate in
``checks.py``.  The last line of standard output is one JSON object; a full
record, spans included, goes to ``perfbench/out/``.  See README.md there.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CHILDREN = 2
# One BLAS thread: on a 2-core Xeon VM, OpenBLAS at 2 threads made no workload
# faster, uda-900 slower (1.40 s against 0.96 s per fit), and doubled the spread.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "fit_s": "s",
    "iter_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "fraction",
    "ok_fraction": "fraction",
    "setup_s": "s",
}
COUNTS = {
    "graph.nnz": "count",
    "graph.cost_entries_per_edge": "ratio",
    "propagation.free_rows": "count",
    "propagation.zero_rows": "count",
}


def per_layer_units(span_names):
    units = {
        "solver.fit_s": "s",
        "solver.fit_self_s": "s",
        "trace.overhead_s": "s",
        "trace.fits": "count",
    }
    for name in span_names:
        if name != "linalg.ridge_repair":
            units[f"{name}_s"] = "s"
            units[f"{name}_calls"] = "count"
    units.update(COUNTS)
    units.update(
        {
            "linalg.ridge_repairs": "count",
            "linalg.solves": "count",
            "solver.iterations": "count",
            "solver.converged": "flag",
            "data.gen_synthetic_shift_s": "s",
            "baselines.nearest_neighbor_s": "s",
            "baselines.nn_accuracy": "fraction",
        }
    )
    return units


def median(values):
    return statistics.median(values) if values else None


def fail_digests(fits):
    """Mark timed fits whose output differs from the most common one."""
    digests = [f["digest"] for f in fits if f["kind"] != "warmup" and "digest" in f]
    if not digests:
        return
    reference, _ = Counter(digests).most_common(1)[0]
    for f in fits:
        if f["kind"] != "warmup" and f.get("digest", reference) != reference:
            f["problems"].append("output differs from the other fits of this run")


def summarize(records, trace, span_names):
    """Metrics and failure counts of one workload from its child records."""
    fits = [f for r in records for f in r["fits"]]
    fail_digests(fits)
    failed = sum(1 for f in fits if f["problems"])
    good = [f for f in fits if not f["problems"] and f["kind"] != "warmup"]
    timed = [f for f in good if f["kind"] == "timed"]
    traced = [f for f in good if f["kind"] == "traced"]
    untraced_s = median([f["seconds"] for f in timed])
    summary = {
        "attempted": len(fits),
        "failed": failed,
        "timed_seconds": [f["seconds"] for f in timed],
        "iterations": median([f["iterations"] for f in good]),
    }
    if not trace:
        metrics = {
            "fit_s": untraced_s,
            "iter_s": median([f["seconds"] / f["iterations"] for f in timed]),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
            "accuracy": median([f["accuracy"] for f in good]),
            "ok_fraction": 1.0 - failed / len(fits),
            "setup_s": median([r["setup_s"] for r in records]),
        }
        return metrics, summary

    def per_fit(key):
        return median([key(f) for f in traced])

    def calls(*names):
        return per_fit(lambda f: sum(f["layer_calls"].get(n, 0) for n in names))

    traced_s = per_fit(lambda f: f["seconds"])
    metrics = {
        "solver.fit_s": traced_s,
        "solver.fit_self_s": per_fit(lambda f: f["self_s"]),
        "trace.overhead_s": None if None in (traced_s, untraced_s) else traced_s - untraced_s,
        "trace.fits": len(traced),
    }
    for name in span_names:
        if name != "linalg.ridge_repair":
            metrics[f"{name}_s"] = per_fit(lambda f: f["layer_s"].get(name, 0.0))
            metrics[f"{name}_calls"] = calls(name)
    for name in COUNTS:
        metrics[name] = per_fit(lambda f: f["counts"][name])
    metrics["linalg.ridge_repairs"] = calls("linalg.ridge_repair")
    metrics["linalg.solves"] = calls("linalg.solve_spd_linear", "linalg.solve_sym_definite_geig")
    metrics["solver.iterations"] = per_fit(lambda f: f["iterations"])
    metrics["solver.converged"] = per_fit(lambda f: int(f["converged"]))
    for name in ("data.gen_synthetic_shift", "baselines.nearest_neighbor"):
        metrics[f"{name}_s"] = median([r["setup_spans"][name] for r in records])
    metrics["baselines.nn_accuracy"] = median([r["nn_accuracy"] for r in records])
    return metrics, summary


def read_text(path, default="unknown"):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def environment(nproc, blas_threads):
    """Versions, BLAS build, processor and cache sizes of the host."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    for line in read_text("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read_text(index / "level")
        kind = read_text(index / "type")
        label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[label] = read_text(index / "size")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": nproc,
        "cpu": cpu,
        "caches": caches,
    }


def parse_size(text):
    """Bytes in a sysfs cache size such as ``107520K``; ``None`` when unknown."""
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}
    try:
        return int(text[:-1]) * scale[text[-1]] if text[-1] in scale else int(text)
    except (ValueError, IndexError):
        return None


def deadline_s(seconds):
    """Time a workload may take: set-up allowance plus room for the last round.

    Each child overruns its share of ``seconds`` by at most one round, and a
    traced round on uda-3000 is two 16 s fits.  At the default 20 s this is
    170 s, which keeps a default run under three minutes.
    """
    return 90.0 + 4.0 * seconds


def child_env():
    """Environment for a child: every BLAS pool pinned to ``BLAS_THREADS``."""
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    return env


def run_child(workload, args, budget, env, deadline):
    command = [
        sys.executable,
        str(HERE / "child.py"),
        f"--workload={workload}",
        f"--seed={args.seed}",
        f"--budget={budget}",
        f"--trace={args.trace}",
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("no time left for another child process")
    done = subprocess.run(
        command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining
    )
    if done.returncode != 0:
        raise RuntimeError(f"child for {workload} failed:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def report_workload(name, metrics, summary, units, records, trace):
    """Human-readable lines for one workload."""
    n = records[0]["n"]
    print(
        f"# {name}: n={n}, one n x n array {8 * n * n / 1e6:.1f} MB, "
        f"{fmt(summary['iterations'])} iterations"
    )
    notes = {}
    samples = summary["timed_seconds"]
    notes["fit_s"] = f"median of {len(samples)} fits" + (
        f", min {min(samples):.4g}, max {max(samples):.4g}" if samples else ""
    )
    notes["peak_rss_mb"] = f"highest ru_maxrss of {len(records)} fresh children"
    notes["accuracy"] = f"source-only 1-NN {records[0]['nn_accuracy']:.4g}"
    notes["ok_fraction"] = (
        f"failed_fraction {summary['failed'] / summary['attempted']:.4g} "
        f"({summary['failed']} of {summary['attempted']} fits, warm-ups included)"
    )
    parts = Counter()
    for r in records:
        parts.update({"import": r["import_s"], **r["setup_spans"]})
    notes["setup_s"] = f"median of {len(records)} set-ups; mean parts " + ", ".join(
        f"{k} {v / len(records):.3g}" for k, v in parts.items()
    )
    for metric, value in metrics.items():
        line = f"{name:9s} {metric:38s} {fmt(value):>12s} {units[metric]}"
        print(line + (f"  ({notes[metric]})" if metric in notes else ""))
    absent = sorted({a for r in records for a in r["absent"]})
    if trace and absent:
        print(f"# {name}: absent from the library, reported as zero: {', '.join(absent)}")
    for f in (f for r in records for f in r["fits"] if f["problems"]):
        print(f"# {name}: {f['kind']} fit failed: {'; '.join(f['problems'])}")
        if "error" in f:
            print(f["error"], file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="sample-order seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "crossprop" / "__init__.py").is_file():
        print(f"error: no crossprop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import SPAN_NAMES
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)}")

    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    info = environment(nproc, BLAS_THREADS)
    l3 = parse_size(info["caches"].get("L3", ""))
    units = per_layer_units(SPAN_NAMES) if args.trace else END_TO_END
    print(
        f"# env: python {info['python']}, numpy {info['numpy']}, scipy {info['scipy']}, "
        f"BLAS {info['blas']} with {BLAS_THREADS} thread, nproc {nproc}, "
        f"CPU {info['cpu']}, caches "
        + ", ".join(f"{k} {v}" for k, v in info["caches"].items())
    )
    print(
        f"# load: closed loop, one client, {CHILDREN} fresh child processes per "
        f"workload, {args.seconds:g} s of fits per workload, seed {args.seed}, "
        f"trace {args.trace}"
    )
    print(
        "# peak_rss_mb is ru_maxrss of a fresh child per workload, read after set-up "
        "and one full fit; no memory-bandwidth figure is claimed, because the "
        "n x n arrays stay below 4x the last-level cache"
        + (f" ({4 * l3 / 1e6:.0f} MB)" if l3 else "")
    )

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    full = {"env": info, "args": vars(args), "workloads": {}}
    for name in names:
        deadline = time.monotonic() + deadline_s(args.seconds)
        try:
            records = [
                run_child(name, args, args.seconds / CHILDREN, env, deadline)
                for _ in range(CHILDREN)
            ]
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        metrics, summary = summarize(records, args.trace, SPAN_NAMES)
        report_workload(name, metrics, summary, units, records, args.trace)
        result["attempted"] += summary["attempted"]
        result["failed"] += summary["failed"]
        result["correct"] &= summary["failed"] == 0
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in metrics.items():
            result["metrics"][prefix + metric] = {"value": value, "unit": units[metric]}
        full["workloads"][name] = {"metrics": metrics, "summary": summary, "children": records}

    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(full))
    print(f"# full record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
