"""One fresh process of the fit benchmark: set up once, then fit in a closed loop.

``run.py`` starts this script once per set-up it measures and reads the JSON
record it prints as its last line.  Set-up is the import of ``crossprop``,
dataset generation, the source-only 1-NN baseline and one untimed one-iteration
warm-up fit, which runs every stage of the loop once.  Timed fits then run one
after another until ``--budget`` seconds of fitting have passed (at least one
round).  With ``--trace 1`` each round is an untraced fit followed by a traced
one, so the tracing overhead is measured in the same process.
"""

import time

START = time.perf_counter()  # set-up time counts from here, before numpy loads

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def fit_once(cp, ds, params, tracer, traced):
    """One ``fit`` call with its final state captured; never raises."""
    from checks import FinalState

    final = FinalState(ds, params.k)
    start = time.perf_counter()
    try:
        if traced:
            with tracer.installed(), tracer.span("solver.fit") as root:
                report = cp.fit(ds, params, on_iteration=final)
        else:
            root = None
            report = cp.fit(ds, params, on_iteration=final)
    except Exception:  # a failing fit is counted, not fatal
        return {"error": traceback.format_exc(limit=4)}, None, None
    seconds = time.perf_counter() - start
    if root is not None:
        _, _, begin, end = tracer.spans[root]
        seconds = end - begin
    return {"seconds": seconds, "root": root}, report, final


def check_outcome(outcome, report, final, kind, ds, params, tracer):
    """Fill an outcome with the correctness gate, counts and span totals."""
    from checks import digest, inspect_fit

    outcome["kind"] = kind
    if report is None:
        outcome["problems"] = ["fit raised"]
        return outcome
    outcome["problems"], outcome["counts"] = inspect_fit(ds, params, report, final)
    outcome.update(
        iterations=report.iterations,
        converged=bool(report.converged),
        accuracy=report.accuracy,
        digest=digest(report),
    )
    root = outcome.pop("root")
    if root is not None:
        seconds, calls, self_s = tracer.summarize(root)
        outcome.update(layer_s=seconds, layer_calls=calls, self_s=self_s)
    return outcome


def measure(workload, order_seed, budget, trace, import_s):
    """Set up ``workload`` once and fit it for ``budget`` seconds; return the record."""
    import crossprop as cp
    from tracer import Tracer
    from workloads import make_dataset, nearest_neighbor_accuracy

    params = workload.params
    tracer = Tracer()
    with tracer.span("setup") as setup:
        ds = make_dataset(workload, order_seed, tracer)
        nn_accuracy = nearest_neighbor_accuracy(ds, tracer)
        with tracer.span("bench.warmup_fit"):
            warm_params = dataclasses.replace(params, iterations=1)
            warmup = fit_once(cp, ds, warm_params, tracer, traced=False)
    setup_spans, _, _ = tracer.summarize(setup)
    _, _, begin, end = tracer.spans[setup]

    fits = [check_outcome(*warmup, "warmup", ds, warm_params, tracer)]
    peak_rss_mb = None
    loop_start = time.perf_counter()
    while True:
        for traced in (False, True) if trace else (False,):
            outcome = fit_once(cp, ds, params, tracer, traced)
            if peak_rss_mb is None:  # set-up and one full fit, before its check
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            kind = "traced" if traced else "timed"
            fits.append(check_outcome(*outcome, kind, ds, params, tracer))
        if time.perf_counter() - loop_start >= budget:
            break

    record = {
        "n": ds.n_samples,
        "import_s": import_s,
        "setup_s": import_s + (end - begin),
        "setup_spans": setup_spans,
        "nn_accuracy": nn_accuracy,
        "peak_rss_mb": peak_rss_mb,
        "fits": fits,
        "absent": tracer.absent,
    }
    if trace:
        record["spans"] = tracer.spans
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import crossprop  # noqa: F401  (timed as part of set-up)

    import_s = time.perf_counter() - START
    if not Path(crossprop.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported crossprop from {crossprop.__file__}, not {SRC}")
    from workloads import WORKLOADS

    record = measure(WORKLOADS[args.workload], args.seed, args.budget, args.trace, import_s)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
