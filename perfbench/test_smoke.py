"""Smoke test of the benchmark's plumbing on a tiny generated input.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import crossprop as cp  # noqa: E402
import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
from checks import FinalState, graph_problems, inspect_fit  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, permute_blocks  # noqa: E402

TINY = Workload(
    name="tiny",
    per_class=8,
    n_classes=3,
    dim=4,
    rotation_deg=20.0,
    labeled_per_class=0,
    params=cp.HyperParams(
        alpha=1.0, beta=0.1, gamma=0.1, d=3, k=5, delta=0.8, iterations=10,
        mode="uda", ablation="full",
    ),
)


def tiny_records(trace, order_seed=3):
    return [child.measure(TINY, order_seed, 0.0, trace, 0.0) for _ in range(2)]


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(
        SPAN_NAMES
    )
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(trace):
    originals = {name: getattr(cp.solver, name) for name in ("objective", "build_graph")}
    metrics, summary = run.summarize(tiny_records(trace), trace, SPAN_NAMES)
    expected = run.per_layer_units(SPAN_NAMES) if trace else run.END_TO_END
    assert list(metrics) == list(expected)
    assert all(isinstance(v, (int, float)) for v in metrics.values())
    assert summary["failed"] == 0 and summary["attempted"] >= 4
    for name, function in originals.items():
        assert getattr(cp.solver, name) is function
    if trace:
        assert 0 <= metrics["solver.fit_self_s"] < metrics["solver.fit_s"]
        assert metrics["graph.build_graph_calls"] == metrics["solver.iterations"] + 1
        assert metrics["propagation.free_rows"] == 24
    else:
        assert metrics["ok_fraction"] == 1.0
        assert metrics["setup_s"] > 0 and metrics["peak_rss_mb"] > 0


def test_missing_function_is_reported_absent():
    tracer = Tracer()
    targets = [("crossprop.solver", "no_such_stage", "solver.no_such_stage")]
    with tracer.installed(targets):
        pass
    assert tracer.absent == ["crossprop.solver.no_such_stage"]
    assert not hasattr(cp.solver, "no_such_stage")


def test_ridge_repair_inside_linalg_is_counted():
    tracer = Tracer()
    with tracer.installed(), tracer.span("root") as root:
        cp.solve_spd_linear(np.ones((2, 2)), np.ones(2))
    _, calls, _ = tracer.summarize(root)
    assert calls == {"linalg.ridge_repair": 1}
    assert cp.linalg._trace_ridge.__name__ == "_trace_ridge"
    assert not hasattr(cp.linalg._trace_ridge, "__wrapped__")


def test_spans_nest_and_self_time_excludes_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("root") as root:
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("a"):
            pass
    seconds, calls, self_s = tracer.summarize(root)
    assert calls == {"a": 2, "b": 1}
    assert seconds == {"a": 4.0, "b": 1.0}
    assert self_s == 7.0 - 4.0


def test_gate_rejects_broken_outputs():
    ds = permute_blocks(cp.gen_synthetic_shift(0, per_class=8, dim=4), 5)
    final = FinalState(ds, TINY.params.k)
    report = cp.fit(ds, TINY.params, on_iteration=final)
    problems, counts = inspect_fit(ds, TINY.params, report, final)
    assert problems == [] and counts["graph.nnz"] == final.matrix().nnz

    S = final.matrix().tolil()
    y = ds.source_labels
    S[0, int(np.flatnonzero(y != y[0])[0])] = 1e-3
    problems = graph_problems(S.tocsr(), TINY.params.k, y)
    assert any("cross classes" in p for p in problems)
    assert any("row sums" in p for p in problems)

    wrong = dataclasses.replace(report, accuracy=0.0)
    assert any("accuracy" in p for p in inspect_fit(ds, TINY.params, wrong, final)[0])
    stale = FinalState(ds, TINY.params.k)
    assert inspect_fit(ds, TINY.params, report, stale)[0] == [
        "on_iteration did not see the final iteration"
    ]


def test_final_state_also_reads_a_sparse_graph():
    ds = cp.gen_synthetic_shift(0, per_class=8, dim=4)
    final = FinalState(ds, TINY.params.k)
    cp.fit(ds, TINY.params, on_iteration=final)
    S = final.matrix()
    sparse = FinalState(ds, TINY.params.k)
    sparse(SimpleNamespace(iteration=1, F=np.ones((ds.n_samples, 3)), graph=S))
    assert (sparse.matrix() != S).nnz == 0 and sparse.zero_rows == 0


def test_differing_output_counts_as_failed():
    records = tiny_records(0)
    records[1]["fits"][-1]["digest"] = "different"
    _, summary = run.summarize(records, 0, SPAN_NAMES)
    assert summary["failed"] == 1


class BlindFinalState(FinalState):
    """Never sees an iteration, so the gate fails every fit."""

    def __call__(self, state):
        pass


def test_run_where_every_fit_fails_prints_correct_false(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(checks, "FinalState", BlindFinalState)
    records = iter(tiny_records(0))
    monkeypatch.setattr(run, "run_child", lambda *args: next(records))
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    assert run.main(["--workload", "uda-900", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 4
    assert result["metrics"]["ok_fraction"]["value"] == 0.0
    assert result["metrics"]["fit_s"]["value"] is None


def test_order_seed_permutes_within_blocks():
    ds = cp.with_labeled_targets(cp.gen_synthetic_shift(0, per_class=6, dim=3), 2)
    assert permute_blocks(ds, 0) is ds
    shuffled = permute_blocks(ds, 7)
    assert not np.array_equal(shuffled.features, ds.features)

    def columns(d, start, stop, labels):
        return sorted(zip(map(tuple, d.features[:, start:stop].T), labels))

    n_s, n_l = ds.n_source, ds.n_labeled_target
    for a, b in ((0, n_s), (n_s, n_s + n_l), (n_s + n_l, ds.n_samples)):
        truth = lambda d: np.concatenate([d.source_labels, d.hidden_target_labels])
        assert columns(shuffled, a, b, truth(shuffled)[a:b]) == columns(
            ds, a, b, truth(ds)[a:b]
        )
    assert np.array_equal(
        shuffled.labeled_target_labels, shuffled.hidden_target_labels[:n_l]
    )


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uda-900", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
