"""The graph step's row blocks on a pool of workers.

:func:`crossprop.graph._map_row_blocks` runs the row blocks of a pass on one
worker per core, up to ``MAX_WORKERS``.  A pass is cut into blocks by its
size alone, so its results must not depend on the core count: one, two and
four cores read the same blocks and must give the same bits.  The pool
lives only inside a call, so no thread outlives a fit and a forked child
can run the graph step again.
"""

import multiprocessing
import sys
import threading

import numpy as np
import pytest

import crossprop as cp
import crossprop.graph
import crossprop.linalg
from crossprop.graph import RowBlockCost, cost_space

N_SOURCE, N_TARGET = 61, 52
ROWS = 7  # rows of a block against all samples


def problem():
    rng = np.random.default_rng(5)
    n = N_SOURCE + N_TARGET
    Z = rng.standard_normal((3, n))
    F = rng.dirichlet(np.ones(3), size=n)
    labels = rng.integers(0, 3, N_SOURCE)
    return Z, F, labels


def workers(monkeypatch, count):
    """Force ``count`` cores, every pass cut for two workers of ``ROWS``-row blocks."""
    n = N_SOURCE + N_TARGET
    monkeypatch.setattr(crossprop.graph, "_worker_count", lambda: count)
    monkeypatch.setattr(crossprop.graph, "PARALLEL_ENTRIES", 1)
    monkeypatch.setattr(crossprop.linalg, "BLOCK_BYTES", 2 * 8 * n * ROWS)


def pools(monkeypatch):
    """The helper threads of each pool :func:`_map_row_blocks` opens."""
    opened = []
    executor = crossprop.graph.ThreadPoolExecutor

    def counting(helpers):
        opened.append(helpers)
        return executor(helpers)

    monkeypatch.setattr(crossprop.graph, "ThreadPoolExecutor", counting)
    return opened


def assert_same_csr(S, R):
    for a, b in ((S.data, R.data), (S.indices, R.indices), (S.indptr, R.indptr)):
        np.testing.assert_array_equal(a, b, strict=True)


@pytest.mark.parametrize("structured", [True, False])
@pytest.mark.parametrize("beta", [0.0, 0.1])
@pytest.mark.parametrize("streamed", [True, False])
def test_graph_step_is_bit_identical_across_worker_counts(
    monkeypatch, structured, beta, streamed
):
    Z, F, labels = problem()
    mask = labels if structured else None
    results = []
    for count in (1, 2, 4):
        with monkeypatch.context() as mp:
            workers(mp, count)
            opened = pools(mp)
            if streamed:
                cost = RowBlockCost(cost_space(Z, F, beta))
            else:
                cost = cp.affinity_cost(Z, F, beta, mask)
            graph = cp.build_graph(cost, 5, 0.8, mask)
            again = cp.build_graph(cost, 5, 0.8, mask)
        assert opened == ([] if count == 1 else [1, 1])
        np.testing.assert_array_equal(graph.multipliers, again.multipliers, strict=True)
        results.append((graph.rows, again.rows, graph.multipliers))
    S1, _, lam1 = results[0]
    for S, R, lam in results:
        assert_same_csr(S, S1)
        assert_same_csr(R, S1)
        np.testing.assert_array_equal(lam, lam1, strict=True)


def test_knn_graph_and_nearest_neighbor_are_bit_identical_across_worker_counts(
    monkeypatch,
):
    Z, _, labels = problem()
    graphs, predictions = [], []
    for count in (1, 2, 4):
        with monkeypatch.context() as mp:
            workers(mp, count)
            opened = pools(mp)
            graphs.append(cp.gaussian_knn_graph(Z, 5))
            predictions.append(
                cp.nearest_neighbor(Z[:, :N_SOURCE], labels, Z[:, N_SOURCE:])
            )
        assert opened == ([] if count == 1 else [1, 1])
    for graph, prediction in zip(graphs, predictions):
        assert_same_csr(graph.rows, graphs[0].rows)
        np.testing.assert_array_equal(
            graph.multipliers, graphs[0].multipliers, strict=True
        )
        np.testing.assert_array_equal(prediction, predictions[0], strict=True)


def test_row_writes_hold_under_frequent_thread_switches(monkeypatch):
    # Each row block writes its own rows of the outputs the workers share;
    # a lost or misplaced write would leave rows of uninitialized memory.
    Z, _, labels = problem()
    train, test = Z[:, :N_SOURCE], Z[:, N_SOURCE:]
    with monkeypatch.context() as mp:
        workers(mp, 1)
        graph = cp.gaussian_knn_graph(Z, 5)
        prediction = cp.nearest_neighbor(train, labels, test)
    workers(monkeypatch, 4)
    opened = pools(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            again = cp.gaussian_knn_graph(Z, 5)
            assert_same_csr(again.rows, graph.rows)
            np.testing.assert_array_equal(again.multipliers, graph.multipliers)
            np.testing.assert_array_equal(
                cp.nearest_neighbor(train, labels, test), prediction, strict=True
            )
    finally:
        sys.setswitchinterval(interval)
    assert opened == [1] * 40


def test_no_pass_runs_on_more_workers_than_it_is_cut_for(monkeypatch):
    # Four cores, but the budget holds one row of all samples: the pass is
    # cut for one worker in one-row blocks and runs inline, so it holds one
    # cost row and one work row, not four of each.  At two rows it is cut
    # for two workers in the same blocks.
    Z, F, labels = problem()
    n = N_SOURCE + N_TARGET
    monkeypatch.setattr(crossprop.graph, "_worker_count", lambda: 4)
    monkeypatch.setattr(crossprop.graph, "PARALLEL_ENTRIES", 1)
    opened = pools(monkeypatch)
    built = []
    for rows in (1, 2):
        monkeypatch.setattr(crossprop.linalg, "BLOCK_BYTES", 8 * n * rows)
        cost = RowBlockCost(cost_space(Z, F, 0.1))
        built.append(cp.build_graph(cost, 5, 0.8, labels).rows)
        assert opened == [1] * (rows - 1)
    assert_same_csr(*built)


def test_fit_leaves_no_thread_behind(monkeypatch):
    ds = cp.gen_synthetic_shift(0, per_class=20, n_classes=3)
    monkeypatch.setattr(crossprop.graph, "_worker_count", lambda: 2)
    monkeypatch.setattr(crossprop.graph, "PARALLEL_ENTRIES", 1)
    opened = pools(monkeypatch)
    before = threading.active_count()
    cp.fit(ds, cp.HyperParams(k=5, iterations=3))
    assert opened
    assert threading.active_count() == before


def _build_in_child():
    Z, F, labels = problem()
    cp.build_graph(RowBlockCost(cost_space(Z, F, 0.1)), 5, 0.8, labels)


def test_forked_child_runs_the_graph_step_after_its_parent(monkeypatch):
    # A pool kept at module level would hold threads that a forked child
    # does not have, and the child's graph step would wait on them forever.
    workers(monkeypatch, 2)
    opened = pools(monkeypatch)
    _build_in_child()
    assert opened
    child = multiprocessing.get_context("fork").Process(target=_build_in_child)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child's graph step did not finish")
    assert child.exitcode == 0
