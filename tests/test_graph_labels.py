"""The graph step owns the class split, and the graph records it.

A structured graph's source rows are split by the source labels given to
``build_graph``; the graph keeps them in ``source_labels``, and the
quadratic charge takes its class sets from there, whatever cost it is
charged under.  A fit's objective reads the multipliers its graph step kept
instead of rerunning the closed form.
"""

import numpy as np
import pytest

import crossprop as cp
import crossprop.graph
from crossprop.exceptions import ShapeError
from crossprop.graph import RowBlockCost, quadratic_charge


@pytest.fixture
def structured():
    """A structured graph on the 24-sample, 3-class draw, with its inputs."""
    Z = np.random.default_rng(0).standard_normal((2, 24))
    labels = np.repeat([0, 1, 2], 4)
    graph = cp.build_graph(cp.affinity_cost(Z, None, 0.0, labels), 3, 0.8, labels)
    return Z, labels, graph


def test_graph_records_its_source_labels(structured):
    Z, labels, graph = structured
    np.testing.assert_array_equal(graph.source_labels, labels, strict=False)
    loose = cp.build_graph(RowBlockCost(Z, None, 0.0), 3, 0.8, None)
    assert loose.source_labels is None
    assert cp.gaussian_knn_graph(Z, 3).source_labels is None


def test_structured_charge_does_not_depend_on_the_cost_naming_classes(structured):
    # The masked cost gives 4.7434; reading the source candidates from all
    # sources instead of the graph's class sets gave 7.1696 under the other two.
    Z, labels, graph = structured
    masked = quadratic_charge(cp.affinity_cost(Z, None, 0.0, labels), graph)
    assert masked == pytest.approx(4.7434, abs=1e-4)
    unmasked = quadratic_charge(cp.affinity_cost(Z, None, 0.0), graph)
    streamed = quadratic_charge(RowBlockCost(Z, None, 0.0), graph)
    assert unmasked == pytest.approx(masked, rel=1e-12, abs=0.0)
    assert streamed == pytest.approx(masked, rel=1e-12, abs=0.0)


def test_objective_without_a_cost_matches_the_masked_cost(structured):
    Z, labels, graph = structured
    n = Z.shape[1]
    X = np.vstack([Z, np.ones((1, n))])
    P = np.eye(X.shape[0])[:, : Z.shape[0]]
    args = (P, graph, None, X, np.ones((n, 1)) / n, 1.0, 0.0, 0.1)
    masked = cp.objective(*args, cost_matrix=cp.affinity_cost(Z, None, 0.0, labels))
    assert masked == pytest.approx(12.9765, abs=1e-4)
    assert cp.objective(*args) == pytest.approx(masked, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("ablation", ["full", "sp", "dg", "ds"])
def test_fit_objective_reuses_the_graph_step_multipliers(monkeypatch, ablation):
    # Only the Gaussian graph of ``sp`` has no graph step whose multipliers
    # the objective could read, so it reruns the closed form once per
    # iteration; the other ablations never do.
    ds = cp.gen_synthetic_shift(0, per_class=20, n_classes=3)
    reruns = []
    step = crossprop.graph._graph_step

    def counting(*args, **kwargs):
        if not kwargs.get("build", True):
            reruns.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(crossprop.graph, "_graph_step", counting)
    report = cp.fit(ds, cp.HyperParams(k=5, iterations=4, ablation=ablation))
    assert len(reruns) == (report.iterations if ablation == "sp" else 0)


@pytest.mark.parametrize("ablation", ["full", "sp", "dg", "ds"])
def test_fit_graphs_are_split_by_the_source_labels_only_when_structured(ablation):
    ds = cp.gen_synthetic_shift(0, per_class=20, n_classes=3)
    states = []
    params = cp.HyperParams(k=5, iterations=4, ablation=ablation)
    cp.fit(ds, params, on_iteration=states.append)
    assert states
    for state in states:
        if ablation in ("full", "ds"):
            np.testing.assert_array_equal(
                state.graph.source_labels, ds.source_labels, strict=True
            )
        else:
            assert state.graph.source_labels is None


def test_more_source_labels_than_samples_rejected():
    X = np.random.default_rng(1).standard_normal((2, 8))
    too_many = np.zeros(20, dtype=int)
    with pytest.raises(ShapeError):
        cp.build_graph(cp.affinity_cost(X, None, 0.0), 2, 0.8, too_many)
    with pytest.raises(ShapeError):
        cp.init_graph(X, 2, 0.8, too_many)


def test_source_labels_for_every_sample_rejected():
    # Each row lost its 1 - delta share: on this line the rows summed to 0.8.
    X = np.arange(6.0)[None, :]
    every = np.array([0, 0, 0, 1, 1, 1])
    with pytest.raises(ShapeError):
        cp.build_graph(cp.affinity_cost(X, None, 0.0), 2, 0.8, every)
    with pytest.raises(ShapeError):
        cp.build_graph(RowBlockCost(X, None, 0.0), 2, 0.8, every)
    with pytest.raises(ShapeError):
        cp.init_graph(X, 2, 0.8, every)
