"""The graph step owns the class split, and the graph records it.

A structured graph's source rows are split by the source labels given to
``build_graph``; the graph keeps them in ``source_labels``, and the
quadratic charge takes its class sets from there, whatever cost it is
charged under.  Every graph the library builds, the Gaussian kNN graph
included, also carries the row multipliers it pinned, so a fit's objective
reads them instead of rerunning the closed form, and the objective of a
fit's state is the value the fit logged.
"""

import numpy as np
import pytest

import crossprop as cp
import crossprop.graph
from crossprop.exceptions import ArgumentError, ShapeError
from crossprop.graph import RowBlockCost, block_multiplier, cost_space, quadratic_charge


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
    loose = cp.build_graph(RowBlockCost(Z), 3, 0.8, None)
    assert loose.source_labels is None
    assert cp.gaussian_knn_graph(Z, 3).source_labels is None


def test_structured_charge_does_not_depend_on_the_cost_naming_classes(structured):
    # The masked cost gives 4.7434; reading the source candidates from all
    # sources instead of the graph's class sets gave 7.1696 under the other two.
    Z, labels, graph = structured
    masked = quadratic_charge(cp.affinity_cost(Z, None, 0.0, labels), graph)
    assert masked == pytest.approx(4.7434, abs=1e-4)
    unmasked = quadratic_charge(cp.affinity_cost(Z, None, 0.0), graph)
    streamed = quadratic_charge(RowBlockCost(Z), graph)
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
    # One pass over the row blocks builds each graph, the initial one
    # included, and the objective reads the multipliers that pass pinned.
    # The Gaussian graph of ``sp`` used to carry none, so the objective ran
    # a second pass per iteration.
    ds = cp.gen_synthetic_shift(0, per_class=20, n_classes=3)
    passes = []
    map_row_blocks = crossprop.graph._map_row_blocks

    def counting(*args):
        passes.append(1)
        return map_row_blocks(*args)

    monkeypatch.setattr(crossprop.graph, "_map_row_blocks", counting)
    report = cp.fit(ds, cp.HyperParams(k=5, iterations=4, ablation=ablation))
    assert report.iterations >= 2
    assert len(passes) == report.iterations + 1


@pytest.mark.parametrize("ablation", ["full", "sp", "dg", "ds"])
def test_objective_of_a_fit_state_is_the_logged_value(ablation):
    # The multipliers used to stay on the fit's cost object, so this call
    # recomputed them under the new soft labels: ``full`` missed its logged
    # values by 1.5e-3 to 6.1e-3 relative.  Iteration 1's discrepancy
    # comes from the initial graph's labels, which no state holds.
    ds = cp.gen_synthetic_shift(0, per_class=20, n_classes=3)
    params = cp.HyperParams(k=5, iterations=6, ablation=ablation)
    beta = params.beta if ablation == "full" else 0.0
    states = []
    cp.fit(ds, params, on_iteration=states.append)
    assert len(states) >= 2
    for previous, state in zip(states, states[1:]):
        M = cp.discrepancy_factor(
            ds.source_labels, previous.target_labels, ds.n_classes
        )
        scale = np.linalg.norm(cp.sparse_laplacian(state.graph).data)
        value = cp.objective(
            state.P, state.graph, state.F, ds.features, M,
            params.alpha, beta, params.gamma, graph_scale=scale,
        )
        assert value == pytest.approx(state.objective, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dense", [False, True], ids=["row_blocks", "dense"])
@pytest.mark.parametrize("structured", [False, True])
def test_built_graph_carries_the_multipliers_of_its_graph_step(dense, structured):
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((2, 30))
    F = rng.dirichlet(np.ones(3), size=30)
    labels = np.repeat([0, 1, 2], 4) if structured else None
    if dense:
        cost = cp.affinity_cost(Z, F, 0.1)
    else:
        cost = RowBlockCost(cost_space(Z, F, 0.1))
    graph = cp.build_graph(cost, 4, 0.8, labels)
    # Each row block's multiplier on its own, from the dense costs.
    A = cp.affinity_cost(Z, F, 0.1)
    n_s = 0 if labels is None else labels.size
    expected = np.zeros((30, 2))
    for i in range(30):
        if i < n_s:
            same = np.flatnonzero(labels == labels[i])
            src = A[i, same]
            mass = 0.8 if np.isfinite(src).any() else 0.0
            blocks = [(src, mass), (A[i, n_s:], 1.0 - mass)]
        else:
            blocks = [(A[i], 1.0)]
        for b, (costs, mass) in enumerate(blocks):
            expected[i, b] = block_multiplier(costs, 4, mass)
    rtol = 0.0 if dense else 1e-12
    np.testing.assert_allclose(graph.multipliers, expected, rtol=rtol, atol=0.0)


def test_gaussian_graph_carries_the_multipliers_of_its_distances():
    Z = np.random.default_rng(4).standard_normal((2, 12))
    graph = cp.gaussian_knn_graph(Z, 3)
    expected = cp.build_graph(RowBlockCost(Z), 3, 0.0, None).multipliers
    np.testing.assert_array_equal(graph.multipliers, expected, strict=True)
    assert np.all(graph.multipliers[:, 0] > 0.0)
    assert quadratic_charge(None, graph) == quadratic_charge(RowBlockCost(Z), graph)


def test_objective_of_a_graph_without_multipliers_needs_a_cost():
    # The objective used to charge such a graph under the evaluation point's
    # costs, RowBlockCost(cost_space(P.T @ X, F, beta)), which gave 70.73529605487009.
    rng = np.random.default_rng(6)
    X = rng.standard_normal((4, 24))
    P = rng.standard_normal((4, 2))
    F = rng.dirichlet(np.ones(3), size=24)
    own = cp.init_graph(X, 3, 0.8, np.repeat([0, 1, 2], 4))
    graph = cp.AffinityGraph(own.rows, own.k, own.delta, own.source_labels)
    args = (P, graph, F, X, np.ones((24, 1)) / 24, 1.0, 0.1, 0.1)
    with pytest.raises(ArgumentError):
        cp.objective(*args)
    cost = RowBlockCost(cost_space(P.T @ X, F, 0.1))
    value = cp.objective(*args, cost_matrix=cost)
    assert value == pytest.approx(70.73529605487009, rel=1e-12, abs=0.0)


def test_charge_and_objective_reject_inputs_of_another_size(structured):
    # A 30-sample cost against this 24-sample graph used to return a charge
    # (3.4779 here) and a 20-sample one to raise a bare IndexError.
    Z, labels, graph = structured
    rng = np.random.default_rng(7)
    for n in (20, 30):
        Y = rng.standard_normal((2, n))
        for cost in (RowBlockCost(Y), cp.affinity_cost(Y, None, 0.0)):
            with pytest.raises(ShapeError):
                quadratic_charge(cost, graph)
    X = np.vstack([Z, np.ones((1, 24))])
    P = np.eye(3)[:, :2]
    rest = (np.ones((24, 1)) / 24, 1.0, 0.1, 0.1)
    with pytest.raises(ShapeError):
        cp.objective(P, graph, None, X[:, :20], *rest)
    with pytest.raises(ShapeError):
        cp.objective(P, graph, np.full((20, 3), 1 / 3), X, *rest)


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
        cp.build_graph(RowBlockCost(X), 2, 0.8, every)
    with pytest.raises(ShapeError):
        cp.init_graph(X, 2, 0.8, every)
