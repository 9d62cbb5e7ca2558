"""The fit's graph step reads its costs from one cost-space operand.

Each iteration the fit stacks ``U = [Z; sqrt(beta) * F.T]``
(:func:`crossprop.graph.cost_space`) and hands ``RowBlockCost(U, None,
0.0)`` to the graph step, so each block of costs is one product.  With
integer coordinates, soft labels in {0, 1} and an exact ``sqrt(beta)`` the
costs, and so the graphs and multipliers, equal those of the two-operand
``RowBlockCost(Z, F, beta)`` bit for bit; with floats they agree to
rounding.
"""

import threading
from collections import Counter

import numpy as np
import pytest

import crossprop as cp
import crossprop.graph
import crossprop.linalg
from crossprop.graph import RowBlockCost, cost_space


def integer_problem(seed, n_s=7, n_t=6):
    rng = np.random.default_rng(seed)
    n = n_s + n_t
    Z = rng.integers(-2, 3, size=(2, n)).astype(float)
    F = rng.integers(0, 2, size=(n, 3)).astype(float)
    labels = rng.integers(0, 2, size=n_s)
    return Z, F, labels


def graph_arrays(graph):
    S = graph.rows
    return S.indptr, S.indices, S.data


@pytest.mark.parametrize("beta", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("structured", [False, True])
@pytest.mark.parametrize("block", [1, 3, None])
@pytest.mark.parametrize("seed", range(4))
def test_cost_space_graph_equals_two_operand_graph_bit_for_bit(
    monkeypatch, beta, structured, block, seed
):
    Z, F, labels = integer_problem(seed)
    if block is not None:
        monkeypatch.setattr(crossprop.linalg, "BLOCK_BYTES", 8 * Z.shape[1] * block)
    labels = labels if structured else None
    reference, stacked = RowBlockCost(Z, F, beta), RowBlockCost(cost_space(Z, F, beta), None, 0.0)
    expected = cp.build_graph(reference, 3, 0.8, labels)
    graph = cp.build_graph(stacked, 3, 0.8, labels)
    for a, b in zip(graph_arrays(graph), graph_arrays(expected)):
        np.testing.assert_array_equal(a, b, strict=True)
    assert reference.multipliers.keys() == stacked.multipliers.keys()
    for key, lam in reference.multipliers.items():
        np.testing.assert_array_equal(stacked.multipliers[key], lam, strict=True)


@pytest.mark.parametrize("structured", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_cost_space_graph_matches_two_operand_graph_on_floats(structured, seed):
    rng = np.random.default_rng(seed)
    n_s, n_t = 40, 30
    n = n_s + n_t
    Z = rng.standard_normal((4, n))
    F = rng.dirichlet(np.ones(3), size=n)
    labels = rng.integers(0, 3, size=n_s) if structured else None
    expected = cp.build_graph(RowBlockCost(Z, F, 0.1), 5, 0.8, labels)
    graph = cp.build_graph(RowBlockCost(cost_space(Z, F, 0.1), None, 0.0), 5, 0.8, labels)
    np.testing.assert_array_equal(graph.rows.indptr, expected.rows.indptr)
    np.testing.assert_array_equal(graph.rows.indices, expected.rows.indices)
    np.testing.assert_allclose(graph.rows.data, expected.rows.data, rtol=0.0, atol=1e-12)


def test_cost_space_without_a_label_term_is_the_features():
    Z, F, _ = integer_problem(0)
    assert cost_space(Z, F, 0.0) is Z
    assert cost_space(Z, None, 1.0) is Z
    np.testing.assert_array_equal(cost_space(Z, F, 0.25), np.vstack([Z, 0.5 * F.T]))


def test_full_fit_graph_steps_take_one_product_per_row_block_and_column_set(monkeypatch):
    # Two products per set, one for the features and one for the labels,
    # would mean the fit read the two-operand cost.
    products = Counter()
    fills = []
    compute = crossprop.graph.sq_dists_into
    fill = RowBlockCost.fill

    def counting(out, left, B):
        products[threading.get_ident()] += 1
        return compute(out, left, B)

    def recording(self, rows, col_sets, out, work):
        before = products[threading.get_ident()]
        blocks = fill(self, rows, col_sets, out, work)
        fills.append((self, len(col_sets), products[threading.get_ident()] - before))
        return blocks

    monkeypatch.setattr(crossprop.graph, "sq_dists_into", counting)
    monkeypatch.setattr(RowBlockCost, "fill", recording)
    ds = cp.gen_synthetic_shift(0, per_class=20, n_classes=3)
    report = cp.fit(ds, cp.HyperParams(k=5, iterations=3, beta=0.1, ablation="full"))
    assert len({id(cost) for cost, _, _ in fills}) == report.iterations + 1
    assert all(made == sets for _, sets, made in fills)
    assert sum(products.values()) == sum(sets for _, sets, _ in fills)
