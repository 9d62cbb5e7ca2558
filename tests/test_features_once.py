"""No stage of a fit holds a second full copy of the features beside another.

The benchmark instances are pinned by digest, so a change to how the
generator or the labeled-target split builds its arrays cannot move them.
``nearest_neighbor`` writes its distance operand straight from the train
and test blocks, ``centered_gram`` forms the scatter a column block at a
time, and ``fit`` builds its first graph before it factors the scatter, so
the graph's operand and the factor are never held together.  The peaks are
read with ``tracemalloc``, which counts NumPy's buffers but not arrays made
before it starts.
"""

import hashlib
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import crossprop as cp
import crossprop.linalg
import crossprop.solver
from crossprop.graph import RowBlockCost
from crossprop.linalg import sq_dist_operand
from crossprop.solver import centered_gram

from conftest import make_dataset

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# sha256 of the C-ordered feature bytes and of the int64 labels (source,
# labeled target, hidden target) of each benchmark instance.
DIGESTS = {
    "uda-900": (
        "ada394dbfb62d6fbd78556c0884773bc962bd55ce359aed5805a12385c1888b3",
        "8dea5be9c6b421a58000cf9aabbac656cdc0b9477a46038ddfe656bd08bf6830",
    ),
    "uda-3000": (
        "171135871751f5c0f966f4273b59a050b518f25dcdc396949040f19775c73806",
        "5673d452af7a9859ebcb951278cc1a23fd20f89673fe13c2ec2286fc807ef326",
    ),
    "sda-wide": (
        "9c9f8393622021bae7b067b1a8db78887ad28d98dd6180273bbb470c9afc8c5d",
        "9843f35bd9110332e30a7edbc317e0c720296f80ff0338af4c5d24b7c1415e1b",
    ),
}


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _traced_peak(call):
    """``(result, peak bytes above what was live when call started)``."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_benchmark_instances_are_pinned(name):
    w = _workloads()[name]
    ds = cp.gen_synthetic_shift(
        0,
        per_class=w.per_class,
        n_classes=w.n_classes,
        rotation_deg=w.rotation_deg,
        shift=w.shift,
        dim=w.dim,
        noise_scale=w.noise_scale,
    )
    if w.labeled_per_class:
        ds = cp.with_labeled_targets(ds, w.labeled_per_class)
    labels = np.concatenate(
        [ds.source_labels, ds.labeled_target_labels, ds.hidden_target_labels]
    )
    assert ds.features.shape == (w.dim, 2 * w.n_classes * w.per_class)
    assert ds.features.flags.f_contiguous and not ds.features.flags.c_contiguous
    assert (_sha256(ds.features), _sha256(labels.astype("<i8"))) == DIGESTS[name]


@pytest.mark.parametrize("order", ["C", "F"])
def test_labeled_split_keeps_memory_order(order):
    ds = cp.gen_synthetic_shift(3, per_class=7, n_classes=3, dim=5)
    ds = cp.Dataset(
        features=np.array(ds.features, order=order),
        n_source=ds.n_source,
        n_labeled_target=0,
        n_unlabeled_target=ds.n_unlabeled_target,
        source_labels=ds.source_labels,
        n_classes=ds.n_classes,
        hidden_target_labels=ds.hidden_target_labels,
    )
    split = cp.with_labeled_targets(ds, 2)
    flag = "c_contiguous" if order == "C" else "f_contiguous"
    assert getattr(split.features.flags, flag)
    target = ds.features[:, ds.n_source :]
    picked = np.concatenate(
        [np.flatnonzero(ds.hidden_target_labels == c)[:2] for c in range(3)]
    )
    rest = np.setdiff1d(np.arange(ds.n_target), picked)
    expected = np.hstack(
        [ds.features[:, : ds.n_source], target[:, picked], target[:, rest]]
    )
    np.testing.assert_array_equal(split.features, expected)


@pytest.mark.parametrize("order", ["C", "F"])
def test_operand_from_column_blocks_equals_operand_of_joined_blocks(rng, order):
    Z = np.array(rng.standard_normal((7, 30)), order=order)
    blocks = (Z[:, :11], Z[:, 11:12], Z[:, 12:])
    joined = sq_dist_operand(np.hstack(blocks))
    built = sq_dist_operand(*blocks)
    np.testing.assert_array_equal(built, joined)
    assert built.flags.f_contiguous == joined.flags.f_contiguous
    assert built.flags.c_contiguous == joined.flags.c_contiguous


def test_cost_from_column_blocks_equals_cost_of_joined_blocks(rng):
    Z = np.asfortranarray(rng.standard_normal((6, 25)))
    rows, cols = np.arange(3, 19), (np.arange(8), np.arange(8, 25))
    expected = RowBlockCost(Z).fill(rows, cols, np.empty(1000), np.empty(1000))
    built = RowBlockCost(Z[:, :8], Z[:, 8:]).fill(
        rows, cols, np.empty(1000), np.empty(1000)
    )
    for got, want in zip(built, expected):
        np.testing.assert_array_equal(got, want)


def test_cost_blocks_must_share_their_rows(rng):
    with pytest.raises(cp.ShapeError):
        RowBlockCost(rng.standard_normal((3, 4)), rng.standard_normal((2, 4)))
    with pytest.raises(cp.ArgumentError):
        RowBlockCost(np.ones((2, 3)), np.full((2, 2), np.nan))


def test_nearest_neighbor_holds_one_copy_of_wide_features(rng):
    train = rng.standard_normal((2000, 300))
    test = rng.standard_normal((2000, 100))
    labels = np.arange(300) % 5
    predicted, peak = _traced_peak(lambda: cp.nearest_neighbor(train, labels, test))
    assert predicted.shape == (100,)
    assert peak < 1.5 * (train.nbytes + test.nbytes)


@pytest.mark.parametrize("order", ["C", "F"])
def test_centered_gram_reads_long_features_in_column_blocks(rng, order):
    X = np.array(rng.standard_normal((50, 40000)), order=order)
    G, peak = _traced_peak(lambda: centered_gram(X))
    Xc = X - X.mean(axis=1, keepdims=True)
    np.testing.assert_allclose(G, Xc @ Xc.T, rtol=1e-12, atol=1e-9)
    np.testing.assert_array_equal(G, G.T)
    assert peak < 0.5 * X.nbytes


@pytest.mark.parametrize("block_cols", [1, 3, 7, 64])
def test_centered_gram_blocks_give_the_scatter(rng, block_cols):
    X = rng.standard_normal((6, 20))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crossprop.linalg, "BLOCK_BYTES", 8 * 6 * block_cols)
        G = centered_gram(X)
    Xc = X - X.mean(axis=1, keepdims=True)
    np.testing.assert_allclose(G, Xc @ Xc.T, rtol=1e-13, atol=1e-12)
    np.testing.assert_array_equal(G, G.T)


@pytest.mark.parametrize(
    "ablation, first_graph", [("full", "init_graph"), ("sp", "gaussian_knn_graph")]
)
def test_fit_factors_the_scatter_after_the_first_graph(monkeypatch, ablation, first_graph):
    calls = []

    def spy(name):
        inner = getattr(crossprop.solver, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        monkeypatch.setattr(crossprop.solver, name, wrapper)

    for name in ("factor_scatter", first_graph):
        spy(name)
    ds = make_dataset(np.random.default_rng(5))
    cp.fit(ds, cp.HyperParams(k=4, d=3, iterations=1, ablation=ablation))
    assert calls[:2] == [first_graph, "factor_scatter"]
    assert calls.count("factor_scatter") == 1
