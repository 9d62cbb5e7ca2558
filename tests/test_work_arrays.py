"""The in-place forms of the dense stages equal their straightforward forms bit for bit.

``discrepancy_matrix``, ``conditional_mmd``, ``laplacian`` and
``pairwise_sq_dists`` build their ``n x n`` results with fewer temporaries
than the textbook expressions below; the results must be ``np.array_equal``
to them, not merely close, so every fit stays bit-identical.  The last test
checks the allocator setting that ``import crossprop`` makes.
"""

import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossprop as cp
from crossprop.linalg import pairwise_sq_dists

from conftest import make_dataset


def outer_sum_conditional(source_labels, target_labels, n_classes):
    """Class-conditional matrix as the sum of full ``n x n`` outer products."""
    n_s = source_labels.size
    n = n_s + target_labels.size
    M = np.zeros((n, n))
    for c in range(n_classes):
        src = np.flatnonzero(source_labels == c)
        tgt = np.flatnonzero(target_labels == c)
        if src.size == 0 or tgt.size == 0:
            continue
        e = np.zeros(n)
        e[src] = 1.0 / src.size
        e[n_s + tgt] = -1.0 / tgt.size
        M += np.outer(e, e)
    return M


@st.composite
def label_vectors(draw):
    n_classes = draw(st.integers(1, 4))
    labels = st.integers(0, n_classes - 1)
    src = np.array(draw(st.lists(labels, min_size=1, max_size=12)), dtype=int)
    tgt = np.array(draw(st.lists(labels, min_size=1, max_size=12)), dtype=int)
    return src, tgt, n_classes


@settings(max_examples=200, deadline=None)
@given(label_vectors())
def test_discrepancy_matrices_equal_outer_product_sums(problem):
    src, tgt, n_classes = problem
    Mc = outer_sum_conditional(src, tgt, n_classes)
    assert np.array_equal(cp.conditional_mmd(src, tgt, n_classes), Mc)
    M = cp.marginal_mmd(src.size, tgt.size) + Mc
    norm = np.linalg.norm(M, "fro")
    if norm > 0.0:
        M = M / norm
    assert np.array_equal(cp.discrepancy_matrix(src, tgt, n_classes), M)
    assert np.array_equal(
        cp.combined_mmd(cp.marginal_mmd(src.size, tgt.size), Mc), M
    )


@pytest.mark.parametrize("structured", [True, False])
def test_laplacian_of_graph_equals_dense_formula(rng, structured):
    ds = make_dataset(rng)
    graph = cp.init_graph(ds.features, 4, 0.8, ds.source_labels, structured=structured)
    S = graph.toarray()
    W_ref = (S + S.T) / 2.0
    L_ref = np.diag(W_ref.sum(axis=1)) - W_ref
    for W, L in (cp.laplacian(graph), cp.laplacian(S)):
        assert np.array_equal(W, W_ref)
        assert np.array_equal(L, L_ref)
        assert np.array_equal(np.signbit(L), np.signbit(L_ref))


def test_pairwise_sq_dists_equals_textbook_form(rng):
    Z = rng.standard_normal((5, 40))
    G = Z.T @ Z
    G = (G + G.T) / 2.0
    sq = np.diag(G)
    D = sq[:, None] + sq[None, :] - 2.0 * G
    np.maximum(D, 0.0, out=D)
    np.fill_diagonal(D, 0.0)
    assert np.array_equal(pairwise_sq_dists(Z), D)


@pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="the mmap threshold is a glibc setting",
)
@pytest.mark.parametrize("preset, pinned", [(None, True), ("4194304", False)])
def test_import_pins_mmap_threshold_unless_environment_sets_it(preset, pinned):
    env = {k: v for k, v in os.environ.items() if k != "MALLOC_MMAP_THRESHOLD_"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cp.__file__))
    if preset is not None:
        env["MALLOC_MMAP_THRESHOLD_"] = preset
    code = "import crossprop._malloc as m; print(m._pinned)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == str(pinned)
