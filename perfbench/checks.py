"""Output-correctness gate applied to every fit the benchmark runs.

A fit passes when its labels are well formed, the reported accuracy equals
the accuracy recomputed from its labels, and the final graph (captured
through ``on_iteration``) keeps the invariants of the full model: rows sum
to one within 1e-12, each block of a row has at most ``k`` nonzeros, and no
source row reaches a source sample of another class.  Bit-for-bit
repeatability across fits is checked by comparing :func:`digest` values.
"""

import hashlib

import numpy as np
import scipy.sparse

ROW_SUM_TOL = 1e-12
ZERO_ROW_MASS = 0.5


class FinalState:
    """``on_iteration`` callback that keeps the last iteration's graph and counts.

    The graph is copied into buffers allocated before the fit.  Holding the
    ``FitState`` itself would keep the previous graph's thousands of small row
    arrays alive while the next one is built, which raised the peak RSS of a
    fit at n = 3000 from 689 MB to 724 MB; copying keeps the measured peak that
    of the library alone.  A row holds at most ``2 k`` entries (two blocks of
    at most ``k``), which sizes the buffers.
    """

    def __init__(self, ds, k):
        n = ds.n_samples
        self.n = n
        self.n_clamped = ds.n_source + ds.n_labeled_target
        self.indptr = np.zeros(n + 1, dtype=np.intp)
        self.cols = np.empty(2 * k * n, dtype=np.intp)
        self.data = np.empty(2 * k * n)
        self.iteration = None
        self.overflow = False
        self.zero_rows = None

    def __call__(self, state):
        self.iteration = state.iteration
        F_free = np.asarray(state.F)[self.n_clamped :]
        self.zero_rows = int(np.count_nonzero(F_free.sum(axis=1) < ZERO_ROW_MASS))
        rows = getattr(state.graph, "rows", state.graph)
        if isinstance(rows, list):
            np.cumsum([cols.size for cols, _ in rows], out=self.indptr[1:])
            nnz = self.indptr[-1]
            self.overflow = nnz > self.cols.size
            if not self.overflow:
                np.concatenate([c for c, _ in rows], out=self.cols[:nnz])
                np.concatenate([w for _, w in rows], out=self.data[:nnz])
            return
        S = scipy.sparse.csr_array(rows if scipy.sparse.issparse(rows) else rows.toarray())
        self.indptr[:] = S.indptr
        self.overflow = S.nnz > self.cols.size
        if not self.overflow:
            self.cols[: S.nnz] = S.indices
            self.data[: S.nnz] = S.data

    def matrix(self):
        nnz = self.indptr[-1]
        return scipy.sparse.csr_array(
            (self.data[:nnz], self.cols[:nnz], self.indptr), shape=(self.n, self.n)
        )


def graph_problems(S, k, source_labels):
    """Broken invariants of the full model's graph ``S`` (CSR, n x n)."""
    problems = []
    n_s = source_labels.size
    if np.any(S.data < 0.0) or not np.all(np.isfinite(S.data)):
        problems.append("graph has negative or non-finite weights")
    row_sums = np.asarray(S.sum(axis=1)).ravel()
    worst = float(np.max(np.abs(row_sums - 1.0)))
    if worst > ROW_SUM_TOL:
        problems.append(f"row sums deviate from 1 by {worst:.3g}")
    blocks = [(S[n_s:, :], "target rows")]
    if n_s:
        blocks += [
            (S[:n_s, :n_s], "source-source block"),
            (S[:n_s, n_s:], "source-target block"),
        ]
    for block, label in blocks:
        most = int(block.count_nonzero(axis=1).max(initial=0))
        if most > k:
            problems.append(f"{label} has a row with {most} > k={k} nonzeros")
    if n_s:
        src = S[:n_s, :n_s].tocoo()
        cross = (source_labels[src.row] != source_labels[src.col]) & (src.data != 0.0)
        crossing = int(np.count_nonzero(cross))
        if crossing:
            problems.append(f"{crossing} source edges cross classes")
    return problems


def inspect_fit(ds, params, report, final):
    """Check one fit's output and count its final graph and soft labels.

    ``final`` is the :class:`FinalState` passed as the fit's ``on_iteration``.
    Returns ``(problems, counts)``: ``problems`` lists every broken invariant
    and is empty when the fit passes; ``counts`` is empty when the final
    iteration's graph was not captured.
    """
    n_l = ds.n_labeled_target
    labels = np.asarray(report.target_labels)
    if labels.shape != (ds.n_target,):
        return [f"target_labels has shape {labels.shape}, expected ({ds.n_target},)"], {}
    problems = []
    if labels.min() < 0 or labels.max() >= ds.n_classes:
        problems.append("target_labels outside [0, n_classes)")
    if not np.array_equal(labels[:n_l], ds.labeled_target_labels):
        problems.append("labeled target prefix was not passed through")
    recomputed = float(np.mean(labels[n_l:] == ds.hidden_target_labels[n_l:]))
    if report.accuracy != recomputed:
        problems.append(f"reported accuracy {report.accuracy} != recomputed {recomputed}")
    if final.iteration != report.iterations:
        return problems + ["on_iteration did not see the final iteration"], {}
    if final.overflow:
        return problems + [f"graph has more than 2k={2 * params.k} entries per row"], {}
    S = final.matrix()
    problems += graph_problems(S, params.k, np.asarray(ds.source_labels))
    nnz = int(S.count_nonzero())
    counts = {
        "graph.nnz": nnz,
        "graph.cost_entries_per_edge": ds.n_samples**2 / nnz,
        "propagation.free_rows": ds.n_samples - final.n_clamped,
        "propagation.zero_rows": final.zero_rows,
    }
    return problems, counts


def digest(report):
    """Hash of the labels and objective trace; equal digests mean bit-identical fits."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(report.target_labels, dtype=np.int64).tobytes())
    h.update(np.asarray(report.objective_trace, dtype=np.float64).tobytes())
    return h.hexdigest()
