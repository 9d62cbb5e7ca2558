"""The three workloads of the fit benchmark.

Every workload is one fixed problem instance, drawn with generator seed 0,
and the benchmark's ``--seed`` only permutes the sample order inside each of
the three column blocks (source, labeled target, unlabeled target).  The solver
is equivariant under such a permutation, so each seed hands the program
different input bytes while the work -- iteration count, graph sizes,
accuracy -- stays that of the instance.  Seed 0 keeps the generator's own
order, which is the instance the ROADMAP baseline table was measured on.

Drawing a fresh instance per seed instead moves the iteration count between
3 and 5 and the accuracy between 0.72 and 0.97 on ``uda-900`` (generator
seeds 0-9), which would swamp every bound the benchmark sets.

Every ``HyperParams`` field is pinned, ``d`` included, so a later change of
a default cannot silently change a workload.
"""

from dataclasses import dataclass

import numpy as np

import crossprop as cp


@dataclass(frozen=True)
class Workload:
    name: str
    per_class: int
    n_classes: int
    dim: int
    rotation_deg: float
    labeled_per_class: int
    params: cp.HyperParams
    shift: tuple = (2.0, 1.0)
    noise_scale: float = 0.1


def _params(mode, d):
    return cp.HyperParams(
        alpha=1.0,
        beta=0.1,
        gamma=0.1,
        d=d,
        k=20,
        delta=0.8,
        iterations=10,
        mode=mode,
        ablation="full",
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="uda-900",
            per_class=150,
            n_classes=3,
            dim=10,
            rotation_deg=35.0,
            labeled_per_class=0,
            params=_params("uda", 6),
        ),
        Workload(
            name="uda-3000",
            per_class=500,
            n_classes=3,
            dim=10,
            rotation_deg=35.0,
            labeled_per_class=0,
            params=_params("uda", 6),
        ),
        Workload(
            name="sda-wide",
            per_class=90,
            n_classes=10,
            dim=800,
            rotation_deg=10.0,
            labeled_per_class=3,
            params=_params("sda", 20),
        ),
    )
}


def permute_blocks(ds, seed):
    """``ds`` with its columns shuffled inside each block; seed 0 is the identity."""
    if seed == 0:
        return ds
    rng = np.random.default_rng(seed)
    n_s, n_l = ds.n_source, ds.n_labeled_target
    blocks, start = [], 0
    for size in (n_s, n_l, ds.n_unlabeled_target):
        blocks.append(start + rng.permutation(size))
        start += size
    order = np.concatenate(blocks)
    target = order[n_s:] - n_s
    features = np.empty_like(ds.features)  # keeps the generator's memory layout
    features[...] = ds.features[:, order]
    return cp.Dataset(
        features=features,
        n_source=n_s,
        n_labeled_target=n_l,
        n_unlabeled_target=ds.n_unlabeled_target,
        source_labels=ds.source_labels[order[:n_s]],
        labeled_target_labels=ds.labeled_target_labels[target[:n_l]],
        n_classes=ds.n_classes,
        hidden_target_labels=ds.hidden_target_labels[target],
    )


def make_dataset(workload, order_seed, tracer):
    """Generate the workload's instance and apply the seed's sample order."""
    with tracer.span("data.gen_synthetic_shift"):
        ds = cp.gen_synthetic_shift(
            0,
            per_class=workload.per_class,
            n_classes=workload.n_classes,
            rotation_deg=workload.rotation_deg,
            shift=workload.shift,
            dim=workload.dim,
            noise_scale=workload.noise_scale,
        )
    if workload.labeled_per_class:
        with tracer.span("data.with_labeled_targets"):
            ds = cp.with_labeled_targets(ds, workload.labeled_per_class)
    with tracer.span("bench.permute_blocks"):
        return permute_blocks(ds, order_seed)


def nearest_neighbor_accuracy(ds, tracer):
    """Source-only 1-NN accuracy on the unlabeled target block."""
    n_s, n_l = ds.n_source, ds.n_labeled_target
    with tracer.span("baselines.nearest_neighbor"):
        predicted = cp.nearest_neighbor(
            ds.features[:, :n_s], ds.source_labels, ds.features[:, n_s + n_l :]
        )
    return cp.accuracy(predicted, ds.hidden_target_labels[n_l:])
