"""Dataset model, file formats and synthetic benchmark generation.

In-memory convention
--------------------
A feature matrix has shape ``(n_features, n_samples)``: column ``j`` is one
sample.  Columns are ordered source first, then labeled target, then
unlabeled target.  On disk both supported formats are sample-major (one row
per sample); loaders transpose into the in-memory layout.

File formats
------------
* Features CSV: header ``f0,f1,...,f{m-1}``, then one comma-separated row of
  floats per sample.  Written with 12 significant digits.
* Labels CSV: header ``label``, then one integer per row covering the labeled
  prefix (source samples, then labeled target samples if any).
* Binary matrix: 8-byte magic ``CDGSMAT1``, two little-endian ``uint64``
  giving rows and columns, then ``rows * cols`` little-endian ``float64``
  values in row-major order.  Round-trips bit-exactly.

Randomness is drawn exclusively from ``numpy.random.default_rng`` (the PCG64
generator), which is seedable and produces identical streams across
platforms.
"""

import numbers
import struct
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ArgumentError, LabelError, ParseError, ShapeError
from .linalg import gather_columns

MATRIX_MAGIC = b"CDGSMAT1"
CSV_FLOAT_FMT = "%.12g"


@dataclass(frozen=True)
class Dataset:
    """A cross-domain sample collection.

    The fields are checked once, at construction, so they cannot be
    assigned afterwards; :func:`dataclasses.replace` builds a checked copy.
    The arrays are held as read-only views, so writing into
    ``ds.features`` or a label array raises instead of changing a checked
    dataset.  A view copies nothing, so the caller's own array, if it was
    used as given, is not frozen: writing into it still changes the
    dataset.

    Parameters
    ----------
    features : ndarray of shape (m, n)
        All samples as columns: ``n = n_source + n_labeled_target +
        n_unlabeled_target`` in that column order.
    n_source, n_labeled_target, n_unlabeled_target : int
        Sizes of the three column blocks.
    source_labels : ndarray of shape (n_source,)
        Integer class labels of the source samples.
    labeled_target_labels : ndarray of shape (n_labeled_target,)
        Labels of the labeled target prefix (empty in the unsupervised case).
    n_classes : int
        Number of classes ``C``; labels live in ``[0, C)``.
    hidden_target_labels : ndarray of shape (n_target,), optional
        Ground-truth labels of all target samples, used only for scoring.
    """

    features: np.ndarray
    n_source: int
    n_labeled_target: int
    n_unlabeled_target: int
    source_labels: np.ndarray
    labeled_target_labels: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=int)
    )
    n_classes: int = 0
    hidden_target_labels: np.ndarray | None = None

    def __post_init__(self):
        # The dataclass is frozen, so the checked values are set this way.
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        if self.n_classes <= 0:
            raise LabelError("n_classes must be positive")
        object.__setattr__(
            self, "source_labels", _as_labels(self.source_labels, self.n_classes)
        )
        object.__setattr__(
            self,
            "labeled_target_labels",
            _as_labels(self.labeled_target_labels, self.n_classes),
        )
        if self.features.ndim != 2:
            raise ShapeError("features must be a 2-D matrix")
        if not np.all(np.isfinite(self.features)):
            raise ParseError("features contain non-finite values")
        if self.n_unlabeled_target < 1:
            raise ShapeError("at least one unlabeled target sample is required")
        n = self.n_source + self.n_labeled_target + self.n_unlabeled_target
        if self.features.shape[1] != n:
            raise ShapeError(
                f"features have {self.features.shape[1]} columns, "
                f"split declares {n} samples"
            )
        if self.source_labels.shape != (self.n_source,):
            raise ShapeError("source_labels length must equal n_source")
        if self.labeled_target_labels.shape != (self.n_labeled_target,):
            raise ShapeError("labeled_target_labels length must equal n_labeled_target")
        counts = np.bincount(self.source_labels, minlength=self.n_classes)
        if np.any(counts == 0):
            empty = int(np.flatnonzero(counts == 0)[0])
            raise LabelError(f"source class {empty} has no samples")
        if self.hidden_target_labels is not None:
            object.__setattr__(
                self,
                "hidden_target_labels",
                _as_labels(self.hidden_target_labels, self.n_classes),
            )
            if self.hidden_target_labels.shape != (self.n_target,):
                raise ShapeError("hidden_target_labels length must equal n_target")
        for name in (
            "features",
            "source_labels",
            "labeled_target_labels",
            "hidden_target_labels",
        ):
            array = getattr(self, name)
            if array is not None:
                view = array.view()
                view.flags.writeable = False
                object.__setattr__(self, name, view)

    @property
    def n_samples(self):
        return self.features.shape[1]

    @property
    def n_features(self):
        return self.features.shape[0]

    @property
    def n_target(self):
        return self.n_labeled_target + self.n_unlabeled_target


@dataclass
class HyperParams:
    """Hyper-parameters of the joint solver.

    ``alpha``, ``k``, ``delta`` and ``iterations`` have fixed recommended
    values; ``beta`` and ``gamma`` are the tunable regularizers.  ``d`` is
    the projected dimension and defaults to ``min(2 * n_classes, m)`` when
    left as ``None``.
    """

    alpha: float = 1.0
    beta: float = 0.1
    gamma: float = 0.1
    d: int | None = None
    k: int = 20
    delta: float = 0.8
    iterations: int = 10
    mode: str = "uda"
    ablation: str = "full"

    def resolve_d(self, dataset):
        """Concrete projected dimension for ``dataset``."""
        if self.d is not None:
            return self.d
        return min(2 * dataset.n_classes, dataset.n_features)


def _as_labels(labels, n_classes=None):
    """``labels`` as a 1-D ``int`` array, rejecting non-integral values.

    Integral floats such as ``1.0`` pass; ``1.5`` or ``nan`` raise
    :class:`LabelError` instead of being truncated to a class.  An array of
    any other rank raises :class:`ShapeError`, and with ``n_classes`` given,
    a label outside ``[0, n_classes)`` raises :class:`LabelError`.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be a 1-D array, not {labels.ndim}-D")
    if labels.dtype.kind == "f" and not np.all(
        np.isfinite(labels) & (labels == np.round(labels))
    ):
        raise LabelError("labels must be integers")
    labels = labels.astype(int, copy=False)
    if n_classes is not None and labels.size:
        if labels.min() < 0 or labels.max() >= n_classes:
            raise LabelError("labels must lie in [0, n_classes)")
    return labels


def one_hot(labels, n_classes):
    """Encode integer labels as one-hot rows of shape ``(len(labels), n_classes)``."""
    labels = _as_labels(labels, n_classes)
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def accuracy(predicted, truth):
    """Fraction of positions where ``predicted == truth``."""
    predicted = _as_labels(predicted)
    truth = _as_labels(truth)
    if predicted.shape != truth.shape:
        raise ShapeError("prediction and truth must be 1-D arrays of equal length")
    if predicted.size == 0:
        raise ShapeError("cannot score empty label arrays")
    return float(np.mean(predicted == truth))


def zscore(features):
    """Standardize each feature (row) to zero mean and unit variance.

    Constant features are centred and left at zero rather than divided by a
    zero standard deviation.
    """
    features = np.asarray(features, dtype=float)
    mean = features.mean(axis=1, keepdims=True)
    std = features.std(axis=1, keepdims=True)
    std[std == 0.0] = 1.0
    return (features - mean) / std


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def save_matrix_binary(path, matrix):
    """Write ``matrix`` in the binary matrix format (see module docstring)."""
    matrix = np.ascontiguousarray(matrix, dtype="<f8")
    if matrix.ndim != 2:
        raise ShapeError("binary matrix format stores 2-D matrices only")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<QQ", matrix.shape[0], matrix.shape[1]))
        fh.write(matrix.tobytes())


def load_matrix_binary(path):
    """Read a matrix written by :func:`save_matrix_binary`."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MATRIX_MAGIC:
            raise ParseError(f"{path}: bad magic {magic!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise ParseError(f"{path}: truncated header")
        rows, cols = struct.unpack("<QQ", header)
        payload = fh.read()
    expected = rows * cols * 8
    if len(payload) != expected:
        raise ParseError(
            f"{path}: expected {expected} payload bytes, found {len(payload)}"
        )
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


def save_features_csv(path, samples):
    """Write a sample-major ``(n, m)`` matrix as a features CSV."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ShapeError("features CSV stores 2-D matrices only")
    header = ",".join(f"f{j}" for j in range(samples.shape[1]))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in samples:
            fh.write(",".join(CSV_FLOAT_FMT % v for v in row) + "\n")


def _text_lines(path):
    """The stripped non-blank lines of a UTF-8 text file; :class:`ParseError` if not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc


def load_features_csv(path):
    """Read a features CSV into a sample-major ``(n, m)`` float matrix; ``n`` may be 0."""
    lines = _text_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty features file")
    header = lines[0].split(",")
    m = len(header)
    if header != [f"f{j}" for j in range(m)]:
        raise ParseError(f"{path}: malformed features header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != m:
            raise ShapeError(f"{path}:{lineno}: expected {m} fields, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    out = np.array(rows, dtype=float).reshape(-1, m)
    if not np.all(np.isfinite(out)):
        raise ParseError(f"{path}: non-finite feature value")
    return out


def save_labels_csv(path, labels):
    """Write integer labels as a single-column CSV with header ``label``."""
    labels = _as_labels(labels)
    with open(path, "w") as fh:
        fh.write("label\n")
        for v in labels:
            fh.write(f"{int(v)}\n")


def load_labels_csv(path):
    """Read a labels CSV written by :func:`save_labels_csv`."""
    lines = _text_lines(path)
    if not lines or lines[0] != "label":
        raise ParseError(f"{path}: expected 'label' header")
    try:
        return np.array([int(line) for line in lines[1:]], dtype=int)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _load_sample_matrix(path):
    """Load a sample-major matrix from either supported format.

    The binary format is recognised by its magic bytes; anything else is
    parsed as a features CSV.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
    if magic == MATRIX_MAGIC:
        return load_matrix_binary(path)
    return load_features_csv(path)


def load_dataset(
    features_path,
    labels_path,
    n_source,
    n_labeled_target,
    n_unlabeled_target,
    n_classes=None,
    standardize=True,
):
    """Assemble a :class:`Dataset` from a features file and a labels file.

    Parameters
    ----------
    features_path : str
        Features CSV or binary matrix file, sample-major, ordered source
        first, then labeled target, then unlabeled target.
    labels_path : str
        Labels CSV covering the labeled prefix
        (``n_source + n_labeled_target`` rows).
    n_source, n_labeled_target, n_unlabeled_target : int
        Declared block sizes; must add up to the number of samples on disk,
        else :class:`ShapeError` is raised before any standardizing.
    n_classes : int, optional
        Number of classes; inferred as ``max(label) + 1`` when omitted.
    standardize : bool, optional
        Z-score each feature across all samples (default ``True``).
    """
    samples = _load_sample_matrix(features_path)
    labels = load_labels_csv(labels_path)
    n_labeled = n_source + n_labeled_target
    if labels.size != n_labeled:
        raise ShapeError(
            f"labels file has {labels.size} rows, split declares {n_labeled}"
        )
    n = n_labeled + n_unlabeled_target
    if samples.shape[0] != n:
        raise ShapeError(f"features file has {samples.shape[0]} samples, split declares {n}")
    features = samples.T
    if standardize:
        features = zscore(features)
    if n_classes is None:
        if labels.size == 0:
            raise LabelError("cannot infer n_classes from an empty labels file")
        n_classes = int(labels.max()) + 1
    return Dataset(
        features=features,
        n_source=n_source,
        n_labeled_target=n_labeled_target,
        n_unlabeled_target=n_unlabeled_target,
        source_labels=labels[:n_source],
        labeled_target_labels=labels[n_source:],
        n_classes=n_classes,
    )


# ---------------------------------------------------------------------------
# synthetic benchmark
# ---------------------------------------------------------------------------


def _check_count(name, value, least):
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or value < least:
        raise ArgumentError(f"{name}={value!r} must be an integer of at least {least}")


def gen_synthetic_shift(
    seed,
    per_class=100,
    n_classes=3,
    rotation_deg=30.0,
    shift=(1.0, 1.0),
    dim=10,
    noise_scale=0.1,
):
    """Generate a rotated-and-translated Gaussian blob adaptation problem.

    Source samples form ``n_classes`` unit-variance Gaussian blobs whose
    means sit on a circle of radius 4 in the first two coordinates; the
    remaining ``dim - 2`` coordinates carry i.i.d. noise of scale
    ``noise_scale``.  Target samples are drawn from the same blobs, then
    rotated by ``rotation_deg`` in the first two coordinates and translated
    by ``shift``.  True target labels are stored as
    ``hidden_target_labels`` for scoring; the dataset itself is unsupervised
    on the target side.

    Parameters
    ----------
    seed : int
        Seed for the PCG64 generator, at least 0; fixes the dataset exactly.
    per_class : int
        Samples per class in each domain (at least 2).
    n_classes : int
        Number of classes (at least 2).
    rotation_deg : float
        Rotation angle applied to the target domain, in degrees.
    shift : sequence of float
        Translation of the target domain; length 2 (first two coordinates)
        or ``dim``.
    dim : int
        Feature dimension (at least 2).
    noise_scale : float
        Standard deviation of the non-informative coordinates.

    Returns
    -------
    dataset : Dataset

    Raises
    ------
    ArgumentError
        If ``seed`` is not an integer of at least 0, a count is not an
        integer of at least 2, ``rotation_deg`` or ``shift`` is not finite,
        or ``noise_scale`` is negative or not finite.
    """
    _check_count("seed", seed, 0)
    _check_count("per_class", per_class, 2)
    _check_count("n_classes", n_classes, 2)
    _check_count("dim", dim, 2)
    if not np.isfinite(rotation_deg):
        raise ArgumentError(f"rotation_deg={rotation_deg} must be finite")
    if not 0.0 <= noise_scale < np.inf:
        raise ArgumentError(f"noise_scale={noise_scale} must be finite and >= 0")
    shift = np.asarray(shift, dtype=float)
    if shift.shape == (2,):
        shift = np.concatenate([shift, np.zeros(dim - 2)])
    if shift.shape != (dim,):
        raise ArgumentError("shift must have length 2 or dim")
    if not np.all(np.isfinite(shift)):
        raise ArgumentError("shift must be finite")

    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    means = np.zeros((n_classes, dim))
    means[:, 0] = 4.0 * np.cos(angles)
    means[:, 1] = 4.0 * np.sin(angles)

    n = n_classes * per_class
    # Each class block is drawn straight into its rows of ``samples``, the
    # sample-major view of the Fortran-ordered features.
    features = np.empty((dim, 2 * n), order="F")
    samples = features.T
    for domain in (samples[:n], samples[n:]):
        for c in range(n_classes):
            pts = domain[c * per_class : (c + 1) * per_class]
            rng.standard_normal(out=pts)
            pts *= noise_scale
            pts[:, :2] = rng.standard_normal((per_class, 2))
            pts += means[c]
    target = samples[n:]
    theta = np.deg2rad(rotation_deg)
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    target[:, :2] = target[:, :2] @ rot.T
    target += shift

    labels = np.repeat(np.arange(n_classes), per_class)
    return Dataset(
        features=features,
        n_source=n,
        n_labeled_target=0,
        n_unlabeled_target=n,
        source_labels=labels,
        labeled_target_labels=np.empty(0, dtype=int),
        n_classes=n_classes,
        hidden_target_labels=labels.copy(),
    )


def with_labeled_targets(dataset, per_class):
    """Semi-supervised variant of ``dataset`` with ``per_class`` labeled targets.

    The first ``per_class`` target samples of each class (by ground truth)
    move to the front of the target block and become labeled; the remainder
    stay unlabeled.  Requires ``hidden_target_labels`` and a positive
    integer ``per_class``.  The reordered features are gathered once into a
    fresh array that keeps the memory order of ``dataset.features``.
    """
    _check_count("per_class", per_class, 1)
    if dataset.hidden_target_labels is None:
        raise ArgumentError("with_labeled_targets requires hidden_target_labels")
    if dataset.n_labeled_target != 0:
        raise ArgumentError("dataset already has labeled target samples")
    truth = dataset.hidden_target_labels
    picked = []
    for c in range(dataset.n_classes):
        members = np.flatnonzero(truth == c)
        if members.size < per_class:
            raise ArgumentError(f"target class {c} has fewer than {per_class} samples")
        picked.append(members[:per_class])
    picked = np.concatenate(picked)
    rest = np.setdiff1d(np.arange(dataset.n_target), picked)
    order = np.concatenate([picked, rest])
    n_s = dataset.n_source
    columns = np.concatenate([np.arange(n_s), n_s + order])
    features = dataset.features
    return Dataset(
        features=gather_columns(features, columns, np.empty(features.size)),
        n_source=n_s,
        n_labeled_target=picked.size,
        n_unlabeled_target=rest.size,
        source_labels=dataset.source_labels,
        labeled_target_labels=truth[picked],
        n_classes=dataset.n_classes,
        hidden_target_labels=truth[order],
    )
