"""Dataset model, file formats, metric, and the synthetic generator."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import crossprop as cp
from crossprop import Dataset, HyperParams
from crossprop.data import (
    load_features_csv,
    load_labels_csv,
    load_matrix_binary,
    save_features_csv,
    save_labels_csv,
    save_matrix_binary,
)
from crossprop.exceptions import ArgumentError, LabelError, ParseError, ShapeError


class TestDatasetInvariants:
    def test_minimal_valid_dataset(self, rng):
        ds = Dataset(
            features=rng.standard_normal((3, 4)),
            n_source=2,
            n_labeled_target=0,
            n_unlabeled_target=2,
            source_labels=[0, 1],
            n_classes=2,
        )
        assert ds.n_samples == 4
        assert ds.n_features == 3
        assert ds.n_target == 2

    def test_column_count_must_match_split(self, rng):
        with pytest.raises(ShapeError):
            Dataset(
                features=rng.standard_normal((3, 5)),
                n_source=2,
                n_labeled_target=0,
                n_unlabeled_target=2,
                source_labels=[0, 1],
                n_classes=2,
            )

    def test_every_class_needs_source_support(self, rng):
        with pytest.raises(LabelError):
            Dataset(
                features=rng.standard_normal((3, 4)),
                n_source=2,
                n_labeled_target=0,
                n_unlabeled_target=2,
                source_labels=[0, 0],
                n_classes=2,
            )

    def test_out_of_range_label_rejected(self, rng):
        with pytest.raises(LabelError):
            Dataset(
                features=rng.standard_normal((3, 4)),
                n_source=2,
                n_labeled_target=0,
                n_unlabeled_target=2,
                source_labels=[0, 2],
                n_classes=2,
            )

    def test_non_finite_features_rejected(self):
        bad = np.ones((2, 3))
        bad[1, 2] = np.nan
        with pytest.raises(ParseError):
            Dataset(
                features=bad,
                n_source=2,
                n_labeled_target=0,
                n_unlabeled_target=1,
                source_labels=[0, 1],
                n_classes=2,
            )

    @pytest.mark.parametrize(
        "labels",
        [
            dict(source_labels=[0.2, 0.9, 1.5, 1.99]),
            dict(source_labels=[0, 1, 0, np.nan]),
            dict(source_labels=[0, 1, 0, 1], hidden_target_labels=[0.5, 1.0]),
        ],
    )
    def test_non_integral_labels_rejected(self, rng, labels):
        # [0.2, 0.9, 1.5, 1.99] used to be stored as [0, 0, 1, 1].
        with pytest.raises(LabelError):
            Dataset(
                features=rng.standard_normal((3, 6)),
                n_source=4,
                n_labeled_target=0,
                n_unlabeled_target=2,
                n_classes=2,
                **labels,
            )

    def test_integral_float_labels_accepted(self, rng):
        ds = Dataset(
            features=rng.standard_normal((3, 6)),
            n_source=4,
            n_labeled_target=0,
            n_unlabeled_target=2,
            source_labels=[0.0, 1.0, 1.0, 0.0],
            n_classes=2,
            hidden_target_labels=np.array([1.0, 0.0]),
        )
        npt.assert_array_equal(ds.source_labels, [0, 1, 1, 0], strict=False)
        assert ds.source_labels.dtype == int
        assert ds.hidden_target_labels.dtype == int

    def test_hidden_labels_length_checked(self, rng):
        with pytest.raises(ShapeError):
            Dataset(
                features=rng.standard_normal((3, 4)),
                n_source=2,
                n_labeled_target=0,
                n_unlabeled_target=2,
                source_labels=[0, 1],
                n_classes=2,
                hidden_target_labels=[0],
            )

    @pytest.mark.parametrize("hidden", [[0, -1], [7, 1]])
    def test_hidden_labels_outside_the_classes_rejected(self, rng, hidden):
        with pytest.raises(LabelError):
            Dataset(
                features=rng.standard_normal((3, 5)),
                n_source=3,
                n_labeled_target=0,
                n_unlabeled_target=2,
                source_labels=[0, 1, 2],
                n_classes=3,
                hidden_target_labels=hidden,
            )

    def test_fields_cannot_be_assigned_after_the_checks(self, rng):
        # Assigning a field skipped every check, so out-of-range hidden
        # labels were scored.
        ds = Dataset(
            features=rng.standard_normal((3, 5)),
            n_source=3,
            n_labeled_target=0,
            n_unlabeled_target=2,
            source_labels=[0, 1, 2],
            n_classes=3,
            hidden_target_labels=[0, 1],
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.hidden_target_labels = np.array([-1, 7])
        with pytest.raises(LabelError):
            dataclasses.replace(ds, hidden_target_labels=np.array([-1, 7]))
        npt.assert_array_equal(ds.hidden_target_labels, [0, 1])

    @pytest.mark.parametrize(
        "name, index",
        [
            ("features", (0, 0)),
            ("source_labels", 0),
            ("labeled_target_labels", 0),
            ("hidden_target_labels", 0),
        ],
    )
    def test_arrays_cannot_be_written_after_the_checks(self, rng, name, index):
        # ``ds.features[0, 0] = 1.0`` silently changed a checked dataset,
        # and a label write could put a label outside the classes.
        features = rng.standard_normal((3, 5))
        ds = Dataset(
            features=features,
            n_source=3,
            n_labeled_target=1,
            n_unlabeled_target=1,
            source_labels=np.array([0, 1, 2]),
            labeled_target_labels=np.array([1]),
            n_classes=3,
            hidden_target_labels=np.array([1, 2]),
        )
        array = getattr(ds, name)
        before = array.copy()
        with pytest.raises(ValueError, match="read-only"):
            array[index] = 7
        npt.assert_array_equal(array, before)
        # A view, not a copy: the caller's own array is not frozen.
        assert np.shares_memory(ds.features, features)
        features[0, 0] = 1.0
        assert ds.features[0, 0] == 1.0


class TestHyperParams:
    def test_defaults(self):
        params = HyperParams()
        assert params.alpha == 1.0
        assert params.beta == 0.1
        assert params.gamma == 0.1
        assert params.k == 20
        assert params.delta == 0.8
        assert params.iterations == 10
        assert params.mode == "uda"
        assert params.ablation == "full"

    def test_projected_dimension_default(self, rng):
        ds = Dataset(
            features=rng.standard_normal((10, 6)),
            n_source=3,
            n_labeled_target=0,
            n_unlabeled_target=3,
            source_labels=[0, 1, 2],
            n_classes=3,
        )
        assert HyperParams().resolve_d(ds) == 6
        assert HyperParams(d=2).resolve_d(ds) == 2
        narrow = Dataset(
            features=rng.standard_normal((4, 6)),
            n_source=3,
            n_labeled_target=0,
            n_unlabeled_target=3,
            source_labels=[0, 1, 2],
            n_classes=3,
        )
        assert HyperParams().resolve_d(narrow) == 4


class TestOneHot:
    def test_basic(self):
        npt.assert_array_equal(cp.one_hot([0, 2], 3), [[1, 0, 0], [0, 0, 1]])

    def test_empty(self):
        assert cp.one_hot([], 2).shape == (0, 2)

    def test_repeated_label(self):
        npt.assert_array_equal(cp.one_hot([1, 1, 1], 2), [[0, 1]] * 3)

    def test_out_of_range(self):
        with pytest.raises(LabelError):
            cp.one_hot([2], 2)

    def test_non_integral_label_rejected(self):
        # [0.0, 1.9] used to encode classes 0 and 1.
        with pytest.raises(LabelError):
            cp.one_hot([0.0, 1.9], 2)

    def test_integral_float_labels_accepted(self):
        npt.assert_array_equal(cp.one_hot([0.0, 1.0], 2), [[1, 0], [0, 1]])

    def test_rows_sum_to_one(self, rng):
        labels = rng.integers(0, 5, size=40)
        F = cp.one_hot(labels, 5)
        npt.assert_array_equal(F.sum(axis=1), np.ones(40))


class TestAccuracy:
    def test_perfect(self):
        assert cp.accuracy([1, 0, 2], [1, 0, 2]) == 1.0

    def test_complement(self):
        assert cp.accuracy([1, 0, 1], [0, 1, 0]) == 0.0

    def test_hand_count(self):
        assert cp.accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            cp.accuracy([0, 1], [0, 1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            cp.accuracy([], [])

    @pytest.mark.parametrize(
        "predicted, truth", [([0.9, 1.2], [0, 1]), ([0, 1], [0.0, np.inf])]
    )
    def test_non_integral_labels_rejected(self, predicted, truth):
        # [0.9, 1.2] against [0, 1] used to score 1.0.
        with pytest.raises(LabelError):
            cp.accuracy(predicted, truth)

    def test_integral_float_labels_accepted(self):
        assert cp.accuracy([0.0, 1.0], [0, 0]) == 0.5


def _label_consumers(tmp_path):
    """Each library call that takes 4 labels of classes {0, 1}, keyed by name."""
    Z = np.random.default_rng(5).standard_normal((2, 8))
    cost = cp.affinity_cost(Z, None, 0.0)
    csv = tmp_path / "labels.csv"

    def saved(labels):
        save_labels_csv(csv, labels)
        return csv.read_text()

    return {
        "build_graph": lambda y: cp.build_graph(cost, 2, 0.8, y).toarray(),
        "affinity_cost": lambda y: cp.affinity_cost(Z, None, 0.0, source_labels=y),
        "nearest_neighbor": lambda y: cp.nearest_neighbor(Z[:, :4], y, Z[:, 4:]),
        "conditional_mmd_source": lambda y: cp.conditional_mmd(y, [0, 1], 2),
        "conditional_mmd_target": lambda y: cp.conditional_mmd([0, 1], y, 2),
        "discrepancy_factor_source": lambda y: cp.discrepancy_factor(y, [0, 1], 2),
        "discrepancy_factor_target": lambda y: cp.discrepancy_factor([0, 1], y, 2),
        "save_labels_csv": saved,
    }


LABEL_CONSUMERS = [
    "build_graph",
    "affinity_cost",
    "nearest_neighbor",
    "conditional_mmd_source",
    "conditional_mmd_target",
    "discrepancy_factor_source",
    "discrepancy_factor_target",
    "save_labels_csv",
]


class TestLabelConsumers:
    """Every call that takes class labels rejects non-integral ones, as ``Dataset`` does."""

    @pytest.mark.parametrize("name", LABEL_CONSUMERS)
    def test_non_integral_labels_rejected(self, tmp_path, name):
        # Each of these used to truncate [0.2, 0.9, 1.5, 1.99] to [0, 0, 1, 1].
        with pytest.raises(LabelError):
            _label_consumers(tmp_path)[name]([0.2, 0.9, 1.5, 1.99])

    @pytest.mark.parametrize("name", LABEL_CONSUMERS)
    def test_two_dimensional_labels_rejected(self, tmp_path, name):
        # conditional_mmd, discrepancy_factor and build_graph used to read
        # these as four labels, affinity_cost raised IndexError and
        # save_labels_csv TypeError.
        with pytest.raises(ShapeError):
            _label_consumers(tmp_path)[name]([[0, 0], [1, 1]])

    @pytest.mark.parametrize("name", LABEL_CONSUMERS)
    def test_integral_float_labels_accepted(self, tmp_path, name):
        call = _label_consumers(tmp_path)[name]
        npt.assert_array_equal(call([0.0, 0.0, 1.0, 1.0]), call([0, 0, 1, 1]))


class TestZscore:
    def test_rows_standardized(self, rng):
        X = rng.standard_normal((4, 50)) * [[2.0], [0.5], [10.0], [1.0]] + 3.0
        Z = cp.zscore(X)
        npt.assert_allclose(Z.mean(axis=1), 0.0, atol=1e-12)
        npt.assert_allclose(Z.std(axis=1), 1.0, atol=1e-12)

    def test_constant_row_stays_finite(self):
        X = np.vstack([np.full(5, 7.0), np.arange(5.0)])
        Z = cp.zscore(X)
        npt.assert_array_equal(Z[0], np.zeros(5))
        assert np.all(np.isfinite(Z))


class TestBinaryMatrixFormat:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        M = rng.standard_normal((7, 5))
        path = tmp_path / "m.bin"
        save_matrix_binary(path, M)
        out = load_matrix_binary(path)
        assert np.array_equal(out, M)
        assert out.dtype == np.float64

    def test_header_layout(self, rng, tmp_path):
        M = rng.standard_normal((2, 3))
        path = tmp_path / "m.bin"
        save_matrix_binary(path, M)
        raw = path.read_bytes()
        assert raw[:8] == b"CDGSMAT1"
        assert int.from_bytes(raw[8:16], "little") == 2
        assert int.from_bytes(raw[16:24], "little") == 3
        assert len(raw) == 24 + 2 * 3 * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 24)
        with pytest.raises(ParseError):
            load_matrix_binary(path)

    def test_truncated_payload(self, rng, tmp_path):
        path = tmp_path / "m.bin"
        save_matrix_binary(path, rng.standard_normal((4, 4)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ParseError):
            load_matrix_binary(path)

    def test_one_dimensional_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            save_matrix_binary(tmp_path / "m.bin", np.arange(4.0))


class TestFeaturesCsv:
    def test_round_trip_to_twelve_digits(self, rng, tmp_path):
        M = rng.standard_normal((6, 4)) * 10.0 ** rng.integers(-6, 6, size=(6, 4))
        path = tmp_path / "f.csv"
        save_features_csv(path, M)
        out = load_features_csv(path)
        npt.assert_allclose(out, M, rtol=1e-11, atol=0.0)

    def test_header_format(self, rng, tmp_path):
        path = tmp_path / "f.csv"
        save_features_csv(path, rng.standard_normal((2, 3)))
        assert path.read_text().splitlines()[0] == "f0,f1,f2"

    def test_nan_token_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("f0,f1\n1.0,NaN\n")
        with pytest.raises(ParseError):
            load_features_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("f0,f1\n1.0,2.0\n3.0\n")
        with pytest.raises(ShapeError):
            load_features_csv(path)

    def test_bad_token_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("f0\nhello\n")
        with pytest.raises(ParseError):
            load_features_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ParseError):
            load_features_csv(path)

    def test_header_only_is_an_empty_matrix_of_its_width(self, tmp_path):
        # It used to load as a 1-D empty array.
        path = tmp_path / "f.csv"
        path.write_text("f0,f1,f2\n")
        out = load_features_csv(path)
        assert out.shape == (0, 3)

    def test_non_utf8_file_rejected_by_path(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"f0,f1\n1.0,\xff\n")
        with pytest.raises(ParseError, match="f.csv"):
            load_features_csv(path)


class TestLabelsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "y.csv"
        save_labels_csv(path, [2, 0, 1])
        npt.assert_array_equal(load_labels_csv(path), [2, 0, 1])

    def test_header_required(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("0\n1\n")
        with pytest.raises(ParseError):
            load_labels_csv(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("label\n1.5\n")
        with pytest.raises(ParseError):
            load_labels_csv(path)

    def test_non_utf8_file_rejected_by_path(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_bytes(b"label\n\xe9\n")
        with pytest.raises(ParseError, match="y.csv"):
            load_labels_csv(path)


class TestLoadDataset:
    def _write(self, tmp_path, samples, labels):
        f = tmp_path / "f.csv"
        y = tmp_path / "y.csv"
        save_features_csv(f, samples)
        save_labels_csv(y, labels)
        return f, y

    def test_minimal_round_trip(self, rng, tmp_path):
        samples = rng.standard_normal((4, 3))
        f, y = self._write(tmp_path, samples, [0, 1])
        ds = cp.load_dataset(f, y, 2, 0, 2, standardize=False)
        assert ds.n_samples == 4
        assert ds.n_source == 2
        assert ds.n_classes == 2
        npt.assert_allclose(ds.features, samples.T, rtol=1e-11)

    def test_standardize_default_on(self, rng, tmp_path):
        samples = 5.0 + 3.0 * rng.standard_normal((10, 2))
        f, y = self._write(tmp_path, samples, [0, 1])
        ds = cp.load_dataset(f, y, 2, 0, 8)
        npt.assert_allclose(ds.features.mean(axis=1), 0.0, atol=1e-9)
        npt.assert_allclose(ds.features.std(axis=1), 1.0, atol=1e-9)

    def test_label_count_mismatch(self, rng, tmp_path):
        f, y = self._write(tmp_path, rng.standard_normal((3, 2)), [0, 1])
        with pytest.raises(ShapeError):
            cp.load_dataset(f, y, 3, 0, 0)

    @pytest.mark.parametrize("n", [0, 3])
    def test_sample_count_is_checked_before_standardizing(self, rng, tmp_path, n):
        # Header-only features used to reach zscore as a 1-D array (AxisError).
        f, y = self._write(tmp_path, rng.standard_normal((n, 2)), [0, 1])
        with pytest.raises(ShapeError, match=f"features file has {n} samples"):
            cp.load_dataset(f, y, 2, 0, 2)

    def test_binary_features_accepted(self, rng, tmp_path):
        samples = rng.standard_normal((4, 3))
        fbin = tmp_path / "f.bin"
        save_matrix_binary(fbin, samples)
        ylab = tmp_path / "y.csv"
        save_labels_csv(ylab, [0, 1])
        ds = cp.load_dataset(fbin, ylab, 2, 0, 2, standardize=False)
        npt.assert_array_equal(ds.features, samples.T)

    def test_explicit_class_count(self, rng, tmp_path):
        f, y = self._write(tmp_path, rng.standard_normal((4, 2)), [0, 1])
        ds = cp.load_dataset(f, y, 2, 0, 2, n_classes=2, standardize=False)
        assert ds.n_classes == 2


class TestSyntheticShift:
    def test_same_seed_is_bitwise_identical(self):
        a = cp.gen_synthetic_shift(11, per_class=10)
        b = cp.gen_synthetic_shift(11, per_class=10)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.source_labels, b.source_labels)
        assert np.array_equal(a.hidden_target_labels, b.hidden_target_labels)

    def test_different_seed_differs(self):
        a = cp.gen_synthetic_shift(1, per_class=10)
        b = cp.gen_synthetic_shift(2, per_class=10)
        assert not np.array_equal(a.features, b.features)

    def test_identity_transform_aligns_class_means(self):
        ds = cp.gen_synthetic_shift(
            3, per_class=200, n_classes=3, rotation_deg=0.0, shift=(0.0, 0.0)
        )
        src = ds.features[:, : ds.n_source]
        tgt = ds.features[:, ds.n_source :]
        for c in range(3):
            m_s = src[:, ds.source_labels == c].mean(axis=1)
            m_t = tgt[:, ds.hidden_target_labels == c].mean(axis=1)
            assert np.linalg.norm(m_s - m_t) <= 0.5

    def test_shift_degrades_nearest_neighbor(self):
        # Pinned on the deterministic seed-0 draw: the rotated-and-shifted
        # problem costs the source-trained 1-NN 12.33 accuracy points
        # relative to the unshifted control.
        def nn_acc(ds):
            pred = cp.nearest_neighbor(
                ds.features[:, : ds.n_source],
                ds.source_labels,
                ds.features[:, ds.n_source :],
            )
            return cp.accuracy(pred, ds.hidden_target_labels)

        shifted = cp.gen_synthetic_shift(
            0, per_class=100, n_classes=3, rotation_deg=30.0, shift=(1.0, 1.0)
        )
        control = cp.gen_synthetic_shift(
            0, per_class=100, n_classes=3, rotation_deg=0.0, shift=(0.0, 0.0)
        )
        acc_shifted = nn_acc(shifted)
        acc_control = nn_acc(control)
        assert acc_shifted < acc_control
        assert acc_shifted == pytest.approx(0.873333, abs=1e-4)
        assert acc_control == pytest.approx(0.996667, abs=1e-4)

    def test_block_layout(self):
        ds = cp.gen_synthetic_shift(5, per_class=7, n_classes=4, dim=6)
        assert ds.n_source == 28
        assert ds.n_unlabeled_target == 28
        assert ds.n_labeled_target == 0
        assert ds.n_features == 6
        npt.assert_array_equal(ds.source_labels, np.repeat(np.arange(4), 7))

    def test_full_length_shift_vector(self):
        ds = cp.gen_synthetic_shift(5, per_class=5, dim=4, shift=(1.0, 2.0, 3.0, 4.0))
        assert ds.n_features == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(per_class=1),
            dict(n_classes=1),
            dict(dim=1),
            dict(shift=(1.0, 2.0, 3.0)),
            dict(per_class=2.5),
            dict(n_classes=3.5),
            dict(dim=2.5),
            dict(rotation_deg=np.nan),
            dict(noise_scale=np.nan),
            dict(shift=(np.inf, 1.0)),
            dict(noise_scale=-0.1),
            dict(seed=-1),
            dict(seed=1.5),
            dict(seed=None),
        ],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ArgumentError):
            cp.gen_synthetic_shift(**{"seed": 0, **kwargs})


class TestWithLabeledTargets:
    def test_moves_labels_to_front(self):
        ds = cp.gen_synthetic_shift(2, per_class=10, n_classes=3)
        sda = cp.with_labeled_targets(ds, 2)
        assert sda.n_labeled_target == 6
        assert sda.n_unlabeled_target == ds.n_target - 6
        npt.assert_array_equal(sda.labeled_target_labels, [0, 0, 1, 1, 2, 2])
        npt.assert_array_equal(sda.hidden_target_labels[:6], sda.labeled_target_labels)

    def test_columns_are_permuted_not_altered(self):
        ds = cp.gen_synthetic_shift(2, per_class=10, n_classes=3)
        sda = cp.with_labeled_targets(ds, 2)
        original = {tuple(col) for col in ds.features.T}
        permuted = {tuple(col) for col in sda.features.T}
        assert original == permuted

    def test_requires_hidden_truth(self, rng):
        ds = Dataset(
            features=rng.standard_normal((3, 4)),
            n_source=2,
            n_labeled_target=0,
            n_unlabeled_target=2,
            source_labels=[0, 1],
            n_classes=2,
        )
        with pytest.raises(ArgumentError):
            cp.with_labeled_targets(ds, 1)

    def test_too_few_members_rejected(self):
        ds = cp.gen_synthetic_shift(2, per_class=3, n_classes=2)
        with pytest.raises(ArgumentError):
            cp.with_labeled_targets(ds, 4)

    @pytest.mark.parametrize("per_class", [0, -1, 2.5, 2.0, True])
    def test_per_class_must_be_a_positive_integer(self, per_class):
        # -1 used to label all but the last target of each class through
        # ``members[:-1]``, and 2.5 raised a bare TypeError.
        ds = cp.gen_synthetic_shift(0, per_class=10)
        with pytest.raises(ArgumentError):
            cp.with_labeled_targets(ds, per_class)
