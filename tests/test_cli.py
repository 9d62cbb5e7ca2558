"""Command-line interface: config parsing, subcommands, exit codes."""

import dataclasses

import numpy as np
import pytest

from crossprop import cli
from crossprop.data import MATRIX_MAGIC, HyperParams, load_labels_csv, save_labels_csv
from crossprop.exceptions import ConfigError, SingularMatrix
from crossprop.solver import FitReport


def write_config(path, table):
    lines = [f"{key} = {value}" for key, value in table.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def synth_files(tmp_path):
    """Small synthetic benchmark written to CSV files."""
    cfg = write_config(
        tmp_path / "synth.cfg",
        {
            "seed": 11,
            "per_class": 12,
            "dim": 6,
            "features": tmp_path / "features.csv",
            "labels": tmp_path / "labels.csv",
            "truth": tmp_path / "truth.csv",
        },
    )
    assert cli.main(["synth", "--config", cfg]) == 0
    return tmp_path


def fit_table(tmp_path, **overrides):
    table = {
        "features": tmp_path / "features.csv",
        "labels": tmp_path / "labels.csv",
        "n_source": 36,
        "n_unlabeled_target": 36,
        "truth": tmp_path / "truth.csv",
        "k": 6,
        "iterations": 5,
        "report": tmp_path / "report.txt",
        "predictions": tmp_path / "predictions.csv",
    }
    table.update(overrides)
    return table


class TestParseConfig:
    def test_comments_blanks_and_whitespace(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# full-line comment\n"
            "\n"
            "  alpha = 1.5  # trailing comment\n"
            "name=bare\n"
        )
        assert cli.parse_config(str(path)) == {"alpha": "1.5", "name": "bare"}

    def test_value_may_contain_equals(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("expr = a=b\n")
        assert cli.parse_config(str(path)) == {"expr": "a=b"}

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("k = 1\nk = 2\n")
        with pytest.raises(ConfigError):
            cli.parse_config(str(path))

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError):
            cli.parse_config(str(path))

    def test_empty_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("= 3\n")
        with pytest.raises(ConfigError):
            cli.parse_config(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.parse_config(str(tmp_path / "absent.cfg"))

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"name = caf\xe9\n")
        with pytest.raises(ConfigError):
            cli.parse_config(str(path))


class TestSynth:
    def test_writes_deterministic_files(self, tmp_path):
        tables = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            cfg = write_config(
                d / "synth.cfg",
                {
                    "seed": 5,
                    "per_class": 8,
                    "dim": 5,
                    "features": d / "f.csv",
                    "labels": d / "l.csv",
                    "truth": d / "t.csv",
                },
            )
            assert cli.main(["synth", "--config", cfg]) == 0
            tables.append(
                tuple((d / name).read_text() for name in ("f.csv", "l.csv", "t.csv"))
            )
        assert tables[0] == tables[1]

    def test_binary_format_writes_magic(self, tmp_path):
        cfg = write_config(
            tmp_path / "synth.cfg",
            {
                "seed": 2,
                "per_class": 6,
                "dim": 4,
                "format": "binary",
                "features": tmp_path / "f.bin",
                "labels": tmp_path / "l.csv",
            },
        )
        assert cli.main(["synth", "--config", cfg]) == 0
        header = (tmp_path / "f.bin").read_bytes()[:8]
        assert header == MATRIX_MAGIC

    def test_bad_format_exits_config(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "synth.cfg",
            {"format": "xml", "features": "f.csv", "labels": "l.csv"},
        )
        assert cli.main(["synth", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err

    def test_tiny_per_class_exits_config(self, tmp_path):
        cfg = write_config(
            tmp_path / "synth.cfg",
            {"per_class": 1, "features": "f.csv", "labels": "l.csv"},
        )
        assert cli.main(["synth", "--config", cfg]) == 2

    def test_negative_seed_exits_config(self, tmp_path, capsys):
        # It used to end in a numpy ValueError traceback, exit 1.
        cfg = write_config(
            tmp_path / "synth.cfg",
            {"seed": -1, "features": "f.csv", "labels": "l.csv"},
        )
        assert cli.main(["synth", "--config", cfg]) == 2
        assert "seed=-1" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    def test_non_utf8_config_exits_config(self, tmp_path, capsys):
        path = tmp_path / "synth.cfg"
        path.write_bytes(b"features = f\xe9.csv\nlabels = l.csv\n")
        assert cli.main(["synth", "--config", str(path)]) == 2
        assert "synth.cfg" in capsys.readouterr().err


class TestFitPipeline:
    def test_round_trip_accuracy_matches_eval(self, synth_files, capsys):
        tmp = synth_files
        cfg = write_config(tmp / "fit.cfg", fit_table(tmp))
        assert cli.main(["fit", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "converged = " in out

        report = (tmp / "report.txt").read_text()
        fields = dict(
            line.split(" = ", 1) for line in report.strip().splitlines()
        )
        assert fields["mode"] == "uda"
        assert fields["ablation"] == "full"
        assert int(fields["iterations"]) >= 1
        assert fields["converged"] in ("true", "false")
        float(fields["objective_final"])

        assert cli.main(
            ["eval", "--pred", str(tmp / "predictions.csv"),
             "--truth", str(tmp / "truth.csv")]
        ) == 0
        eval_out = capsys.readouterr().out.strip()
        assert eval_out == fields["accuracy"]

    def test_log_and_graph_exports(self, synth_files):
        tmp = synth_files
        cfg = write_config(
            tmp / "fit.cfg",
            fit_table(tmp, log=tmp / "trace.csv", graph=tmp / "edges.txt"),
        )
        assert cli.main(["fit", "--config", cfg]) == 0

        log_lines = (tmp / "trace.csv").read_text().splitlines()
        assert log_lines[0] == "iter,objective,label_change,accuracy"
        assert len(log_lines) >= 2
        assert log_lines[1].startswith("1,")

        edge_lines = (tmp / "edges.txt").read_text().splitlines()
        assert edge_lines
        for line in edge_lines[:5]:
            i, j, w = line.split()
            assert 0 <= int(i) < 72 and 0 <= int(j) < 72
            assert 0.0 < float(w) <= 1.0

    def test_binary_features_are_accepted(self, tmp_path):
        cfg = write_config(
            tmp_path / "synth.cfg",
            {
                "seed": 4,
                "per_class": 8,
                "dim": 5,
                "format": "binary",
                "features": tmp_path / "features.bin",
                "labels": tmp_path / "labels.csv",
                "truth": tmp_path / "truth.csv",
            },
        )
        assert cli.main(["synth", "--config", cfg]) == 0
        fit_cfg = write_config(
            tmp_path / "fit.cfg",
            fit_table(
                tmp_path,
                features=tmp_path / "features.bin",
                n_source=24,
                n_unlabeled_target=24,
                k=5,
            ),
        )
        assert cli.main(["fit", "--config", fit_cfg]) == 0
        preds = (tmp_path / "predictions.csv").read_text().splitlines()
        assert preds[0] == "label"
        assert len(preds) == 1 + 24

    def test_predictions_without_truth(self, synth_files):
        tmp = synth_files
        table = fit_table(tmp)
        del table["truth"]
        cfg = write_config(tmp / "fit.cfg", table)
        assert cli.main(["fit", "--config", cfg]) == 0
        report = (tmp / "report.txt").read_text()
        assert "accuracy" not in report


def capture_fit(monkeypatch):
    """Replace ``cli.fit`` by a stub that records its ``HyperParams``."""
    seen = []

    def stub(dataset, params, **kwargs):
        seen.append(params)
        labels = np.zeros(dataset.n_target, dtype=int)
        return FitReport(labels, iterations=1, converged=True, objective_trace=[0.0])

    monkeypatch.setattr(cli, "fit", stub)
    return seen


class TestFitKeys:
    def test_every_field_is_read_from_the_config(self, synth_files, monkeypatch):
        tmp = synth_files
        labels = np.concatenate(
            [load_labels_csv(tmp / "labels.csv"), load_labels_csv(tmp / "truth.csv")[:3]]
        )
        save_labels_csv(str(tmp / "sda_labels.csv"), labels)
        expected = HyperParams(
            alpha=0.5,
            beta=0.25,
            gamma=0.125,
            d=3,
            k=5,
            delta=0.6,
            iterations=7,
            mode="sda",
            ablation="dg",
        )
        table = fit_table(
            tmp,
            labels=tmp / "sda_labels.csv",
            n_labeled_target=3,
            n_unlabeled_target=33,
            **dataclasses.asdict(expected),
        )
        del table["truth"]
        seen = capture_fit(monkeypatch)
        assert cli.main(["fit", "--config", write_config(tmp / "fit.cfg", table)]) == 0
        assert seen == [expected]

    def test_absent_fields_keep_the_dataclass_defaults(self, synth_files, monkeypatch):
        tmp = synth_files
        table = fit_table(tmp)
        del table["k"], table["iterations"]
        seen = capture_fit(monkeypatch)
        assert cli.main(["fit", "--config", write_config(tmp / "fit.cfg", table)]) == 0
        assert seen == [HyperParams()]


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, synth_files):
        tmp = synth_files
        cfg = write_config(tmp / "fit.cfg", fit_table(tmp, typo_key=1))
        assert cli.main(["fit", "--config", cfg]) == 2

    def test_missing_required_key_is_config_error(self, synth_files, capsys):
        tmp = synth_files
        table = fit_table(tmp)
        del table["n_source"]
        cfg = write_config(tmp / "fit.cfg", table)
        assert cli.main(["fit", "--config", cfg]) == 2
        assert "n_source" in capsys.readouterr().err

    def test_non_integer_value_is_config_error(self, synth_files):
        tmp = synth_files
        cfg = write_config(tmp / "fit.cfg", fit_table(tmp, k="many"))
        assert cli.main(["fit", "--config", cfg]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_beta_is_config_error(self, synth_files, capsys, value):
        tmp = synth_files
        cfg = write_config(tmp / "fit.cfg", fit_table(tmp, beta=value))
        assert cli.main(["fit", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp / "report.txt").exists()
        assert not (tmp / "predictions.csv").exists()

    def test_oversized_projection_dim_is_config_error(self, synth_files):
        tmp = synth_files
        cfg = write_config(tmp / "fit.cfg", fit_table(tmp, d=7))
        assert cli.main(["fit", "--config", cfg]) == 2

    def test_missing_features_file_is_data_error(self, synth_files):
        tmp = synth_files
        cfg = write_config(
            tmp / "fit.cfg", fit_table(tmp, features=tmp / "absent.csv")
        )
        assert cli.main(["fit", "--config", cfg]) == 3

    def test_malformed_feature_token_is_data_error(self, tmp_path):
        save_labels_csv(str(tmp_path / "labels.csv"), np.array([0, 1]))
        (tmp_path / "features.csv").write_text("f0,f1\n1.0,2.0\noops,4.0\n3.0,1.0\n")
        cfg = write_config(
            tmp_path / "fit.cfg",
            {
                "features": tmp_path / "features.csv",
                "labels": tmp_path / "labels.csv",
                "n_source": 2,
                "n_unlabeled_target": 1,
                "k": 1,
            },
        )
        assert cli.main(["fit", "--config", cfg]) == 3

    @pytest.mark.parametrize("name", ["features", "labels"])
    def test_non_utf8_input_is_data_error_naming_the_file(self, synth_files, capsys, name):
        tmp = synth_files
        bad = tmp / f"bad_{name}.csv"
        bad.write_bytes((tmp / f"{name}.csv").read_bytes() + b"\xff\n")
        cfg = write_config(tmp / "fit.cfg", fit_table(tmp, **{name: bad}))
        assert cli.main(["fit", "--config", cfg]) == 3
        assert f"bad_{name}.csv" in capsys.readouterr().err

    def test_header_only_features_is_data_error(self, synth_files, capsys):
        tmp = synth_files
        (tmp / "empty.csv").write_text("f0,f1,f2,f3,f4,f5\n")
        cfg = write_config(tmp / "fit.cfg", fit_table(tmp, features=tmp / "empty.csv"))
        assert cli.main(["fit", "--config", cfg]) == 3
        assert "features file has 0 samples, split declares 72" in capsys.readouterr().err

    def test_truth_length_mismatch_is_data_error(self, synth_files):
        tmp = synth_files
        save_labels_csv(str(tmp / "short.csv"), np.array([0, 1, 2]))
        cfg = write_config(tmp / "fit.cfg", fit_table(tmp, truth=tmp / "short.csv"))
        assert cli.main(["fit", "--config", cfg]) == 3

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_truth_label_outside_the_classes_is_data_error(self, synth_files, bad):
        tmp = synth_files
        truth = np.zeros(36, dtype=int)
        truth[5] = bad
        save_labels_csv(str(tmp / "bad.csv"), truth)
        cfg = write_config(tmp / "fit.cfg", fit_table(tmp, truth=tmp / "bad.csv"))
        assert cli.main(["fit", "--config", cfg]) == 3
        assert not (tmp / "report.txt").exists()

    def test_numerical_failure_maps_to_exit_4(self, synth_files, monkeypatch):
        tmp = synth_files
        cfg = write_config(tmp / "fit.cfg", fit_table(tmp))
        def explode(*args, **kwargs):
            raise SingularMatrix("synthetic failure")
        monkeypatch.setattr(cli, "fit", explode)
        assert cli.main(["fit", "--config", cfg]) == 4


class TestEval:
    def test_perfect_agreement_prints_one(self, tmp_path, capsys):
        labels = np.array([0, 1, 2, 1])
        save_labels_csv(str(tmp_path / "a.csv"), labels)
        save_labels_csv(str(tmp_path / "b.csv"), labels)
        assert cli.main(
            ["eval", "--pred", str(tmp_path / "a.csv"),
             "--truth", str(tmp_path / "b.csv")]
        ) == 0
        assert capsys.readouterr().out.strip() == "1.0000"

    def test_non_utf8_predictions_exit_data(self, tmp_path, capsys):
        (tmp_path / "a.csv").write_bytes(b"label\n0\n\xff\n")
        save_labels_csv(str(tmp_path / "b.csv"), np.array([0, 1]))
        assert cli.main(
            ["eval", "--pred", str(tmp_path / "a.csv"),
             "--truth", str(tmp_path / "b.csv")]
        ) == 3
        assert "a.csv" in capsys.readouterr().err

    def test_partial_agreement_formats_four_digits(self, tmp_path, capsys):
        save_labels_csv(str(tmp_path / "a.csv"), np.array([0, 0, 0]))
        save_labels_csv(str(tmp_path / "b.csv"), np.array([0, 1, 1]))
        assert cli.main(
            ["eval", "--pred", str(tmp_path / "a.csv"),
             "--truth", str(tmp_path / "b.csv")]
        ) == 0
        assert capsys.readouterr().out.strip() == "0.3333"
