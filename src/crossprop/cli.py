"""Command-line interface.

Subcommands
-----------
``crossprop fit --config PATH``
    Run the joint solver on data files and write a report plus predictions.
``crossprop synth --config PATH``
    Generate a synthetic rotated-blob benchmark to data files.
``crossprop eval --pred PATH --truth PATH``
    Score a predictions file against a truth file (prints accuracy).

Config files are flat ``key = value`` text; ``#`` starts a comment.  See the
README for the key reference.  Exit codes: 0 success, 2 configuration error,
3 data error, 4 numerical failure.
"""

import argparse
import dataclasses
import sys

import numpy as np

from . import data as dataio
from .data import HyperParams, accuracy, gen_synthetic_shift, load_dataset
from .exceptions import (
    ArgumentError,
    ConfigError,
    CrosspropError,
    LabelError,
    ParseError,
    ShapeError,
)
from .graph import write_edges
from .solver import fit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_CONFIG_ERRORS = (ConfigError, ArgumentError)
_DATA_ERRORS = (ParseError, ShapeError, LabelError, OSError)


def parse_config(path):
    """Read a flat ``key = value`` config file into a string dict."""
    table = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in table:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        table[key] = value
    return table


class _Config:
    """Typed accessors over a parsed config with unknown-key detection."""

    def __init__(self, table, path):
        self.table = table
        self.path = path
        self.seen = set()

    def _raw(self, key, required):
        self.seen.add(key)
        if key not in self.table:
            if required:
                raise ConfigError(f"{self.path}: missing required key {key!r}")
            return None
        return self.table[key]

    def get_str(self, key, default=None, required=False):
        raw = self._raw(key, required)
        return default if raw is None else raw

    def get_int(self, key, default=None, required=False):
        raw = self._raw(key, required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{self.path}: key {key!r} wants an integer") from exc

    def get_float(self, key, default=None, required=False):
        raw = self._raw(key, required)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{self.path}: key {key!r} wants a number") from exc

    def get_bool(self, key, default=None):
        raw = self._raw(key, required=False)
        if raw is None:
            return default
        if raw.lower() in ("true", "yes", "1"):
            return True
        if raw.lower() in ("false", "no", "0"):
            return False
        raise ConfigError(f"{self.path}: key {key!r} wants true/false")

    def get_floats(self, key, default=None):
        raw = self._raw(key, required=False)
        if raw is None:
            return default
        try:
            return tuple(float(p) for p in raw.split(","))
        except ValueError as exc:
            raise ConfigError(
                f"{self.path}: key {key!r} wants comma-separated numbers"
            ) from exc

    def reject_unknown(self):
        unknown = set(self.table) - self.seen
        if unknown:
            names = ", ".join(sorted(unknown))
            raise ConfigError(f"{self.path}: unknown keys: {names}")


_FIELD_PARSERS = {float: _Config.get_float, int: _Config.get_int, str: _Config.get_str}


def _hyperparams(cfg):
    """``HyperParams`` from the config keys present; absent keys keep its defaults.

    Each key is parsed by the type of its dataclass field; ``d`` (``int`` or
    ``None``) as an integer.
    """
    present = {}
    for f in dataclasses.fields(HyperParams):
        value = _FIELD_PARSERS[int if f.name == "d" else f.type](cfg, f.name)
        if value is not None:
            present[f.name] = value
    return HyperParams(**present)


def cmd_fit(args):
    cfg = _Config(parse_config(args.config), args.config)
    features_path = cfg.get_str("features", required=True)
    labels_path = cfg.get_str("labels", required=True)
    n_source = cfg.get_int("n_source", required=True)
    n_labeled = cfg.get_int("n_labeled_target", default=0)
    n_unlabeled = cfg.get_int("n_unlabeled_target", required=True)
    n_classes = cfg.get_int("n_classes")
    standardize = cfg.get_bool("standardize", default=True)
    params = _hyperparams(cfg)
    truth_path = cfg.get_str("truth")
    report_path = cfg.get_str("report", default="report.txt")
    predictions_path = cfg.get_str("predictions", default="predictions.csv")
    log_path = cfg.get_str("log")
    graph_path = cfg.get_str("graph")
    cfg.reject_unknown()

    ds = load_dataset(
        features_path,
        labels_path,
        n_source,
        n_labeled,
        n_unlabeled,
        n_classes=n_classes,
        standardize=standardize,
    )
    if truth_path is not None:
        truth = dataio.load_labels_csv(truth_path)
        if truth.size != n_unlabeled:
            raise ShapeError(
                f"truth file has {truth.size} rows, expected {n_unlabeled}"
            )
        # replace() runs the dataset's checks on the truth labels too.
        ds = dataclasses.replace(
            ds,
            hidden_target_labels=np.concatenate([ds.labeled_target_labels, truth]),
        )

    last_graph = []
    callback = None
    if graph_path is not None:
        def callback(state):
            last_graph[:] = [state.graph]

    if log_path is not None:
        with open(log_path, "w") as log_fh:
            report = fit(ds, params, log_sink=log_fh, on_iteration=callback)
    else:
        report = fit(ds, params, on_iteration=callback)

    predictions = report.target_labels[n_labeled:]
    dataio.save_labels_csv(predictions_path, predictions)
    if graph_path is not None and last_graph:
        write_edges(last_graph[-1], graph_path)
    with open(report_path, "w") as fh:
        fh.write(f"mode = {params.mode}\n")
        fh.write(f"ablation = {params.ablation}\n")
        fh.write(f"iterations = {report.iterations}\n")
        fh.write(f"converged = {'true' if report.converged else 'false'}\n")
        fh.write(f"objective_final = {report.objective_final:.10g}\n")
        if report.accuracy is not None:
            fh.write(f"accuracy = {report.accuracy:.4f}\n")
    print(f"fit: {report.iterations} iterations, converged = "
          f"{'true' if report.converged else 'false'}")
    if report.accuracy is not None:
        print(f"accuracy = {report.accuracy:.4f}")
    return EXIT_OK


def cmd_synth(args):
    cfg = _Config(parse_config(args.config), args.config)
    seed = cfg.get_int("seed", default=0)
    per_class = cfg.get_int("per_class", default=100)
    n_classes = cfg.get_int("classes", default=3)
    rotation = cfg.get_float("rotation_deg", default=30.0)
    shift = cfg.get_floats("shift", default=(1.0, 1.0))
    dim = cfg.get_int("dim", default=10)
    noise_scale = cfg.get_float("noise_scale", default=0.1)
    fmt = cfg.get_str("format", default="csv")
    features_path = cfg.get_str("features", required=True)
    labels_path = cfg.get_str("labels", required=True)
    truth_path = cfg.get_str("truth")
    cfg.reject_unknown()
    if fmt not in ("csv", "binary"):
        raise ConfigError(f"format must be csv or binary, got {fmt!r}")

    ds = gen_synthetic_shift(
        seed,
        per_class=per_class,
        n_classes=n_classes,
        rotation_deg=rotation,
        shift=shift,
        dim=dim,
        noise_scale=noise_scale,
    )
    samples = ds.features.T
    if fmt == "binary":
        dataio.save_matrix_binary(features_path, samples)
    else:
        dataio.save_features_csv(features_path, samples)
    dataio.save_labels_csv(labels_path, ds.source_labels)
    if truth_path is not None:
        dataio.save_labels_csv(truth_path, ds.hidden_target_labels)
    print(
        f"synth: {ds.n_samples} samples "
        f"({ds.n_source} source, {ds.n_target} target), dim {ds.n_features}"
    )
    return EXIT_OK


def cmd_eval(args):
    predicted = dataio.load_labels_csv(args.pred)
    truth = dataio.load_labels_csv(args.truth)
    print(f"{accuracy(predicted, truth):.4f}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crossprop",
        description="Cross-domain label propagation with graph self-learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="run the solver on data files")
    p_fit.add_argument("--config", required=True, help="fit config file")
    p_fit.set_defaults(handler=cmd_fit)

    p_synth = sub.add_parser("synth", help="generate a synthetic benchmark")
    p_synth.add_argument("--config", required=True, help="synth config file")
    p_synth.set_defaults(handler=cmd_synth)

    p_eval = sub.add_parser("eval", help="score predictions against truth")
    p_eval.add_argument("--pred", required=True, help="predictions labels CSV")
    p_eval.add_argument("--truth", required=True, help="truth labels CSV")
    p_eval.set_defaults(handler=cmd_eval)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (CrosspropError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
