"""The package's public names resolve, and the names other code calls stay exported.

The benchmark under ``perfbench/`` and the acceptance criteria call the
package through ``crossprop.<name>``; removing or renaming one of those
names breaks them without failing any other test.  The README's library
usage section documents calls by name, which must resolve too.
"""

import importlib
import re
from pathlib import Path

import pytest

import crossprop as cp

README = Path(__file__).resolve().parents[1] / "README.md"

# Math notation written like a call, not a crossprop name.
NOTATION = {"len", "min", "tr"}

# Public names called as ``cp.<name>``, by caller.
CALLED = {
    "perfbench": [
        "Dataset",
        "HyperParams",
        "accuracy",
        "fit",
        "gen_synthetic_shift",
        "nearest_neighbor",
        "solve_spd_linear",
        "with_labeled_targets",
    ],
    "tests/test_acceptance.py and tests/conftest.py": [
        "Dataset",
        "HyperParams",
        "accuracy",
        "affinity_cost",
        "build_graph",
        "conditional_mmd",
        "decide_labels",
        "fit",
        "gen_synthetic_shift",
        "harmonic_solve",
        "init_graph",
        "laplacian",
        "marginal_mmd",
        "nearest_neighbor",
        "one_hot",
        "simplex_qp_oracle",
    ],
}


def test_every_name_in_all_resolves():
    assert [name for name in cp.__all__ if not hasattr(cp, name)] == []
    assert len(set(cp.__all__)) == len(cp.__all__)


@pytest.mark.parametrize("caller", sorted(CALLED))
def test_names_called_from_outside_the_package_stay_exported(caller):
    missing = [name for name in CALLED[caller] if name not in cp.__all__]
    assert missing == []
    assert all(callable(getattr(cp, name)) for name in CALLED[caller])


def documented_calls():
    """Every ``name`` that README's "Library usage" section writes as `` `name(``."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library usage\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([A-Za-z_][\w.]*)\(", section)) - NOTATION


def resolves(name):
    """A bare name is a ``crossprop`` attribute; a dotted ``crossprop.mod.name`` is imported."""
    module, _, attr = name.rpartition(".")
    if not module:
        return hasattr(cp, attr)
    if module.split(".")[0] != "crossprop":
        return False
    try:
        return hasattr(importlib.import_module(module), attr)
    except ImportError:
        return False


def test_every_call_the_readme_documents_resolves():
    calls = documented_calls()
    assert {"fit", "build_graph", "objective"} <= calls
    assert sorted(name for name in calls if not resolves(name)) == []
