"""The package's public names resolve, and the names other code calls stay exported.

The benchmark under ``perfbench/`` and the acceptance criteria call the
package through ``crossprop.<name>``; removing or renaming one of those
names breaks them without failing any other test.
"""

import pytest

import crossprop as cp

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

