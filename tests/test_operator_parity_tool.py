"""``benchmarks/operator_parity.py --compare`` against dumps of older
layouts: a ``(K, 4, 15, 18)`` flux-solver array (or its four views) is
compared as the elastic ``flux_solvers`` and the anelastic rows' velocity
columns, and a nonzero in a column that split drops is a problem."""

import importlib.util
from pathlib import Path

import numpy as np

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "operator_parity.py"
_spec = importlib.util.spec_from_file_location("operator_parity", _SCRIPT)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)

VELOCITIES = [6, 7, 8, 15, 16, 17]


def _dense(seed=0):
    """A 15-row flux-solver array whose anelastic rows read only velocities."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((5, 4, 15, 18))
    dense[:, :, :9] = rng.standard_normal((5, 4, 9, 18))
    dense[:, :, 9:, VELOCITIES] = rng.standard_normal((5, 4, 6, 6))
    return dense


def _ours(dense):
    return {
        "case/spec/flux_solvers": dense[:, :, :9].copy(),
        "case/spec/flux_anelastic": dense[:, :, 9:][..., VELOCITIES].copy(),
    }


def test_a_parent_dump_maps_onto_the_split_pair():
    dense = _dense()
    assert parity.compare(_ours(dense), {"case/spec/flux_solvers": dense}) == []
    views = {
        f"case/spec/{name}": dense[:, :, rows][..., columns]
        for (name, rows, columns) in (
            ("flux_local_elastic", slice(0, 9), slice(0, 9)),
            ("flux_neigh_elastic", slice(0, 9), slice(9, 18)),
            ("flux_local_anelastic", slice(9, 15), slice(0, 9)),
            ("flux_neigh_anelastic", slice(9, 15), slice(9, 18)),
        )
    }
    assert parity.compare(_ours(dense), views) == []


def test_a_nonzero_dropped_column_or_a_changed_value_is_a_problem():
    dense = _dense()
    ours = _ours(dense)
    dense[1, 2, 10, 0] = 1e-300  # a stress column of an anelastic row
    assert parity.compare(ours, {"case/spec/flux_solvers": dense}) == [
        "missing in one side: case/spec/flux_anelastic: dropped block"
    ]
    dense = _dense()
    dense[0, 0, 14, 17] += 1.0
    assert parity.compare(ours, {"case/spec/flux_solvers": dense}) == [
        "case/spec/flux_anelastic: differs"
    ]
