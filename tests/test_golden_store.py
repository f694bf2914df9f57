"""The golden store itself: its shape, its text and its failure messages."""

import copy
import json
import math

import pytest

import goldens
from goldens import EVALUATORS, STORE

BOUND_KEYS = {
    "exact": {"form"},
    "relative": {"form", "tol"},
    "absolute": {"form", "tol"},
    "ulps": {"form", "ulps", "floor"},
}

# rows per quantity, as many as the pinned inputs of the tables they came
# from; series_forms has 144, as its neumann_pair digests hashed each of
# their three lengths three times over
ROW_COUNTS = {
    "aspect_torus_reports": 4, "aspect_torus_residuals": 4, "both_ends": 27,
    "circle_robin_report": 1, "cylinder_reports": 8, "cylinder_reports_torus": 8,
    "interface_dets": 66, "interface_dets_torus": 24, "mirror_reports": 6,
    "mirror_tail_bounds": 36, "neumann_reports": 2, "oracle_log_dets": 2,
    "pair_reports": 20, "pair_reports_mirror": 20, "pair_reports_torus": 20,
    "pair_truncations_mirror": 20, "point_cylinder_reports": 5, "qd_corrections": 27,
    "robin_lhs": 2, "robin_lhs_torus": 2, "robin_neumann_rates": 2,
    "seeded_torus_reports": 20, "series_forms": 144, "shifted_dets": 4,
    "shifted_dets_torus": 4, "small_alpha": 64, "tail_bounds": 36, "torus_reports": 5,
    "torus_residuals": 5, "unsummed_gaps": 2, "wide_torus_reports": 25,
    "wide_torus_residuals": 25, "zeta_points": 840,
}


def test_every_quantity_has_one_evaluator_and_one_bound():
    assert sorted(STORE) == sorted(EVALUATORS) == sorted(ROW_COUNTS)
    for name, quantity in STORE.items():
        assert set(quantity) == {"bound", "rows"}, name
        bound = quantity["bound"]
        assert set(bound) == BOUND_KEYS[bound["form"]], name
        for row in quantity["rows"]:
            assert {"inputs", "values"} <= set(row) <= {"case", "inputs", "values", "exact"}, name
            assert "exact" not in row or bound["form"] != "exact", name
        assert len(quantity["rows"]) == ROW_COUNTS[name], name


def test_store_is_written_canonically():
    with open(goldens.PATH) as f:
        assert f.read() == goldens.dumps(STORE)


def nudged(value, bound):
    """A value twice its bound away from ``value``."""
    form = bound["form"]
    if form == "exact":
        return math.nextafter(value, math.inf)
    if form == "ulps":
        return value + 2.0 * max(bound["ulps"] * math.ulp(value), bound["floor"])
    return value + 2.0 * bound["tol"] * (abs(value) if form == "relative" else 1.0)


@pytest.mark.parametrize("quantity, field, distance", [
    ("circle_robin_report", "lhs", "inf"),
    ("zeta_points", "value", "2"),
    ("qd_corrections", "value", "2"),
    ("mirror_reports", "rhs", "2"),
])
def test_a_nudged_pin_names_its_row(quantity, field, distance):
    row = copy.deepcopy(goldens.rows(quantity)[0])
    bound = STORE[quantity]["bound"]
    got = EVALUATORS[quantity](row["inputs"])
    assert goldens.failure(quantity, row, got) is None
    row["values"][field] = nudged(got[field], bound)
    message = goldens.failure(quantity, row, got)
    assert message.startswith(f"{quantity} {json.dumps(row['inputs'], sort_keys=True)}: {field} = ")
    assert f"distance {distance} x the bound ({goldens.describe(bound)})" in message
    with pytest.raises(AssertionError, match="no rows"):
        goldens.check(quantity, case="no such case")


def test_an_exact_field_is_held_to_its_bits():
    row = copy.deepcopy(goldens.rows("pair_reports_torus")[0])
    row["exact"]["truncation"] = nudged(row["exact"]["truncation"], goldens.EXACT)
    assert "truncation" in goldens.failure("pair_reports_torus", row)
    assert goldens.distance(goldens.EXACT, 0.0, -0.0) == math.inf
    assert goldens.distance(goldens.EXACT, 1, 1.0) == math.inf
