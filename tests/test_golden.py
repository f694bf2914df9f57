"""Golden reports of the warm gluing path, the cylinders, the shifted
determinants, the tail bounds and the segment oracle (``goldens.json``).

Built-in circle and point values are exact: they come from closed forms
and float64 sums whose order is fixed.  Torus values are held to 1e-13
relative, because the torus zeta is a float64 Ewald split whose sums may
regroup by rounding; phases and truncations are exact.  The explicit
mirrors run on the numeric backend's Gauss-Legendre rules and on numpy
passes over their stored modes, which move values by rounding only
(at most 3.6e-15 seen): their reports are held to 16 ulp or 1e-14,
whichever is larger, and their tail bounds to 1e-12 relative.  The oracle
refines each root down to adjacent floats, within Brent's stopping rule
plus one ulp of the roots its log-determinants were recorded with, so
those are held to 1e-12 absolute.  The scipy reference scan pins its own
eigenvalues by digest: it is test code, not library output.
"""

import pytest

from goldens import cases, check
from zetaglue.cylinder import BoundaryCondition as BC
from zetaglue.oracle import SecularProblem, segment_eigenvalues

from test_oracle import assert_within_brent_tolerance, scalar_scan_eigenvalues, scan_digest


def test_circle_robin_report():
    check("circle_robin_report")


@pytest.mark.parametrize("case", cases("robin_lhs", "robin_lhs_torus"))
def test_robin_lhs(case):
    # circle-K1: alpha = -2.2 has K >= 1 negative interface eigenvalues
    check("robin_lhs", "robin_lhs_torus", case=case)


@pytest.mark.parametrize("case", cases("oracle_log_dets"))
def test_oracle_relative_log_det(case):
    check("oracle_log_dets", case=case)


@pytest.mark.parametrize("case", cases("neumann_reports"))
def test_neumann_report(case):
    check("neumann_reports", case=case)


# N/R(alpha) and R/R(alpha, alpha) cylinders of length 2, and
# ln Det(sqrt(Delta_Y) + alpha), per cross-section and alpha
@pytest.mark.parametrize("case", cases("cylinder_reports", "cylinder_reports_torus"))
def test_cylinder_reports(case):
    check("cylinder_reports", "cylinder_reports_torus", case=case)


@pytest.mark.parametrize("case", cases("shifted_dets", "shifted_dets_torus"))
def test_shifted_determinants(case):
    check("shifted_dets", "shifted_dets_torus", case=case)


def test_robin_segment_eigenvalues():
    p = SecularProblem(2.5, BC.robin(0.9), BC.robin(0.9))
    ref = scalar_scan_eigenvalues(p, 1026)
    assert (len(ref), ref[0].hex(), ref[-1].hex()) == (
        1026, "0x1.07ea299fc4abfp-1", "0x1.950c9f0983655p+20"
    )
    assert scan_digest(ref) == (
        "39c6dbabcdccf50297a93a37a9cd88b7a4617cb9828ba79c00e39a855b588cce"
    )
    assert_within_brent_tolerance(segment_eigenvalues(p, 1026), ref)


# the gluing check on the explicit mirror of a circle or torus at cutoff
# 300 with L = 2, a = 0.9; alpha = 0 is the Neumann check
@pytest.mark.parametrize("case", cases("mirror_reports"))
def test_mirror_reports(case):
    check("mirror_reports", case=case)


# each supported boundary pair on [0, 1.5] x point
@pytest.mark.parametrize("case", cases("point_cylinder_reports"))
def test_point_cylinder_reports(case):
    check("point_cylinder_reports", case=case)


# heat_trace and the three tail bounds at three arguments each; the
# explicit mirrors store eigenvalues up to 300, so lam = 400 lies beyond
# the stored list
@pytest.mark.parametrize("case", cases("tail_bounds", "mirror_tail_bounds"))
def test_heat_traces_and_tail_bounds(case):
    check("tail_bounds", "mirror_tail_bounds", case=case)
