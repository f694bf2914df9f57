"""Golden values of every boundary-series form and interface determinant.

Every series form is one row of the factor 1 - c exp(-2 l sqrt(mu)),
summed in a fixed order, so each (value, phase, tail_bound, cutoff) is
exact on the grid L = 0.3, 1.0, 3.7, alpha = -0.7, 0.2, 1.3 at the cut
a = 0.4 L (``neumann_pair`` is ``robin_pair`` at alpha = 0), and so is
each interface determinant on the circles and at alpha = 0 on the torus.
The torus cut determinants at alpha != 0 take ln Det(sqrt(Delta) + alpha)
of the torus, whose zeta is a float64 Ewald split that may regroup by
rounding: 1e-13 relative, phases and zero modes exact.  ``qd_correction``
is the ``robin_both`` series less the ``log1m_exp`` series, two sums
rounded each on its own rather than one factor summed once, and the
``both_ends`` determinant adds it at alpha != 0: both are held to 1e-13
absolute with the same phase.
"""

import pytest

from goldens import cases, check


@pytest.mark.parametrize("case", cases("series_forms"))
def test_series_forms_bit_for_bit(case):
    check("series_forms", case=case)


@pytest.mark.parametrize("case", cases("interface_dets", "interface_dets_torus"))
def test_interface_determinants_bit_for_bit(case):
    check("interface_dets", "interface_dets_torus", case=case)


@pytest.mark.parametrize("case", cases("qd_corrections"))
def test_qd_correction_within_1e13(case):
    check("qd_corrections", case=case)


@pytest.mark.parametrize("case", cases("both_ends"))
def test_both_ends_within_1e13(case):
    check("both_ends", case=case)
