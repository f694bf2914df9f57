"""Golden values of every boundary-series form and interface determinant.

Recorded when each series form was still spelled through its own string
primitive, before all of them became rows of the one factor
1 - c exp(-2 l sqrt(mu)).  The rows must reproduce every form bit for bit,
``neumann_pair`` as ``robin_pair`` at alpha = 0, except ``qd_correction``,
now the ``robin_both`` series less the ``log1m_exp`` series, and the
``both_ends`` determinant that sums them at alpha != 0: those stay within
1e-13 with the same phase.  A digest covers
(value, phase, tail_bound, cutoff) of a form, or (log_modulus, phase,
zero modes) of a determinant, over the grid L in LENGTHS, alpha in ALPHAS
(and alpha = 0 for the determinants), cut a = 0.4 L.
"""

import hashlib
import math

import pytest

from zetaglue.cylinder import series_sum
from zetaglue.interface_ops import log_det_interface, spec_interface
from zetaglue.spectra import Circle, FlatTorus

TWO_PI = 2.0 * math.pi
SECTIONS = {"circle": Circle(TWO_PI), "circle-8.5": Circle(8.5), "torus": FlatTorus(TWO_PI, 3.0)}
LENGTHS = (0.3, 1.0, 3.7)
ALPHAS = (-0.7, 0.2, 1.3)
GRID = [(L, alpha) for L in LENGTHS for alpha in ALPHAS]


# (cross-section, form) -> sha256 over the grid; neumann_pair is robin_pair
# at alpha = 0
SERIES_DIGESTS = {
    ("circle", "log1m_exp"):
        "563a9a34c3a1dec56127d88a43a83e736c56228434e17cb9896d5a906a6f349b",
    ("circle", "log1p_exp"):
        "a4fb5ec855e166fd82610cddf9bc73050503d1abc6b2d2d91af1fe1866686697",
    ("circle", "robin_pair"):
        "39fc87983fb2e25c3b204f1dc8e369bf304bb0a16555404f4853273ad8a44f51",
    ("circle", "robin_end"):
        "f50472093f7e78cc9df399f25a4d91334cb7a65131fa9df63c84d385e877a8b5",
    ("circle", "robin_both"):
        "65c2d3b883a3e296fceed04163eedacf973d4889b7f1ce4905f1fb92bdbd54ce",
    ("circle", "neumann_pair"):
        "cbac721de3584eb291764275e753eafb376fe3c6e24d945371bfb51f559c739d",
    ("circle-8.5", "log1m_exp"):
        "78d9a25fd3a25fe54f39ebaaa8286ec82bdb95fb15ca76828dc24a4f0336ed5e",
    ("circle-8.5", "log1p_exp"):
        "1c398ab859b59e322beb516cf39063b47010be19b2dd69582a5302d6f33bc141",
    ("circle-8.5", "robin_pair"):
        "2ab2f4f971f33a50a68012e0a6e4514601bd9221393884916c3181e67d4cf9b7",
    ("circle-8.5", "robin_end"):
        "4f1633d6d9c5e0eaf4c7e74b63e90d6a1b605fd03e4bde09dc5ee1ad7a370002",
    ("circle-8.5", "robin_both"):
        "4135224337b45876a7bf12abb4649ac7e3bba0696c256bc08f12a00a2acfdd4e",
    ("circle-8.5", "neumann_pair"):
        "26e81dca97d47e9e8e8011afd6aadd11a26cd85f6bc8c1be76b8741b6d1fda53",
    ("torus", "log1m_exp"):
        "8a891f74fdc5e6428df838b971cdba1599155abe38350ef895efe2b2f55b85a8",
    ("torus", "log1p_exp"):
        "b6b8cbf97fd400fb46bbc7a785d00da43afce8d8b9f8b077c78961a19cecfe68",
    ("torus", "robin_pair"):
        "c5f8f8721ebc3b04919e656aac0e0d89eaaaa64f1648fa81e5bda0735f355d55",
    ("torus", "robin_end"):
        "744ea04eb504b533a450c7401bfc9c325d5a02abe54e263f6bfc7f3e3b4b40ac",
    ("torus", "robin_both"):
        "aa42001f0d5a1cd354dcbb8ea35d36186d6a2f92bce6bd62ec8683ca546e1e97",
    ("torus", "neumann_pair"):
        "8c3405cf04f2cc71e5030e96811ad837ad8dc77e626966149d57c711536a6f84",
}

# (cross-section, geometry) -> sha256; alpha = 0 only for left_neumann_cut and
# both_ends, alpha = 0 and ALPHAS for the cut operators
INTERFACE_DIGESTS = {
    ("circle", "both_ends"):
        "4c6640847bb1ae111f0891f189c5f459d9a4f8e09751654f731d96c3e61e53d2",
    ("circle", "left_neumann_cut"):
        "fab7dbbea5d8d468c230ab1780ec89abaffaa78674295709f83769296a038933",
    ("circle", "cut_left"):
        "8655bac2ce06d4a4cfd145391fb84588c9995bd8a7f6afb9b0c28f28884b55dc",
    ("circle", "cut_right"):
        "2df7b0a8b23caa4d2f6bf982f7d02f374f51991435fdf25dd9dafbef4c38359c",
    ("circle-8.5", "both_ends"):
        "2503b2a981de5e4cff572419f97b1acff80e0cdbb0d425adac6ee3fae6c4484b",
    ("circle-8.5", "left_neumann_cut"):
        "ebed9a1d75e44fe9ed11ede9da0c78a9f3457ec74169f7dc9520113212da2450",
    ("circle-8.5", "cut_left"):
        "8fe1936ab998525d85de0717c75cf9326b9146cb5cb9397898c01e36ff0ee183",
    ("circle-8.5", "cut_right"):
        "fa7666139b25a2f688f3e0de5f3f59c108aee406a5ffdbfd0ed8cc67392338fa",
    ("torus", "both_ends"):
        "965a443df78fdad6c6b1bc6cc15957ec5a308ffae7121dcdff67fecbaf774cb6",
    ("torus", "left_neumann_cut"):
        "551798510b9947a2b63cdf9c08f3d575c023be938cb12f9a7ff44a870d222501",
}

# cross-section -> (value, phase) of qd_correction over GRID
QD_CORRECTION = {
    "circle": [
        (4.40195274688665, 4),
        (1.4544077442618897, 0),
        (2.8462663621668316, 0),
        (2.5699100922710736, 2),
        (0.18035797142822524, 0),
        (0.3262918361836523, 0),
        (-0.03842598343861712, 0),
        (0.0006797168352771187, 0),
        (0.001202794448004755, 0),
    ],
    "circle-8.5": [
        (9.908813673148646, 4),
        (2.497979267663419, 0),
        (4.33686720115308, 0),
        (10.951914577333325, 2),
        (0.41568017644046285, 0),
        (0.6171273687040533, 0),
        (3.093334795126521, 2),
        (0.005676860401241633, 0),
        (0.007838080360615663, 0),
    ],
    "torus": [
        (-9.804701732327574, 6),
        (2.70011112222309, 0),
        (7.10292419115159, 0),
        (2.3515029507804326, 2),
        (0.20535909742483954, 0),
        (0.40501722366340265, 0),
        (-0.03842745163329054, 0),
        (0.0006798762303887435, 0),
        (0.0012032754361220555, 0),
    ],
}

# cross-section -> (log_modulus, phase) of the both_ends determinant over GRID
BOTH_ENDS = {
    "circle": [
        (5.124028380672907, 7),
        (5.78889911178717, 0),
        (8.242893109883846, 0),
        (1.7681615663462218, 5),
        (3.37662791219035, 0),
        (4.841574882103747, 0),
        (-2.9385043355635103, 2),
        (2.1081173979829315, 0),
        (3.932622672406907, 0),
    ],
    "circle-8.5": [
        (2.8394813067937097, 7),
        (7.833188957157086, 0),
        (11.151126107148057, 0),
        (2.3587580512672783, 5),
        (4.612668439170974, 0),
        (6.55004257290211, 0),
        (-7.598151557139566, 4),
        (3.113832863517282, 0),
        (5.35689011659748, 0),
    ],
    "torus": [
        (-6.877473054968016, 9),
        (3.398256212580932, 0),
        (2.0211706623221426, 0),
        (3.7549074684288817, 5),
        (-0.2347172389804742, 0),
        (-5.558080006962966, 0),
        (-0.7333527601848832, 2),
        (-1.5282287197893953, 0),
        (-6.545757123151438, 0),
    ],
}



# The torus cut determinants at alpha != 0 take ln Det(sqrt(Delta) + alpha)
# of the torus, whose zeta values moved by rounding when the torus backend
# went from a fixed-point Bessel pass to a float64 Ewald split: (log_modulus,
# phase, zero modes) per (L, alpha) of the digest's grid, as the digest
# recorded them, held to 1e-13 relative with the same phase and zero modes.
TORUS_CUTS = {
    ("torus", "cut_left"): [
        (-14.843521676835724, 0, 1),
        (-17.707386069091477, 3, 0),
        (-15.41351356574065, 0, 0),
        (-13.230612271629056, 0, 0),
        (-0.06037821479243993, 0, 1),
        (-3.1500058819488403, 1, 0),
        (-2.097842242952489, 0, 0),
        (-3.8292364574503432, 0, 0),
        (0.7388029687294676, 0, 1),
        (0.3840171455032472, 1, 0),
        (-1.4210254041994457, 0, 0),
        (-3.448391944504804, 0, 0),
    ],
    ("torus", "cut_right"): [
        (-14.843521676835724, 0, 1),
        (-13.454970743784784, 0, 0),
        (-19.035045582611854, 1, 0),
        (-25.715998104182212, 7, 0),
        (-0.06037821479243993, 0, 1),
        (-2.3859456523046605, 0, 0),
        (-1.4583826009306369, 1, 0),
        (1.2982242837301636, 3, 0),
        (0.7388029687294676, 0, 1),
        (-1.889221803945461, 0, 0),
        (-0.47152678524085123, 1, 0),
        (0.7742791953635486, 3, 0),
    ],
}


def _digest(rows) -> str:
    text = ";".join(
        ",".join(v.hex() if isinstance(v, float) else str(v) for v in row) for row in rows
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _interface(cs, geometry, L, alpha):
    det = log_det_interface(spec_interface(cs, geometry, L, alpha), cs)
    return det.log_modulus, det.phase_multiple, det.excluded_zero_modes


@pytest.mark.parametrize("section, form", list(SERIES_DIGESTS))
def test_series_forms_bit_for_bit(section, form):
    cs = SECTIONS[section]
    rows = []
    name = "robin_pair" if form == "neumann_pair" else form
    for L, alpha in GRID:
        if form == "neumann_pair":
            alpha = 0.0
        r = series_sum(cs, L, name, alpha=alpha, a=0.4 * L)
        rows.append((r.value, r.phase, r.tail_bound, r.cutoff))
    assert _digest(rows) == SERIES_DIGESTS[section, form]


@pytest.mark.parametrize("section, geometry", list(INTERFACE_DIGESTS) + list(TORUS_CUTS))
def test_interface_determinants_bit_for_bit(section, geometry):
    cs = SECTIONS[section]
    alphas = (0.0,) if geometry in ("both_ends", "left_neumann_cut") else (0.0,) + ALPHAS
    rows = [_interface(cs, geometry, L, alpha) for L in LENGTHS for alpha in alphas]
    if (section, geometry) in TORUS_CUTS:
        for got, want in zip(rows, TORUS_CUTS[section, geometry], strict=True):
            assert abs(got[0] - want[0]) <= 1e-13 * abs(want[0]) and got[1:] == want[1:], (got, want)
        return
    assert _digest(rows) == INTERFACE_DIGESTS[section, geometry]


@pytest.mark.parametrize("section", list(QD_CORRECTION))
def test_qd_correction_within_1e13(section):
    for (L, alpha), (value, phase) in zip(GRID, QD_CORRECTION[section]):
        r = series_sum(SECTIONS[section], L, "robin_both", alpha=alpha)
        m = series_sum(SECTIONS[section], L, "log1m_exp")
        assert abs(r.value - m.value - value) <= 1e-13 and r.phase - m.phase == phase, (L, alpha)


@pytest.mark.parametrize("section", list(BOTH_ENDS))
def test_both_ends_within_1e13(section):
    cs = SECTIONS[section]
    for (L, alpha), (value, phase) in zip(GRID, BOTH_ENDS[section]):
        got, got_phase, _ = _interface(cs, "both_ends", L, alpha)
        assert abs(got - value) <= 1e-13 and got_phase == phase, (L, alpha)
