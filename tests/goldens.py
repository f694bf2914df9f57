"""The golden store: every pinned value of the tests, and the one comparison.

``goldens.json`` groups its rows by quantity.  Each quantity states one
bound, and each row holds the inputs of one library call and the values
the call returned when they were pinned: ``values`` are held to the
quantity's bound, ``exact`` (phases, kernel dimensions, truncations and
term order where the bound is not exact) to the last bit.  A row's
optional ``case`` is the test case that checks it.

``EVALUATORS`` maps each quantity to the function that computes a row's
values from its inputs, and ``check`` compares them: no other test code
compares a pinned value.  A bound has one of four forms:

- ``{"form": "exact"}``: the same type and the same bits;
- ``{"form": "relative", "tol": t}``: within t |pin|;
- ``{"form": "absolute", "tol": t}``: within t;
- ``{"form": "ulps", "ulps": n, "floor": f}``: within max(n ulp(pin), f).

A row's distance is its largest |value - pin| in units of its bound, so
a row is within its bound when its distance is at most 1.
"""

import functools
import json
import math
import os

from zetaglue.cylinder import BoundaryCondition as BC, CylinderSpec, log_det_cylinder, series_sum
from zetaglue.gluing import GluingConfig, glue_neumann_check, glue_robin_check
from zetaglue.interface_ops import log_det_interface, spec_interface
from zetaglue.oracle import SecularProblem, relative_log_det
from zetaglue.spectra import (
    Circle,
    FlatTorus,
    Point,
    exp_tail_bound,
    explicit_mirror,
    heat_tail_bound,
    heat_trace,
    kernel_dim,
)
from zetaglue.zreg import log_det_shifted, power_tail_bound, zeta_point

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")
EXACT = {"form": "exact"}


# ----------------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------------


def section(spec):
    """The cross-section of a stored spec: ["point"], ["circle", length],
    ["torus", ell1, ell2] or ["mirror", base spec, cutoff]."""
    return _section(json.dumps(spec))


@functools.cache
def _section(key):
    kind, *args = json.loads(key)
    if kind == "mirror":
        return explicit_mirror(section(args[0]), args[1])
    return {"point": Point, "circle": Circle, "torus": FlatTorus}[kind](*args)


def ends(pair, alpha):
    """The two conditions of a pair written "X/Y", R being Robin(alpha)."""
    kinds = {"D": BC.dirichlet, "N": BC.neumann, "R": lambda: BC.robin(alpha)}
    return kinds[pair[0]](), kinds[pair[2]]()


# ----------------------------------------------------------------------------
# evaluators: a row's inputs -> the values the library gives for them
# ----------------------------------------------------------------------------


def gluing_report(x):
    """The Robin check at alpha != 0, the Neumann check at alpha = 0."""
    cfg = GluingConfig(section(x["section"]), x["L"], x["a"], x["alpha"])
    rep = (glue_robin_check if x["alpha"] else glue_neumann_check)(cfg)
    return {
        "lhs": rep.lhs, "rhs": rep.rhs, "residual": rep.residual, "truncation": rep.truncation,
        "lhs_phase": rep.lhs_phase, "rhs_phase": rep.rhs_phase, "phase_match": rep.phase_match,
        "lhs_terms": [list(t) for t in rep.lhs_terms.items()],
        "rhs_terms": [list(t) for t in rep.rhs_terms.items()],
    }


def cylinder_report(x):
    rep = log_det_cylinder(CylinderSpec(section(x["section"]), x["L"], *ends(x["pair"], x["alpha"])))
    return {
        "log_det": rep.log_det, "phase": rep.phase_multiple, "kernel_dim": rep.kernel_dim,
        "truncation": rep.truncation, "terms": dict(rep.terms), "term_order": list(rep.terms),
    }


def shifted_det(x):
    det = log_det_shifted(section(x["section"]), x["alpha"])
    return {"log_modulus": det.log_modulus, "phase": det.phase_multiple}


def oracle_robin_over_dirichlet(x):
    rr = SecularProblem(x["L"], BC.robin(x["alpha"]), BC.robin(x["alpha"]))
    dd = SecularProblem(x["L"], BC.dirichlet(), BC.dirichlet())
    return {"value": relative_log_det(rr, dd, count=x["count"]).value}


TAIL_FUNCTIONS = {fn.__name__: fn for fn in (heat_trace, exp_tail_bound, heat_tail_bound, power_tail_bound)}


def tail_value(x):
    return {"value": TAIL_FUNCTIONS[x["function"]](section(x["section"]), *x["args"])}


def series_form(x):
    r = series_sum(section(x["section"]), x["L"], x["form"], alpha=x["alpha"], a=x["a"])
    return {"value": r.value, "phase": r.phase, "tail_bound": r.tail_bound, "cutoff": r.cutoff}


def interface_det(x):
    cs = section(x["section"])
    det = log_det_interface(spec_interface(cs, x["geometry"], x["L"], x["alpha"]), cs)
    return {"log_modulus": det.log_modulus, "phase": det.phase_multiple, "zero_modes": det.excluded_zero_modes}


def qd_correction(x):
    """The robin_both series less the log1m_exp series."""
    cs = section(x["section"])
    r = series_sum(cs, x["L"], "robin_both", alpha=x["alpha"])
    m = series_sum(cs, x["L"], "log1m_exp")
    return {"value": r.value - m.value, "phase": r.phase - m.phase}


def zeta_value(x):
    return {"value": zeta_point(section(x["section"]), x["s"]).value}


def unsummed_gap(x):
    """Distance of a mirror's Robin lhs from its base's closed form."""
    base = section(x["section"])
    cfg = (x["L"], x["a"], x["alpha"])
    mirror = glue_robin_check(GluingConfig(explicit_mirror(base, x["cutoff"]), *cfg))
    return {"distance": abs(mirror.lhs - glue_robin_check(GluingConfig(base, *cfg)).lhs)}


def robin_neumann_rate(x):
    """D/alpha, where D = ln Det_{N/R(alpha)} - q0 ln(alpha/L) - ln Det*_{N/N} vanishes as alpha -> 0."""
    cs, L, alpha = section(x["section"]), x["L"], x["alpha"]
    nr = log_det_cylinder(CylinderSpec(cs, L, *ends("N/R", alpha))).log_det
    nn = log_det_cylinder(CylinderSpec(cs, L, *ends("N/N", alpha))).log_det
    return {"rate": (nr - kernel_dim(cs) * math.log(alpha / L) - nn) / alpha}


EVALUATORS = {
    "aspect_torus_reports": gluing_report,
    "aspect_torus_residuals": gluing_report,
    "both_ends": interface_det,
    "circle_robin_report": gluing_report,
    "cylinder_reports": cylinder_report,
    "cylinder_reports_torus": cylinder_report,
    "interface_dets": interface_det,
    "interface_dets_torus": interface_det,
    "mirror_reports": gluing_report,
    "mirror_tail_bounds": tail_value,
    "neumann_reports": gluing_report,
    "oracle_log_dets": oracle_robin_over_dirichlet,
    "pair_reports": cylinder_report,
    "pair_reports_mirror": cylinder_report,
    "pair_reports_torus": cylinder_report,
    "pair_truncations_mirror": cylinder_report,
    "point_cylinder_reports": cylinder_report,
    "qd_corrections": qd_correction,
    "robin_lhs": gluing_report,
    "robin_lhs_torus": gluing_report,
    "robin_neumann_rates": robin_neumann_rate,
    "seeded_torus_reports": gluing_report,
    "series_forms": series_form,
    "shifted_dets": shifted_det,
    "shifted_dets_torus": shifted_det,
    "small_alpha": shifted_det,
    "tail_bounds": tail_value,
    "torus_reports": gluing_report,
    "torus_residuals": gluing_report,
    "unsummed_gaps": unsummed_gap,
    "wide_torus_reports": gluing_report,
    "wide_torus_residuals": gluing_report,
    "zeta_points": zeta_value,
}


# ----------------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------------


def dumps(store):
    """The canonical text of a store: sorted keys, one row per line, floats
    by repr, so that a moved pin is a one-line diff."""
    blocks = []
    for name in sorted(store):
        rows = ",\n".join("      " + json.dumps(row, sort_keys=True) for row in store[name]["rows"])
        bound = json.dumps(store[name]["bound"], sort_keys=True)
        blocks.append(f'  "{name}": {{\n    "bound": {bound},\n    "rows": [\n{rows}\n    ]\n  }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


with open(PATH) as _store:
    STORE = json.load(_store)


def rows(quantity, case=None):
    """The rows of a quantity, or those of one test case."""
    return [row for row in STORE[quantity]["rows"] if case is None or row.get("case") == case]


def cases(*quantities):
    """The test cases of the quantities' rows, in store order."""
    return list(dict.fromkeys(row["case"] for q in quantities for row in STORE[q]["rows"]))


# ----------------------------------------------------------------------------
# the one comparison
# ----------------------------------------------------------------------------


def describe(bound):
    form = bound["form"]
    if form == "ulps":
        return f"max({bound['ulps']} ulp, {bound['floor']:g})"
    return "exact" if form == "exact" else f"{bound['tol']:g} {form}"


def distance(bound, got, pin):
    """|got - pin| in units of the bound; inf where a value held exactly differs."""
    if bound["form"] == "exact" or not (isinstance(pin, float) and isinstance(got, float)):
        return 0.0 if _same(got, pin) else math.inf
    err = abs(got - pin)
    if err == 0.0:
        return 0.0
    if bound["form"] == "relative":
        scale = bound["tol"] * abs(pin)
    elif bound["form"] == "absolute":
        scale = bound["tol"]
    else:
        scale = max(bound["ulps"] * math.ulp(pin), bound["floor"])
    return err / scale if scale and err == err else math.inf


def _same(got, pin):
    """Bit for bit: a float equals only a float with the same bits."""
    if isinstance(got, float) or isinstance(pin, float):
        return isinstance(got, float) and isinstance(pin, float) and got.hex() == pin.hex()
    return got == pin


def _leaves(value, path):
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _leaves(v, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, value


def worst(quantity, row, got=None):
    """(distance, field, value, pin, bound) of the row's farthest field."""
    if got is None:
        got = EVALUATORS[quantity](row["inputs"])
    out = (-1.0, None, None, None, None)
    for part, bound in (("values", STORE[quantity]["bound"]), ("exact", EXACT)):
        for key, pinned in row.get(part, {}).items():
            pins, values = dict(_leaves(pinned, key)), dict(_leaves(got[key], key))
            if pins.keys() != values.keys():
                return math.inf, key, got[key], pinned, EXACT
            for path, pin in pins.items():
                d = distance(bound, values[path], pin)
                if d > out[0]:
                    out = (d, path, values[path], pin, bound if isinstance(pin, float) else EXACT)
    return out


def failure(quantity, row, got=None):
    """None when the row is within its bound, else a line naming the
    quantity, the inputs, the field, its distance and the bound."""
    d, field, value, pin, bound = worst(quantity, row, got)
    if d <= 1.0:
        return None
    return (f"{quantity} {json.dumps(row['inputs'], sort_keys=True)}: {field} = {value!r}, "
            f"pinned {pin!r}, distance {d:.3g} x the bound ({describe(bound)})")


def check(*quantities, case=None):
    """Assert that every row of the quantities (of one test case, if given)
    is within its bound."""
    selected = [(q, row) for q in quantities for row in rows(q, case)]
    assert selected, f"no rows of {quantities} for case {case!r}"
    failures = [line for line in (failure(q, row) for q, row in selected) if line]
    assert not failures, "\n".join(failures)

