"""Command-line front end: config ingestion, dispatch, JSON reports.

Subcommands::

    det             cylinder log-determinant for one boundary pair
    dn-spec         truncated interface-operator spectrum
    glue            both sides of a gluing identity with residual
    zeta            zeta values / regularized determinants of the cross-section
    oracle-compare  segment closed form vs the root-finding oracle

Reports are JSON on stdout (newline-terminated, deterministic except for
the ``timestamp`` field; floats use exact round-trip encoding);
diagnostics go to stderr.  Exit codes: 0 success, 2 validation error,
3 numerical non-convergence, 4 inadmissible (singular) parameters.
A config file mirroring the flags can be passed with ``--config``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import jsonschema

from . import __version__
from .cylinder import BoundaryCondition, CylinderSpec, log_det_cylinder
from .errors import (
    ConvergenceError,
    SingularParameterError,
    ValidationError,
    ZetaGlueError,
)
from .gluing import GluingConfig, glue_neumann_check, glue_robin_check
from .interface_ops import log_det_interface, spec_interface, spec_RS0
from .oracle import SecularProblem, relative_log_det
from .spectra import Circle, FlatTorus, Point, explicit_from_json, kernel_dim
from .zreg import log_det_shifted, log_det_star, zeta_point

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_INADMISSIBLE = 4

_CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {
            "enum": ["det", "dn-spec", "glue", "zeta", "oracle-compare"]
        },
        "cross_section": {"type": "string"},
        "length": {"type": "number", "exclusiveMinimum": 0},
        "cut": {"type": "number", "exclusiveMinimum": 0},
        "alpha": {"type": "number"},
        "bc": {"type": "string"},
        "ref_bc": {"type": "string"},
        "geometry": {
            "enum": ["both_ends", "left_neumann_cut", "cut_left", "cut_right"]
        },
        "s": {"type": "number"},
        "shift": {"type": "number"},
        "det_star": {"type": "boolean"},
        "include_zero": {"type": "boolean"},
        "count": {"type": "integer", "minimum": 16},
        "cutoff": {"type": "number", "exclusiveMinimum": 0},
        "backend": {"enum": ["auto", "closed", "numeric"]},
        "tolerances": {
            "type": "object",
            "properties": {
                "target": {"type": "number", "exclusiveMinimum": 0},
                "cutoff": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {"format": {"enum": ["json", "table"]}},
            "additionalProperties": False,
        },
    },
    "required": ["command"],
    "additionalProperties": False,
}

_BC_TOKENS = {
    "dd": ("d", "d"),
    "nn": ("n", "n"),
    "nd": ("n", "d"),
    "dn": ("d", "n"),
    "rr": ("r", "r"),
    "nr": ("n", "r"),
    "rn": ("r", "n"),
    "dr": ("d", "r"),
    "rd": ("r", "d"),
}


def parse_cross_section(token: str):
    """point | circle:<ell> | torus:<ell1>:<ell2> | explicit:<path.json>"""
    parts = token.split(":")
    kind = parts[0].strip().lower()
    try:
        if kind == "point":
            return Point()
        if kind == "circle":
            return Circle(float(parts[1]))
        if kind == "torus":
            return FlatTorus(float(parts[1]), float(parts[2]))
        if kind == "explicit":
            path = token.split(":", 1)[1]
            with open(path, "r", encoding="utf-8") as fh:
                return explicit_from_json(json.load(fh))
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"malformed cross-section {token!r}: {exc}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read spectrum file: {exc}") from exc
    raise ValidationError(f"unknown cross-section kind {kind!r}")


def _parse_bc_pair(token: str, alpha: float):
    t = token.strip().lower()
    if t not in _BC_TOKENS:
        raise ValidationError(
            f"unknown boundary pair {token!r}; expected one of {sorted(_BC_TOKENS)}"
        )
    out = []
    for ch in _BC_TOKENS[t]:
        if ch == "d":
            out.append(BoundaryCondition.dirichlet())
        elif ch == "n":
            out.append(BoundaryCondition.neumann())
        else:
            out.append(BoundaryCondition.robin(alpha))
    return tuple(out)


_DET_CITATIONS = {
    "zero_modes": "q0-weighted kernel term",
    "residue_term": "-2L(ln2 - 1) * Res_{s=-1/2} zeta_Y(s)",
    "finite_part_term": "L * Fp_{s=-1/2} zeta_Y(s)",
    "cross_det_half": "+-(1/2) ln Det* Delta_Y",
    "det_shifted": "ln Det(sqrt(Delta_Y) + alpha) terms",
    "s_alpha_term": "large-shift expansion constant s_alpha",
    "series": "sum over mu > 0 of boundary-interaction log factors",
}

_GLUE_CITATIONS = {
    "whole_neumann": "ln Det* of the Neumann cylinder [0, L]",
    "minus_left_piece": "-ln Det of the left piece [0, a]",
    "minus_right_piece": "-ln Det of the right piece [a, L]",
    "a0": "interface expansion constant a0",
    "minus_ln_det_C": "-ln det of the kernel overlap matrix (q0 ln L)",
    "ln_det_AAt": "ln det of the interface basis-change matrix (-q0 ln alpha^2)",
    "ln_det_S1": "ln det of the left-piece kernel overlap (-q0 ln a)",
    "ln_det_S2": "ln det of the right-piece kernel overlap (-q0 ln(L-a))",
    "ln_det_star_interface": "ln Det* of the interface-jump operator",
}


# ----------------------------------------------------------------------------
# command implementations (each returns a plain report dict)
# ----------------------------------------------------------------------------


def _cmd_det(cfg: dict) -> dict:
    cs = parse_cross_section(cfg["cross_section"])
    alpha = float(cfg.get("alpha", 0.0))
    bl, br = _parse_bc_pair(cfg.get("bc", "dd"), alpha)
    tol = cfg.get("tolerances", {}).get("target", 1e-10)
    spec = CylinderSpec(cs, float(cfg["length"]), bl, br)
    rep = log_det_cylinder(spec, tol=min(tol, 1e-12), backend=cfg.get("backend", "auto"))
    return {
        "log_det": rep.log_det,
        "value": rep.log_det,
        "phase": rep.phase_multiple,
        "kernel_dim": rep.kernel_dim,
        "terms": rep.terms,
        "tolerance_achieved": rep.truncation,
        "citations": {k: _DET_CITATIONS.get(k, "") for k in rep.terms},
    }


def _cmd_dn_spec(cfg: dict) -> dict:
    cs = parse_cross_section(cfg["cross_section"])
    geometry = cfg.get("geometry", "both_ends")
    alpha = float(cfg.get("alpha", 0.0))
    cutoff = float(cfg.get("cutoff", 100.0))
    if "cut" in cfg and geometry in ("cut_left", "cut_right"):
        # the piece length follows from the cut position
        length = float(cfg["cut"]) if geometry == "cut_left" else float(cfg["length"]) - float(cfg["cut"])
    else:
        length = float(cfg["length"])
    sp = spec_interface(cs, geometry, length, alpha, cutoff=cutoff)
    det = log_det_interface(sp, cs)
    return {
        "value": det.log_modulus,
        "phase": det.phase_multiple,
        "kernel_dim": sp.zero_modes,
        "terms": {"log_det_regularized": det.log_modulus},
        "entries": [[v, m] for v, m in sp.entries],
        "zero_modes": sp.zero_modes,
        "provenance": sp.provenance,
        "tolerance_achieved": 1e-12,
        "citations": {
            "log_det_regularized": "regularized leading part plus convergent correction series"
        },
    }


def _cmd_glue(cfg: dict) -> dict:
    cs = parse_cross_section(cfg["cross_section"])
    alpha = float(cfg.get("alpha", 0.0))
    gcfg = GluingConfig(cs, float(cfg["length"]), float(cfg["cut"]), alpha)
    tol = cfg.get("tolerances", {}).get("target", 1e-10)
    if alpha == 0.0:
        rep = glue_neumann_check(gcfg, tol=min(tol, 1e-12))
    else:
        rep = glue_robin_check(gcfg, tol=min(tol, 1e-12))
    terms = {f"lhs.{k}": v for k, v in rep.lhs_terms.items()}
    terms.update({f"rhs.{k}": v for k, v in rep.rhs_terms.items()})
    return {
        "value": rep.residual,
        "residual": rep.residual,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "phase": rep.lhs_phase - rep.rhs_phase,
        "lhs_phase": rep.lhs_phase,
        "rhs_phase": rep.rhs_phase,
        "phase_match": rep.phase_match,
        "terms": terms,
        "tolerance_achieved": rep.truncation,
        "citations": {
            key: _GLUE_CITATIONS.get(key.split(".", 1)[1], "") for key in terms
        },
    }


def _cmd_zeta(cfg: dict) -> dict:
    cs = parse_cross_section(cfg["cross_section"])
    backend = cfg.get("backend", "auto")
    if cfg.get("det_star"):
        det = log_det_star(cs, backend=backend)
        return {
            "value": det.log_modulus,
            "phase": det.phase_multiple,
            "kernel_dim": det.excluded_zero_modes,
            "terms": {"log_det_star": det.log_modulus},
            "tolerance_achieved": 1e-10,
            "citations": {"log_det_star": "-d/ds at 0 of the zero-excluded zeta"},
        }
    if "shift" in cfg:
        det = log_det_shifted(cs, float(cfg["shift"]), backend=backend)
        return {
            "value": det.log_modulus,
            "phase": det.phase_multiple,
            "kernel_dim": kernel_dim(cs),
            "terms": {"log_det_shifted": det.log_modulus},
            "tolerance_achieved": 1e-10,
            "citations": {
                "log_det_shifted": "ln Det(sqrt(Delta_Y) + alpha), zero modes included"
            },
        }
    zp = zeta_point(
        cs, float(cfg.get("s", 0.0)), include_zero=bool(cfg.get("include_zero")), backend=backend
    )
    return {
        "value": zp.value,
        "residue": zp.residue,
        "location": zp.location,
        "phase": 0,
        "terms": {"finite_part": zp.value, "residue": zp.residue},
        "tolerance_achieved": 1e-10,
        "citations": {
            "finite_part": "regular value / finite part of the spectral zeta",
            "residue": "residue at the requested point (0 when regular)",
        },
    }


def _cmd_oracle_compare(cfg: dict) -> dict:
    alpha = float(cfg.get("alpha", 0.0))
    L = float(cfg["length"])
    bl, br = _parse_bc_pair(cfg.get("bc", "rr"), alpha)
    rl, rr_ = _parse_bc_pair(cfg.get("ref_bc", "dd"), alpha)
    count = int(cfg.get("count", 4096))
    prob = SecularProblem(L, bl, br)
    ref = SecularProblem(L, rl, rr_)
    rel = relative_log_det(prob, ref, count=count)

    pt = Point()
    closed = log_det_cylinder(CylinderSpec(pt, L, bl, br)).log_det - log_det_cylinder(
        CylinderSpec(pt, L, rl, rr_)
    ).log_det
    return {
        "value": rel.value,
        "closed_form": closed,
        "delta": rel.value - closed,
        "phase": 0,
        "zero_modes": list(rel.zero_modes),
        "terms": {"oracle_relative": rel.value, "closed_relative": closed},
        "tolerance_achieved": rel.error_estimate,
        "citations": {
            "oracle_relative": "extrapolated eigenvalue-ratio sum from secular roots",
            "closed_relative": "difference of closed-form segment determinants",
        },
    }


_COMMANDS = {
    "det": _cmd_det,
    "dn-spec": _cmd_dn_spec,
    "glue": _cmd_glue,
    "zeta": _cmd_zeta,
    "oracle-compare": _cmd_oracle_compare,
}


def run(config: dict):
    """Validate one run configuration and execute it.

    Returns ``(exit_code, report_dict)``; the report carries an ``error``
    key instead of results when the exit code is nonzero.
    """
    try:
        jsonschema.validate(config, _CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        return EXIT_VALIDATION, {"error": f"config validation: {exc.message}"}
    try:
        report = _COMMANDS[config["command"]](config)
    except SingularParameterError as exc:
        return EXIT_INADMISSIBLE, {"error": str(exc)}
    except ConvergenceError as exc:
        return EXIT_NONCONVERGENCE, {"error": str(exc), "achieved": exc.achieved}
    except (ValidationError, KeyError) as exc:
        msg = str(exc) if str(exc) else repr(exc)
        return EXIT_VALIDATION, {"error": f"invalid configuration: {msg}"}
    except ZetaGlueError as exc:
        return EXIT_VALIDATION, {"error": str(exc)}
    report["command"] = config["command"]
    report["version"] = __version__
    return EXIT_OK, report


def _render_table(report: dict) -> str:
    lines = []
    lines.append(f"command: {report.get('command', '')}")
    for key in sorted(report):
        if key in ("terms", "citations", "entries", "command"):
            continue
        lines.append(f"{key:22s} {report[key]}")
    terms = report.get("terms", {})
    if terms:
        lines.append("terms:")
        for k, v in terms.items():
            lines.append(f"  {k:28s} {v!r:26s} {report.get('citations', {}).get(k, '')}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zetaglue",
        description="zeta-regularized cylinder determinants and gluing checks",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command")

    def common(p, need_cross=True):
        if need_cross:
            p.add_argument("--cross", required=False, help="point | circle:ell | torus:l1:l2 | explicit:path")
        p.add_argument("--config", help="JSON config file mirroring the flags")
        p.add_argument("--format", choices=["json", "table"], default=None)
        p.add_argument("--target", type=float, default=None, help="tolerance target")
        p.add_argument("--backend", choices=["auto", "closed", "numeric"], default=None)

    p = sub.add_parser("det", help="cylinder log-determinant")
    common(p)
    p.add_argument("--L", type=float, dest="length")
    p.add_argument("--bc", default=None, help="dd|nn|nd|dn|rr|nr|rn")
    p.add_argument("--alpha", type=float, default=None)

    p = sub.add_parser("dn-spec", help="interface-operator spectrum")
    common(p)
    p.add_argument("--L", type=float, dest="length")
    p.add_argument("--a", type=float, dest="cut", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--geometry", default=None,
                   choices=["both_ends", "left_neumann_cut", "cut_left", "cut_right"])
    p.add_argument("--cutoff", type=float, default=None)

    p = sub.add_parser("glue", help="gluing identity residual")
    common(p)
    p.add_argument("--L", type=float, dest="length")
    p.add_argument("--a", type=float, dest="cut")
    p.add_argument("--alpha", type=float, default=None)

    p = sub.add_parser("zeta", help="cross-section zeta data")
    common(p)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--shift", type=float, default=None)
    p.add_argument("--det-star", action="store_true", dest="det_star")
    p.add_argument("--include-zero", action="store_true", dest="include_zero")

    p = sub.add_parser("oracle-compare", help="segment oracle vs closed form")
    common(p, need_cross=False)
    p.add_argument("--L", type=float, dest="length")
    p.add_argument("--bc", default=None)
    p.add_argument("--ref-bc", dest="ref_bc", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--count", type=int, default=None)
    return ap


def _config_from_args(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config file: {exc}") from exc
    if args.command:
        cfg["command"] = args.command
    mapping = {
        "cross": "cross_section",
        "length": "length",
        "cut": "cut",
        "alpha": "alpha",
        "bc": "bc",
        "ref_bc": "ref_bc",
        "geometry": "geometry",
        "s": "s",
        "shift": "shift",
        "count": "count",
        "cutoff": "cutoff",
        "backend": "backend",
    }
    for attr, key in mapping.items():
        val = getattr(args, attr, None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "det_star", False):
        cfg["det_star"] = True
    if getattr(args, "include_zero", False):
        cfg["include_zero"] = True
    if args.target is not None:
        cfg.setdefault("tolerances", {})["target"] = args.target
    if args.format is not None:
        cfg.setdefault("output", {})["format"] = args.format
    return cfg


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if not args.command and not getattr(args, "config", None):
        ap.print_help(sys.stderr)
        return EXIT_VALIDATION
    try:
        cfg = _config_from_args(args)
    except ValidationError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stdout)
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION

    out_format = cfg.pop("output", {}).get("format", "json")
    code, report = run(cfg)
    if code == EXIT_OK:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if out_format == "table" and code == EXIT_OK:
        print(_render_table(report))
    else:
        print(json.dumps(report, sort_keys=True))
    if code != EXIT_OK:
        print(report.get("error", "error"), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
