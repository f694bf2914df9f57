"""Command-line front end: config ingestion, dispatch, JSON reports.

Subcommands::

    det             cylinder log-determinant for one boundary pair
    dn-spec         truncated interface-operator spectrum
    glue            both sides of a gluing identity with residual
    zeta            zeta values / regularized determinants of the cross-section
    oracle-compare  segment closed form vs the root-finding oracle

Reports are JSON on stdout (newline-terminated, deterministic except for
the ``timestamp`` field; floats use exact round-trip encoding);
diagnostics go to stderr.  A subcommand takes only the flags of the keys it
reads (``--target`` only ``det`` and ``glue``), a ``--config`` file only those
keys, and neither takes a key that the chosen mode ignores.  Exit codes: 0
success, 2 validation error (NaN and inf included), 3 numerical
non-convergence or overflow, 4 inadmissible (singular) parameters.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import NamedTuple, Optional

from . import __version__
from .cylinder import BoundaryCondition, CylinderSpec, log_det_cylinder
from .errors import (
    ConvergenceError,
    SingularParameterError,
    ValidationError,
    ZetaGlueError,
)
from .gluing import GluingConfig, glue_neumann_check, glue_robin_check
from .interface_ops import log_det_interface, spec_interface
from .oracle import SecularProblem, relative_log_det
from .spectra import Circle, FlatTorus, Point, explicit_from_json, kernel_dim
from .zreg import log_det_shifted, log_det_star, zeta_point

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_INADMISSIBLE = 4

# every two-letter word over d, n, r, in sorted order
_BC_PAIRS = [left + right for left in "dnr" for right in "dnr"]
# the boundary-pair keys of the commands that read them, with their defaults
_BC_DEFAULTS = {"det": {"bc": "dd"}, "oracle-compare": {"bc": "rr", "ref_bc": "dd"}}


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
    if t not in _BC_PAIRS:
        raise ValidationError(
            f"unknown boundary pair {token!r}; expected one of {_BC_PAIRS}"
        )
    return tuple(
        BoundaryCondition.robin(alpha) if ch == "r" else BoundaryCondition.parse(ch)
        for ch in t
    )


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
    """cylinder log-determinant"""
    cs = parse_cross_section(cfg["cross_section"])
    alpha = float(cfg.get("alpha", 0.0))
    bl, br = _parse_bc_pair(cfg.get("bc", _BC_DEFAULTS["det"]["bc"]), alpha)
    tol = cfg.get("tolerances", {}).get("target", 1e-12)
    spec = CylinderSpec(cs, float(cfg["length"]), bl, br)
    rep = log_det_cylinder(spec, tol=tol, backend=cfg.get("backend", "auto"))
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
    """interface-operator spectrum"""
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
    det = log_det_interface(sp, cs, backend=cfg.get("backend", "auto"))
    return {
        "value": det.log_modulus,
        "phase": det.phase_multiple,
        "kernel_dim": sp.zero_modes,
        "terms": {"log_det_regularized": det.log_modulus},
        "entries": [[v, m] for v, m in sp.entries],
        "zero_modes": sp.zero_modes,
        "provenance": sp.provenance,
        "citations": {
            "log_det_regularized": "regularized leading part plus convergent correction series"
        },
    }


def _cmd_glue(cfg: dict) -> dict:
    """gluing identity residual"""
    cs = parse_cross_section(cfg["cross_section"])
    alpha = float(cfg.get("alpha", 0.0))
    gcfg = GluingConfig(cs, float(cfg["length"]), float(cfg["cut"]), alpha)
    tol = cfg.get("tolerances", {}).get("target", 1e-12)
    check = glue_neumann_check if alpha == 0.0 else glue_robin_check
    rep = check(gcfg, tol=tol, backend=cfg.get("backend", "auto"))
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
    """cross-section zeta data"""
    cs = parse_cross_section(cfg["cross_section"])
    backend = cfg.get("backend", "auto")
    if cfg.get("det_star"):
        det = log_det_star(cs, backend=backend)
        return {
            "value": det.log_modulus,
            "phase": det.phase_multiple,
            "kernel_dim": det.excluded_zero_modes,
            "terms": {"log_det_star": det.log_modulus},
            "citations": {"log_det_star": "-d/ds at 0 of the zero-excluded zeta"},
        }
    if "shift" in cfg:
        det = log_det_shifted(cs, float(cfg["shift"]), backend=backend)
        return {
            "value": det.log_modulus,
            "phase": det.phase_multiple,
            "kernel_dim": kernel_dim(cs),
            "terms": {"log_det_shifted": det.log_modulus},
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
        "citations": {
            "finite_part": "regular value / finite part of the spectral zeta",
            "residue": "residue at the requested point (0 when regular)",
        },
    }


def _cmd_oracle_compare(cfg: dict) -> dict:
    """segment oracle vs closed form"""
    alpha = float(cfg.get("alpha", 0.0))
    L = float(cfg["length"])
    defaults = _BC_DEFAULTS["oracle-compare"]
    bl, br = _parse_bc_pair(cfg.get("bc", defaults["bc"]), alpha)
    rl, rr_ = _parse_bc_pair(cfg.get("ref_bc", defaults["ref_bc"]), alpha)
    count = int(cfg.get("count", 4096))
    prob = SecularProblem(L, bl, br)
    ref = SecularProblem(L, rl, rr_)
    rel = relative_log_det(prob, ref, count=count)

    pt = Point()
    backend = cfg.get("backend", "auto")
    closed = (
        log_det_cylinder(CylinderSpec(pt, L, bl, br), backend=backend).log_det
        - log_det_cylinder(CylinderSpec(pt, L, rl, rr_), backend=backend).log_det
    )
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

_ALL = tuple(_COMMANDS)
_BC_HELP = "|".join(_BC_PAIRS) + "; r is Robin(--alpha); dr and rd have no closed form"


class _Key(NamedTuple):
    """One config key: its flag, value type (float, int, str, bool or a tuple
    vocabulary), the commands that read it and a strict lower bound."""

    flag: str
    kind: object
    commands: tuple
    above: float = -math.inf
    help: Optional[str] = None


# Every config key, once.  ``build_parser`` gives each command the flags of
# the keys it reads, and ``run`` refuses any other key.  A dotted key nests
# in a config file: "tolerances.target" is {"tolerances": {"target": ...}}.
_KEYS = {
    "cross_section": _Key("--cross", str, ("det", "dn-spec", "glue", "zeta"),
                          help="point | circle:ell | torus:l1:l2 | explicit:path"),
    "output.format": _Key("--format", ("json", "table"), _ALL),
    "tolerances.target": _Key("--target", float, ("det", "glue"), 0,
                              help="bound on the series truncation (default 1e-12)"),
    "backend": _Key("--backend", ("auto", "closed", "numeric"), _ALL),
    "length": _Key("--L", float, ("det", "dn-spec", "glue", "oracle-compare"), 0),
    "cut": _Key("--a", float, ("dn-spec", "glue"), 0),
    "alpha": _Key("--alpha", float, ("det", "dn-spec", "glue", "oracle-compare")),
    "bc": _Key("--bc", str, ("det", "oracle-compare"), help=_BC_HELP),
    "ref_bc": _Key("--ref-bc", str, ("oracle-compare",), help=_BC_HELP),
    "geometry": _Key("--geometry", ("both_ends", "left_neumann_cut", "cut_left", "cut_right"),
                     ("dn-spec",)),
    "cutoff": _Key("--cutoff", float, ("dn-spec",), 0),
    "s": _Key("--s", float, ("zeta",)),
    "shift": _Key("--shift", float, ("zeta",)),
    "det_star": _Key("--det-star", bool, ("zeta",)),
    "include_zero": _Key("--include-zero", bool, ("zeta",)),
    "count": _Key("--count", int, ("oracle-compare",), 15),  # at least 16
}
_GROUPS = {key.split(".")[0] for key in _KEYS if "." in key}


def _value_error(row: _Key, value) -> Optional[str]:
    """What is wrong with one config value, or None."""
    if isinstance(row.kind, tuple):
        return None if value in row.kind else f"must be one of {list(row.kind)}"
    if row.kind in (str, bool):
        return None if isinstance(value, row.kind) else f"must be a {row.kind.__name__}"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "must be a number"
    if row.kind is int and value % 1:
        return "must be an integer"
    if not -math.inf < value < math.inf:
        return "must be finite"
    return None if value > row.above else f"must be > {row.above}"


def _config_error(config) -> Optional[str]:
    """The first way ``config`` breaks the key table, or None."""
    if not isinstance(config, dict):
        return f"a config is an object, got {config!r}"
    command = config.get("command")
    if command not in _ALL:
        return f"command must be one of {list(_ALL)}, got {command!r}"
    flat = [(key, v) for key, v in config.items() if key != "command" and key not in _GROUPS]
    for group in [key for key in config if key in _GROUPS]:
        if not isinstance(config[group], dict):
            return f"{group} must be an object, got {config[group]!r}"
        flat += [(f"{group}.{key}", v) for key, v in config[group].items()]
    for key, value in flat:
        # a config spells a dotted key nested, so a dotted top-level key is unknown
        if key not in _KEYS or ("." in key and key in config):
            return f"unknown key {key!r}"
        if command not in _KEYS[key].commands:
            return f"{command} does not read {key!r}"
        problem = _value_error(_KEYS[key], value)
        if problem:
            return f"{key} {problem}, got {value!r}"
    return None


def _reads_alpha(config: dict) -> bool:
    """Whether the boundary pairs of a ``_BC_DEFAULTS`` command read alpha:
    an r end does, and a malformed pair is left for the command to refuse
    by name."""
    tokens = [config.get(key, d).strip().lower() for key, d in _BC_DEFAULTS[config["command"]].items()]
    return any("r" in token or token not in _BC_PAIRS for token in tokens)


def _mode_error(config: dict) -> Optional[str]:
    """A key that the mode the other keys choose does not read, or None."""
    command, geometry = config["command"], config.get("geometry", "both_ends")
    if command == "dn-spec" and geometry in ("both_ends", "left_neumann_cut"):
        mode, unread = f"geometry {geometry!r}", ("cut",)
    elif command == "zeta" and config.get("det_star"):
        mode, unread = "det_star", ("shift", "s", "include_zero")
    elif command == "zeta" and "shift" in config:
        mode, unread = "shift", ("s", "include_zero")
    elif command in _BC_DEFAULTS and not _reads_alpha(config):
        mode, unread = "no Robin end", ("alpha",)
    else:
        return None
    key = next((key for key in unread if key in config), None)
    return f"{command} with {mode} does not read {key!r}" if key else None


def run(config: dict):
    """Validate one run configuration against the key table and execute it.

    Returns ``(exit_code, report_dict)``; the report carries an ``error``
    key instead of results when the exit code is nonzero.
    """
    error = _config_error(config) or _mode_error(config)
    if error:
        return EXIT_VALIDATION, {"error": f"config validation: {error}"}
    try:
        report = _COMMANDS[config["command"]](config)
    except SingularParameterError as exc:
        return EXIT_INADMISSIBLE, {"error": str(exc)}
    except ConvergenceError as exc:
        return EXIT_NONCONVERGENCE, {"error": str(exc), "achieved": exc.achieved}
    except OverflowError as exc:
        return EXIT_NONCONVERGENCE, {"error": f"numeric overflow: {exc}"}
    except (ZetaGlueError, KeyError) as exc:
        msg = str(exc) if str(exc) else repr(exc)
        return EXIT_VALIDATION, {"error": f"invalid configuration: {msg}"}
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
    """A flag's ``dest`` is its config key, and an absent flag leaves no
    attribute, so the namespace is the flag part of the config."""
    ap = argparse.ArgumentParser(
        prog="zetaglue",
        description="zeta-regularized cylinder determinants and gluing checks",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.__doc__, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON config file mirroring the flags")
        for key, row in _KEYS.items():
            if name not in row.commands:
                continue
            if row.kind is bool:
                opts = {"action": "store_true"}
            elif isinstance(row.kind, tuple):
                opts = {"choices": row.kind}
            else:
                opts = {"type": row.kind, "metavar": row.flag.lstrip("-").upper()}
            p.add_argument(row.flag, dest=key, help=row.help, **opts)
    return ap


def _config_from_args(args: argparse.Namespace) -> dict:
    flags = vars(args)
    cfg: dict = {}
    path = flags.pop("config", None)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config file: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ValidationError("a config file holds one JSON object")
    for key, value in flags.items():
        group, _, name = key.rpartition(".")
        node = cfg.setdefault(group, {}) if group else cfg
        if isinstance(node, dict):  # otherwise run refuses the group
            node[name] = value
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        code, report = run(cfg)
    except ValidationError as exc:  # the config file cannot be read
        code, report = EXIT_VALIDATION, {"error": str(exc)}
    if code != EXIT_OK:
        print(json.dumps(report, sort_keys=True))
        print(report["error"], file=sys.stderr)
        return code
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    # run has checked that ``output``, when given, is an object
    table = cfg.get("output", {}).get("format") == "table"
    print(_render_table(report) if table else json.dumps(report, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
