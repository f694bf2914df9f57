"""CLI surface: reports, exit codes, round trips, determinism."""

import argparse
import json
import math
import os
import shlex
import subprocess
import sys

import pytest

from zetaglue import cli
from zetaglue.cli import (
    EXIT_INADMISSIBLE,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_VALIDATION,
    _config_error,
    _config_from_args,
    build_parser,
    main,
    run,
)
from zetaglue import spectra
from zetaglue.spectra import Circle, explicit_mirror

CIRCLE = "circle:6.283185307179586"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run_python(*args):
    """Run this interpreter with ``src`` first on PYTHONPATH: subprocesses
    do not see the ``pythonpath`` setting pytest reads from pyproject.toml."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, env=env
    )


def run_cli(args):
    return run_python("-m", "zetaglue.cli", *args)


class TestRun:
    def test_det_segment(self):
        code, rep = run({"command": "det", "cross_section": "point", "length": 1.0, "bc": "dd"})
        assert code == EXIT_OK
        assert rep["log_det"] == pytest.approx(math.log(2.0), abs=1e-14)

    def test_glue_residual(self):
        code, rep = run(
            {"command": "glue", "cross_section": CIRCLE, "length": 2.0, "cut": 0.7, "alpha": 0.0}
        )
        assert code == EXIT_OK
        assert rep["residual"] < 1e-8
        assert rep["phase_match"] is True

    def test_inadmissible_parameter_maps_to_4(self):
        code, rep = run(
            {
                "command": "det",
                "cross_section": CIRCLE,
                "length": 1.0,
                "bc": "rr",
                "alpha": -1.0,
            }
        )
        assert code == EXIT_INADMISSIBLE
        assert "error" in rep

    def test_schema_validation_maps_to_2(self):
        code, rep = run({"command": "nonsense"})
        assert code == EXIT_VALIDATION
        code, rep = run({"command": "det", "cross_section": "point", "length": -1.0})
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("config, key", [
        ({"command": "det", "foo": 1}, "foo"),
        ({"command": "det", "output": {"colour": "red"}}, "output.colour"),
        ({"command": "det", "tolerances": 5}, "tolerances"),
        ({"command": "det", "length": True}, "length"),
        ({"command": "det", "length": "1"}, "length"),
        ({"command": "det", "length": 0}, "length"),
        ({"command": "glue", "cut": -0.5}, "cut"),
        ({"command": "dn-spec", "cutoff": 0.0}, "cutoff"),
        ({"command": "det", "tolerances": {"target": 0}}, "tolerances.target"),
        ({"command": "oracle-compare", "count": 64.5}, "count"),
        ({"command": "oracle-compare", "count": 8}, "count"),
        ({"command": "oracle-compare", "count": True}, "count"),
        ({"command": "dn-spec", "geometry": "middle"}, "geometry"),
        ({"command": "det", "backend": "fast"}, "backend"),
        ({"command": "det", "output": {"format": "xml"}}, "output.format"),
        ({"command": "zeta", "det_star": 1}, "det_star"),
        # keys the command does not read
        ({"command": "dn-spec", "s": 0.5, "det_star": True}, "'s'"),
        ({"command": "zeta", "tolerances": {"target": 1e-30}}, "tolerances.target"),
        ({"command": "oracle-compare", "cross_section": "point"}, "cross_section"),
        # non-finite numbers
        ({"command": "det", "length": math.inf}, "length"),
        ({"command": "det", "alpha": math.nan}, "alpha"),
        ({"command": "zeta", "s": math.nan}, "s must be finite"),
        ({"command": "zeta", "shift": -math.inf}, "shift"),
        ({"command": "glue", "tolerances": {"target": math.inf}}, "tolerances.target"),
        # a dotted key is spelled nested in a config, never at the top level
        ({"command": "det", "tolerances.target": 1e-9}, "tolerances.target"),
        ({"command": "det", "output.format": "table"}, "output.format"),
        # keys the mode chosen by the other keys does not read
        ({"command": "dn-spec", "cut": 0.5}, "'cut'"),
        ({"command": "dn-spec", "geometry": "both_ends", "cut": 0.5}, "'cut'"),
        ({"command": "dn-spec", "geometry": "left_neumann_cut", "cut": 0.5}, "'cut'"),
        ({"command": "zeta", "det_star": True, "shift": 0.3}, "'shift'"),
        ({"command": "zeta", "det_star": True, "s": 0.5}, "'s'"),
        ({"command": "zeta", "det_star": True, "include_zero": True}, "'include_zero'"),
        ({"command": "zeta", "shift": 0.3, "s": 0.5}, "'s'"),
        ({"command": "zeta", "shift": 0.3, "include_zero": True}, "'include_zero'"),
        ({"command": "det", "alpha": 0.0}, "'alpha'"),  # the default pair dd
        ({"command": "oracle-compare", "ref_bc": "nn", "bc": "DN", "alpha": 0.5}, "'alpha'"),
    ])
    def test_config_refusals_name_the_key(self, config, key):
        code, rep = run(config)
        assert code == EXIT_VALIDATION
        assert rep["error"].startswith("config validation:") and key in rep["error"]

    def test_overflow_maps_to_3(self, monkeypatch, capsys):
        def overflow(cfg):
            raise OverflowError("math range error")

        monkeypatch.setitem(cli._COMMANDS, "det", overflow)
        assert main(["det", "--cross", "point", "--L", "1", "--bc", "dd"]) == EXIT_NONCONVERGENCE
        assert "overflow" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize("alpha", ["1e200", "1e308", "-1e200"])
    @pytest.mark.parametrize("cross", ["point", "circle:6.28", "torus:6.28:3"])
    def test_huge_alpha_is_refused_by_name(self, cross, alpha, capsys):
        # alpha^2 in the spectral cutoffs would overflow
        for argv in (
            ["det", "--bc", "nr", "--L", "1"],
            ["det", "--bc", "rr", "--L", "1"],
            ["glue", "--L", "1", "--a", "0.4"],
        ):
            assert main(argv + ["--cross", cross, f"--alpha={alpha}"]) == EXIT_VALIDATION, argv
            error = json.loads(capsys.readouterr().out)["error"]
            assert "alpha must be finite with |alpha| <= 1e150" in error, argv

    @pytest.mark.parametrize("cross", ["circle:6.28", "torus:6.28:3"])
    def test_alpha_past_the_mode_budget_is_refused_before_enumerating(self, cross, capsys, monkeypatch):
        # the admissibility scan would list the modes up to (|alpha| + 2/L + 1)^2
        listed = []
        monkeypatch.setattr(spectra.Circle, "_lattice", lambda cs, cutoff: listed.append(cutoff))
        monkeypatch.setattr(spectra.FlatTorus, "_lattice", lambda cs, cutoff: listed.append(cutoff))
        for argv in (
            ["det", "--bc", "nr", "--L", "1"],
            ["det", "--bc", "rr", "--L", "1"],
            ["glue", "--L", "1", "--a", "0.4"],
        ):
            assert main(argv + ["--cross", cross, "--alpha=1e20"]) == EXIT_VALIDATION, argv
            error = json.loads(capsys.readouterr().out)["error"]
            assert "alpha = 1e+20" in error and "mode budget" in error, argv
        assert listed == []

    def test_cut_near_an_end_is_refused_by_its_length(self, capsys, monkeypatch):
        # the left piece's series would list about 4e6 torus modes
        lattice = spectra.FlatTorus._lattice

        def capped(cs, cutoff):
            assert cs.ell1 * cs.ell2 / (4.0 * math.pi) * cutoff <= 1e6, cutoff
            return lattice(cs, cutoff)

        monkeypatch.setattr(spectra.FlatTorus, "_lattice", capped)
        argv = ["glue", "--cross", "torus:6.283185307179586:3", "--L", "1", "--a", "0.005"]
        assert main(argv + ["--alpha", "0.3"]) == EXIT_VALIDATION
        error = json.loads(capsys.readouterr().out)["error"]
        assert "length = 0.005 needs the spectrum" in error and "mode budget" in error

    def test_target_sets_the_series_truncation(self):
        cfg = {"command": "det", "cross_section": CIRCLE, "length": 1.5, "bc": "rr", "alpha": 0.4}
        default = run(cfg)[1]
        loose = run(dict(cfg, tolerances={"target": 1e-6}))[1]
        tight = run(dict(cfg, tolerances={"target": 1e-14}))[1]
        assert default == run(dict(cfg, tolerances={"target": 1e-12}))[1]
        assert default["log_det"] == 1.6689302806981474
        assert loose["tolerance_achieved"] <= 1e-6
        assert loose["log_det"] == 1.6689303052905076
        assert (tight["log_det"], tight["tolerance_achieved"]) == (
            1.668930280698139, 3.3354053001742056e-21
        )

    def test_only_computed_bounds_are_reported(self):
        for cfg in (
            {"command": "dn-spec", "cross_section": CIRCLE, "length": 2.0, "alpha": 0.3},
            {"command": "zeta", "cross_section": CIRCLE, "s": -0.5},
            {"command": "zeta", "cross_section": CIRCLE, "det_star": True},
            {"command": "zeta", "cross_section": CIRCLE, "shift": 0.3},
        ):
            code, rep = run(cfg)
            assert code == EXIT_OK and "tolerance_achieved" not in rep, cfg

    def test_tolerances_take_no_cutoff(self, tmp_path, capsys):
        # the spectral cutoffs follow from the target; nothing reads a cutoff here
        cfg = {"command": "det", "cross_section": "point", "length": 1.0, "bc": "dd",
               "tolerances": {"target": 1e-10, "cutoff": 100.0}}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert main(["det", "--config", str(path)]) == EXIT_VALIDATION
        assert "cutoff" in json.loads(capsys.readouterr().out)["error"]

    def test_unknown_cross_section(self):
        code, rep = run({"command": "det", "cross_section": "sphere:1", "length": 1.0, "bc": "dd"})
        assert code == EXIT_VALIDATION

    def test_zeta_command(self):
        code, rep = run({"command": "zeta", "cross_section": CIRCLE, "s": 0.0})
        assert code == EXIT_OK
        assert rep["value"] == pytest.approx(-1.0, abs=1e-13)
        code, rep = run({"command": "zeta", "cross_section": CIRCLE, "det_star": True})
        assert rep["value"] == pytest.approx(2.0 * math.log(2.0 * math.pi), abs=1e-12)
        code, rep = run({"command": "zeta", "cross_section": CIRCLE, "shift": 1.0})
        assert rep["value"] == pytest.approx(math.log(2.0 * math.pi), abs=1e-12)

    def test_torus_shift_past_the_old_refusal_exits_0(self, capsys):
        # the fixed-point torus row refused from |alpha| = 3.05 on this torus (exit 3)
        assert main(["zeta", "--cross", "torus:6.283185307179586:3", "--shift", "5"]) == EXIT_OK
        assert math.isfinite(json.loads(capsys.readouterr().out)["value"])

    def test_dn_spec_command(self):
        code, rep = run(
            {
                "command": "dn-spec",
                "cross_section": "point",
                "length": 2.0,
                "geometry": "both_ends",
                "alpha": 0.25,
            }
        )
        assert code == EXIT_OK
        assert rep["entries"] == [[0.25, 1], [1.25, 1]]
        assert rep["zero_modes"] == 0

    def test_oracle_compare_command(self):
        code, rep = run(
            {
                "command": "oracle-compare",
                "length": 1.0,
                "bc": "rr",
                "ref_bc": "dd",
                "alpha": 1.0,
                "count": 2048,
            }
        )
        assert code == EXIT_OK
        assert abs(rep["delta"]) < 1e-6

    def test_every_command_honours_backend(self, tmp_path, capsys):
        # an explicit cross-section has no closed form, so forcing the
        # closed backend must be refused wherever zeta data are read
        mirror = explicit_mirror(Circle(8.5), 300.0)
        doc = {
            "dim": mirror.dim,
            "entries": [[e.eigenvalue, e.multiplicity] for e in mirror.entries],
            "heat": {"coeffs": list(mirror.heat.coeffs), "exact": mirror.heat.exact},
        }
        path = tmp_path / "mirror.json"
        path.write_text(json.dumps(doc))
        cross = ["--cross", f"explicit:{path}", "--backend", "closed"]
        for argv in (
            ["det", "--L", "2", "--bc", "rr", "--alpha", "0.37"],
            ["glue", "--L", "2", "--a", "0.7", "--alpha", "0.37"],
            ["glue", "--L", "2", "--a", "0.7", "--alpha", "0"],
            ["dn-spec", "--L", "2", "--alpha", "0.37"],
            ["dn-spec", "--L", "2", "--alpha", "0"],
        ):
            assert main(argv + cross) == EXIT_VALIDATION, argv
            assert "closed-form backend" in json.loads(capsys.readouterr().out)["error"]


class TestReportContracts:
    def test_terms_resum_exactly(self):
        code, rep = run(
            {"command": "det", "cross_section": CIRCLE, "length": 1.0, "bc": "rr", "alpha": 0.4}
        )
        assert code == EXIT_OK
        text = json.dumps(rep)
        parsed = json.loads(text)
        assert math.fsum(parsed["terms"].values()) == parsed["log_det"]

    def test_every_term_is_cited(self):
        code, rep = run(
            {"command": "det", "cross_section": CIRCLE, "length": 1.0, "bc": "nn"}
        )
        assert set(rep["citations"]) == set(rep["terms"])
        assert all(rep["citations"].values())


class TestProcessInterface:
    def test_closed_form_checks_load_no_scipy(self):
        # the library does not use scipy, whose import would dominate a CLI
        # call's start-up; the mirror check runs on the numeric backend
        code = (
            "import math, sys\n"
            "import zetaglue.cli\n"
            "from zetaglue.gluing import GluingConfig, glue_robin_check\n"
            "from zetaglue.spectra import Circle, FlatTorus, explicit_mirror\n"
            "glue_robin_check(GluingConfig(Circle(2 * math.pi), 2.0, 0.7, 0.3))\n"
            "glue_robin_check(GluingConfig(FlatTorus(2.0, 3.0), 2.0, 0.7, 0.3))\n"
            "glue_robin_check(GluingConfig(explicit_mirror(Circle(8.5), 300.0), 2.0, 0.9, 0.37))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_oracle_loads_no_scipy_optimize(self):
        # the oracle's roots come from numpy alone, so a run that checks
        # them never pays scipy's import
        code = (
            "import sys\n"
            "from zetaglue.cylinder import BoundaryCondition as BC\n"
            "from zetaglue.oracle import SecularProblem, relative_log_det\n"
            "rr = SecularProblem(1.0, BC.robin(0.25), BC.robin(0.25))\n"
            "dd = SecularProblem(1.0, BC.dirichlet(), BC.dirichlet())\n"
            "relative_log_det(rr, dd, count=1024)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_det_example(self):
        proc = run_cli(["det", "--cross", "point", "--L", "1", "--bc", "dd"])
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["log_det"] == pytest.approx(0.6931471805599453, abs=1e-15)

    def test_glue_example(self):
        proc = run_cli(
            ["glue", "--cross", CIRCLE, "--L", "2", "--a", "0.7", "--alpha", "0"]
        )
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["residual"] < 1e-8

    def test_exit_code_4(self):
        proc = run_cli(
            ["det", "--bc", "rr", "--alpha", "-1", "--cross", CIRCLE, "--L", "1"]
        )
        assert proc.returncode == 4

    def test_determinism_modulo_timestamp(self):
        args = ["det", "--cross", CIRCLE, "--L", "1.5", "--bc", "rr", "--alpha", "0.3"]
        out1 = json.loads(run_cli(args).stdout)
        out2 = json.loads(run_cli(args).stdout)
        out1.pop("timestamp"), out2.pop("timestamp")
        assert json.dumps(out1, sort_keys=True) == json.dumps(out2, sort_keys=True)

    def test_config_file_run(self, tmp_path):
        cfg = {
            "command": "det",
            "cross_section": "point",
            "length": 2.0,
            "bc": "rr",
            "alpha": 0.5,
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli(["det", "--config", str(path)])
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["log_det"] == pytest.approx(math.log(2 * 0.5 * (2 * 0.5 + 2)), abs=1e-13)

    def test_table_format(self):
        proc = run_cli(["det", "--cross", "point", "--L", "1", "--bc", "dd", "--format", "table"])
        assert proc.returncode == 0
        assert "log_det" in proc.stdout

    def test_explicit_cross_section_file(self, tmp_path):
        doc = {
            "dim": 0,
            "entries": [[0.0, 1]],
            "heat": {"coeffs": [1.0], "exact": True},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(["det", "--cross", f"explicit:{path}", "--L", "1", "--bc", "dd"])
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["log_det"] == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("entries", [
        [[0.0, 1], ["inf", 2]],  # an infinite entry used to pass the list off as complete (exit 3)
        [[0.0, 1], ["nan", 2]],
        [[0.0, 1], [1.0, 2.5]],
        [[0.0, 1], [1.0, True]],
        [[0, 1], 5],
        5,
        [["abc", 2]],
    ], ids=["inf", "nan", "fraction", "bool", "not-a-pair", "not-a-list", "word"])
    def test_malformed_explicit_file_exits_2(self, tmp_path, entries):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dim": 1, "entries": entries, "heat": {"coeffs": [0.5]}}))
        code, rep = run({"command": "det", "cross_section": f"explicit:{path}", "length": 1.0, "bc": "dd"})
        assert code == EXIT_VALIDATION, rep

    @pytest.mark.parametrize("doc", [
        {"dim": 1, "entries": [[0.0, 1], ["inf", 2]], "heat": {"coeffs": [0.5]}},
        {"dim": 1, "entries": [[0, 1], 5]},
        {"dim": 1.7, "entries": [[0.0, 1]]},
        {"dim": 1, "entries": [[0.0, 1]], "heat": {}},
    ], ids=["inf", "not-a-pair", "fractional-dim", "empty-heat"])
    def test_malformed_explicit_file_exits_2_from_the_command_line(self, tmp_path, doc):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(["det", "--cross", f"explicit:{path}", "--L", "1", "--bc", "dd"])
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_cli_import_loads_no_jsonschema(self):
        # the key table validates configs; a schema library would add about
        # 0.15 s to every CLI start-up
        code = (
            "import sys\n"
            "import zetaglue.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('jsonschema', 'referencing')))\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_readme_cli_examples_run(self, capsys):
        # a flag that leaves a subcommand must take the README example with it
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            block = fh.read().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line)[1:] for line in block.splitlines() if line.strip()]
        assert len(commands) == 7

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        for argv in commands:
            assert main(argv) == EXIT_OK, argv
            json.loads(capsys.readouterr().out, parse_constant=reject)

    def test_non_finite_flags_and_unread_flags_exit_2(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"cross_section": CIRCLE, "length": 1.0, "alpha": math.nan}))
        for argv, key in (
            (["det", "--cross", "point", "--L", "inf", "--bc", "dd"], "length"),
            (["zeta", "--cross", "point", "--s", "nan"], "s"),
            (["zeta", "--cross", "point", "--shift", "nan"], "shift"),
            (["det", "--bc", "nr", "--config", str(path)], "alpha"),
        ):
            assert main(argv) == EXIT_VALIDATION, argv
            assert f"{key} must be finite" in json.loads(capsys.readouterr().out)["error"]
        # argparse refuses a flag its subcommand does not read
        with pytest.raises(SystemExit) as exc:
            main(["zeta", "--cross", "point", "--s", "0", "--target", "1e-30"])
        assert exc.value.code == EXIT_VALIDATION

    def test_in_process_main(self, capsys):
        code = main(["zeta", "--cross", "point", "--s", "0"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["value"] == 0.0


# flag -> (schema key path, argv text, parsed value, a different config-file value)
FLAGS = {
    "--cross": (("cross_section",), "point", "point", "circle:2"),
    "--format": (("output", "format"), "table", "table", "json"),
    "--target": (("tolerances", "target"), "1e-9", 1e-9, 1e-7),
    "--backend": (("backend",), "closed", "closed", "numeric"),
    "--L": (("length",), "1.5", 1.5, 2.5),
    "--a": (("cut",), "0.5", 0.5, 0.25),
    "--alpha": (("alpha",), "0.3", 0.3, -0.2),
    "--bc": (("bc",), "nr", "nr", "dd"),
    "--ref-bc": (("ref_bc",), "nd", "nd", "nn"),
    "--geometry": (("geometry",), "cut_left", "cut_left", "both_ends"),
    "--cutoff": (("cutoff",), "50", 50.0, 20.0),
    "--s": (("s",), "-0.5", -0.5, 2.0),
    "--shift": (("shift",), "1", 1.0, 0.5),
    "--det-star": (("det_star",), None, True, False),
    "--include-zero": (("include_zero",), None, True, False),
    "--count": (("count",), "64", 64, 128),
}


def subcommand_parsers():
    ap = build_parser()
    (action,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def nested(path, value):
    doc = value
    for key in reversed(path):
        doc = {key: doc}
    return doc


def merged(base, path, value):
    out = json.loads(json.dumps(base))
    node = out
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return out


class TestFlagsAreConfigKeys:
    @pytest.mark.parametrize("command", ["det", "dn-spec", "glue", "zeta", "oracle-compare"])
    def test_every_flag_lands_under_its_schema_key(self, command, tmp_path):
        parser = subcommand_parsers()[command]
        flags = [
            a.option_strings[0] for a in parser._actions if a.dest not in ("help", "config")
        ]
        assert set(flags) <= set(FLAGS), "add the new flag to FLAGS"
        doc = {"command": command}
        for flag in flags:
            path, _, _, file_value = FLAGS[flag]
            doc = merged(doc, path, file_value)
        path_ = tmp_path / "run.json"
        path_.write_text(json.dumps(doc))

        def config(*argv):
            return _config_from_args(build_parser().parse_args([command, *argv]))

        # absent flags keep every config-file value
        assert config("--config", str(path_)) == doc
        for flag in flags:
            path, text, value, _ = FLAGS[flag]
            argv = [flag] if text is None else [flag, text]
            alone = config(*argv)
            assert alone == {"command": command, **nested(path, value)}, flag
            assert _config_error(alone) is None, flag
            # a given flag overrides the file and leaves the rest alone
            assert config("--config", str(path_), *argv) == merged(doc, path, value), flag

    def test_schema_enums_are_the_parser_choices(self):
        # the key table accepts each choice a parser offers and refuses any other value
        parsers = subcommand_parsers()
        for command, parser in parsers.items():
            for action in parser._actions:
                if not action.choices:
                    continue
                path = tuple(action.dest.split("."))
                for choice in action.choices:
                    assert _config_error({"command": command, **nested(path, choice)}) is None
                error = _config_error({"command": command, **nested(path, "bogus")})
                assert action.dest in error
        code, rep = run({"command": "bogus"})
        assert code == EXIT_VALIDATION and all(name in rep["error"] for name in parsers)

    @pytest.mark.parametrize("command", ["det", "dn-spec", "glue", "zeta", "oracle-compare"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_mixed_dirichlet_robin_pairs_reach_the_library(self):
        code, rep = run({"command": "oracle-compare", "length": 1.0, "bc": "dr",
                         "ref_bc": "nd", "alpha": 0.4, "count": 1024})
        assert code == EXIT_VALIDATION
        assert "unsupported boundary pair dirichlet/robin" in rep["error"]
