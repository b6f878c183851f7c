"""Problem-file schema and the command-line surface."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gvikit import cli, gvi, operators
from gvikit.cli import main
from gvikit.demos import DEMOS, demo_names, get_demo
from gvikit.errors import SchemaError
from gvikit.geometry import Simplex
from gvikit.schema import parse_problem, validate


def _write(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _gvi_file_data():
    return copy.deepcopy(get_demo("linear-gvi")["problem"])


class TestSchemaParsing:
    @pytest.mark.parametrize("name", demo_names())
    def test_every_demo_parses(self, name):
        raw = get_demo(name)["problem"]
        problem = parse_problem(raw)
        assert problem.kind == raw["kind"]
        assert problem.seed == raw["seed"]
        assert problem.feasible_set.dim >= 1

    def _pointer_of(self, data):
        with pytest.raises(SchemaError) as exc:
            parse_problem(data)
        return exc.value.pointer

    def test_missing_seed(self):
        data = _gvi_file_data()
        del data["seed"]
        assert self._pointer_of(data) == "/seed"

    def test_seed_must_be_an_integer(self):
        data = _gvi_file_data()
        data["seed"] = 1.5
        assert self._pointer_of(data) == "/seed"

    def test_unsupported_version(self):
        data = _gvi_file_data()
        data["version"] = "2"
        assert self._pointer_of(data) == "/version"

    def test_unknown_kind(self):
        data = _gvi_file_data()
        data["kind"] = "equilibrium"
        assert self._pointer_of(data) == "/kind"

    def test_unknown_top_level_field(self):
        data = _gvi_file_data()
        data["frobnicate"] = 1
        assert self._pointer_of(data) == "/frobnicate"

    def test_unknown_operator_field(self):
        data = _gvi_file_data()
        data["operators"]["A"]["spin"] = 3
        assert self._pointer_of(data) == "/operators/A/spin"

    def test_unknown_set_field(self):
        data = _gvi_file_data()
        data["set"]["half_open"] = True
        assert self._pointer_of(data) == "/set/half_open"

    def test_unknown_solver_field(self):
        data = _gvi_file_data()
        data["solver"] = {"momentum": 0.9}
        assert self._pointer_of(data) == "/solver/momentum"

    def test_unknown_tolerance_field(self):
        data = _gvi_file_data()
        data["tolerances"] = {"gap": 1e-6, "slack": 1.0}
        assert self._pointer_of(data) == "/tolerances/slack"

    def test_missing_required_operator(self):
        data = _gvi_file_data()
        del data["operators"]["a"]
        assert self._pointer_of(data) == "/operators/a"

    def test_complementarity_needs_a_cone(self):
        data = copy.deepcopy(get_demo("orthant-lcp")["problem"])
        data["set"] = {"type": "box", "lower": [0, 0], "upper": [1, 1]}
        assert self._pointer_of(data).startswith("/set")

    def test_complementarity_needs_a_domain(self):
        data = copy.deepcopy(get_demo("orthant-lcp")["problem"])
        del data["domain"]
        assert self._pointer_of(data) == "/domain"

    def test_domain_is_rejected_elsewhere(self):
        data = _gvi_file_data()
        data["domain"] = {"type": "box", "lower": [0], "upper": [1]}
        assert self._pointer_of(data) == "/domain"

    def test_image_set_rejected_for_plain_vi(self):
        data = copy.deepcopy(get_demo("box-projection")["problem"])
        data["image_set"] = {"type": "box", "lower": [0, 0], "upper": [1, 1]}
        assert self._pointer_of(data) == "/image_set"

    def test_image_dimension_mismatch(self):
        data = _gvi_file_data()
        data["image_set"] = {"type": "box", "lower": [0, 0], "upper": [1, 1]}
        assert self._pointer_of(data).startswith("/image_set")

    def test_nonlinear_map_requires_declared_image(self):
        data = copy.deepcopy(get_demo("square-gvi")["problem"])
        del data["image_set"]
        assert self._pointer_of(data) == "/image_set"

    def test_affine_map_derives_its_image(self):
        # relative-monotone omits image_set; as the g of a coincidence file
        # its image g(K) comes from g itself: range_inclusion decides f(x) in
        # g(K) as g^-1(f(x)) in K, in closed form, so no image set is parsed
        raw = get_demo("relative-monotone")["problem"]
        assert "image_set" not in raw
        ops = raw["operators"]
        problem = parse_problem(dict(raw, kind="coincidence", operators={"f": ops["A"], "g": ops["a"]}))
        assert problem.image_set is None
        report, _ = cli.run_check(problem)
        (entry,) = [r for r in report["hypothesis_reports"] if r["property"] == "range_inclusion"]
        assert entry["verdict"] in ("proven", "violated") and entry["samples_used"] == 0
        # the gvi file solves in x-space and reads no image either
        problem = parse_problem(raw)
        assert problem.image_set is None
        report, code = cli.run_problem(problem)
        assert code == 0 and report["exit_status"] == "certified"

    def test_operator_dimension_mismatch(self):
        data = _gvi_file_data()
        data["operators"]["A"] = {"op": "identity", "dim": 3}
        assert self._pointer_of(data).startswith("/operators/A")


class TestValidate:
    def test_clean_problem_has_no_diagnostics(self):
        assert validate(_gvi_file_data()) == []

    def test_errors_carry_pointers(self):
        data = _gvi_file_data()
        del data["seed"]
        diags = validate(data)
        assert any(d["severity"] == "error" and d["pointer"] == "/seed" for d in diags)

    def test_wrong_image_is_a_warning(self):
        data = copy.deepcopy(get_demo("square-gvi")["problem"])
        data["image_set"] = {"type": "box", "lower": [0.0], "upper": [0.25]}
        diags = validate(data)
        warnings = [d for d in diags if d["severity"] == "warning"]
        assert warnings and "/image_set" in warnings[0]["pointer"]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


class TestCli:
    def test_demo_certifies(self, capsys):
        code, report, err = _run(capsys, ["demo", "box-projection"])
        assert code == 0
        assert report["exit_status"] == "certified"
        np.testing.assert_allclose(report["solution"], [1.0, 0.0], atol=1e-6)
        assert report["demo"] == "box-projection"
        assert "gvikit:" in err

    def test_quiet_never_builds_the_summary_line(self, capsys, monkeypatch):
        built = []
        real = cli._summary_line
        monkeypatch.setattr(cli, "_summary_line", lambda report: built.append(1) or real(report))
        code, _, err = _run(capsys, ["demo", "box-projection", "--quiet"])
        assert (code, err, built) == (0, "", [])
        code, _, err = _run(capsys, ["demo", "box-projection"])
        assert (code, built) == (0, [1])
        assert err.startswith("gvikit: vi -> certified")

    def test_the_report_says_why_the_solver_stopped(self, capsys):
        code, report, err = _run(capsys, ["demo", "identity-reduction"])
        assert (code, report["exit_status"]) == (0, "certified")
        assert list(report)[list(report).index("iterations") + 1] == "stop_reason"
        assert (report["iterations"], report["stop_reason"]) == (2, "face_solve")
        assert "stop face_solve" in err
        code, report, err = _run(capsys, ["demo", "square-gvi"])
        assert (report["iterations"], report["stop_reason"]) == (84, "residual")
        assert "stop residual" in err

    def test_quiet_suppresses_the_summary(self, capsys):
        code, report, err = _run(capsys, ["demo", "box-projection", "--quiet"])
        assert code == 0
        assert err == ""

    def test_every_demo_exits_zero(self, capsys):
        for name in demo_names():
            code, report, _ = _run(capsys, ["demo", name, "--quiet"])
            assert code == 0, f"demo {name} exited {code}"
            assert report["exit_status"] == "certified"

    def test_demo_solution_matches_expectation(self, capsys):
        for name in demo_names():
            expect = DEMOS[name].get("expect", {})
            if "solution" not in expect:
                continue
            code, report, _ = _run(capsys, ["demo", name, "--quiet"])
            np.testing.assert_allclose(
                report["solution"],
                expect["solution"],
                atol=expect.get("tol", 1e-6),
                err_msg=f"demo {name}",
            )

    def test_unknown_demo(self, capsys):
        code, report, err = _run(capsys, ["demo", "perpetual-motion"])
        assert code == 2
        assert "box-projection" in err  # available names are listed

    def test_list_demos(self, capsys):
        code = main(["list-demos"])
        listing = json.loads(capsys.readouterr().out)
        assert code == 0
        names = [d["name"] for d in listing["demos"]]
        assert "box-projection" in names and "non-ql" in names
        assert len(names) == len(DEMOS)

    def test_closed_stdout_exits_quietly(self):
        # the reader is gone before the child writes, as with `| head -n 1`
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "gvikit", "list-demos"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_solve_gvi_from_file(self, capsys, tmp_path):
        path = _write(tmp_path, _gvi_file_data())
        code, report, _ = _run(capsys, ["solve-gvi", path, "--quiet"])
        assert code == 0
        assert report["exit_status"] == "certified"
        assert report["residuals"]["gap"] >= -1e-6
        assert report["residuals"]["pullback"] <= 1e-7

    def test_kind_gate(self, capsys, tmp_path):
        path = _write(tmp_path, _gvi_file_data())
        code, report, _ = _run(capsys, ["solve-vi", path, "--quiet"])
        assert code == 2
        assert report["exit_status"] == "schema_error"
        assert report["error"]["pointer"] == "/kind"

    def test_check_passes_on_clean_problem(self, capsys, tmp_path):
        path = _write(tmp_path, _gvi_file_data())
        code, report, _ = _run(capsys, ["check", path, "--quiet"])
        assert code == 0
        assert report["exit_status"] == "checks_passed"
        names = [r["property"] for r in report["hypothesis_reports"]]
        assert "fiber_condition" in names

    def test_check_flags_a_broken_fiber(self, capsys, tmp_path):
        # odd A over the even map a=x^2: equal images, different values
        data = {
            "version": "1",
            "kind": "gvi",
            "operators": {
                "A": {"op": "affine", "matrix": [[1.0]], "shift": [0.0]},
                "a": {"op": "pointwise", "kind": "square", "dim": 1},
            },
            "set": {"type": "box", "lower": [-1.0], "upper": [1.0]},
            "image_set": {"type": "box", "lower": [0.0], "upper": [1.0]},
            "seed": 7,
        }
        path = _write(tmp_path, data)
        code, report, _ = _run(capsys, ["check", path, "--quiet"])
        assert code == 1
        assert report["exit_status"] == "refuted_hypothesis"
        by_name = {r["property"]: r for r in report["hypothesis_reports"]}
        assert by_name["fiber_condition"]["verdict"] == "violated"

    def test_validate_ok(self, capsys, tmp_path):
        path = _write(tmp_path, _gvi_file_data())
        code, report, _ = _run(capsys, ["validate", path, "--quiet"])
        assert code == 0
        assert report["exit_status"] == "valid"
        assert report["diagnostics"] == []

    def test_validate_reports_schema_errors(self, capsys, tmp_path):
        data = _gvi_file_data()
        del data["seed"]
        path = _write(tmp_path, data)
        code, report, _ = _run(capsys, ["validate", path, "--quiet"])
        assert code == 2
        assert report["exit_status"] == "schema_error"
        assert any(d["pointer"] == "/seed" for d in report["diagnostics"])

    def test_broken_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, report, _ = _run(capsys, ["solve-gvi", str(path), "--quiet"])
        assert code == 2
        assert report["exit_status"] == "schema_error"

    def test_missing_file(self, capsys):
        code, report, _ = _run(capsys, ["solve-gvi", "/nonexistent.json", "--quiet"])
        assert code == 2

    def test_certify_attaches_the_oracle(self, capsys, tmp_path):
        # the inner map is affine, so the gap is exact and no grid can refute it
        path = _write(tmp_path, _gvi_file_data())
        code, report, _ = _run(
            capsys, ["certify", path, "--resolution", "0.01", "--quiet"]
        )
        assert code == 0
        assert report["exit_status"] == "certified"
        assert report["gap_kind"] == "exact"
        assert report["oracle"] == {"skipped": "the gap is exact, so no grid can refute it"}

    @pytest.mark.parametrize("kind", ["vi", "gvi", "coincidence", "fixed_point"])
    def test_a_cone_set_belongs_to_complementarity(self, capsys, tmp_path, kind):
        # a gap minimized over the cone alone reads 0 at every point, so a
        # cone set is refused; the same operator certifies as the LCP
        lcp = get_demo("orthant-lcp")["problem"]
        T, g = lcp["operators"]["T"], lcp["operators"]["g"]
        ops = {"vi": {"A": T}, "gvi": {"A": T, "a": g},
               "coincidence": {"f": T, "g": g}, "fixed_point": {"f": T}}[kind]
        data = {"version": "1", "kind": kind, "operators": ops, "set": lcp["set"], "seed": 4}
        code, report, err = _run(capsys, ["certify", _write(tmp_path, data)])
        assert code == 2
        assert report["exit_status"] == "schema_error"
        assert report["error"] == {
            "pointer": "/set",
            "message": f"kind {kind!r} needs a compact set; a cone set belongs to kind 'complementarity'",
        }
        assert "Traceback" not in err
        code, report, _ = _run(capsys, ["certify", _write(tmp_path, lcp), "--quiet"])
        assert code == 0 and report["exit_status"] == "certified"
        np.testing.assert_allclose(report["solution"], [1.0 / 3.0, 1.0 / 3.0], atol=1e-6)

    def test_a_half_line_set_is_a_schema_error(self, capsys, tmp_path):
        data = {"version": "1", "kind": "vi", "seed": 1,
                "operators": {"A": {"op": "affine", "matrix": [[1.0]], "shift": [0.5]}},
                "set": {"type": "hpolytope", "normals": [[1.0], [2.0]], "offsets": [1.0, 1.0]}}
        code, report, err = _run(capsys, ["certify", _write(tmp_path, data)])
        assert code == 2
        assert report == {
            "exit_status": "schema_error",
            "error": {"pointer": "/set", "message": "halfspace intersection is unbounded"},
        }
        assert "Traceback" not in err

    def test_an_overflowing_enclosure_fails_without_a_traceback(self, capsys, tmp_path):
        # a(x) = 1e308 x^3 - 1e308 x^3 + x evaluates to x on [-1, 1], but
        # interval arithmetic pairs the extremes of the two cubes and overflows
        big_cube = {"op": "scale", "factor": 1e308, "inner": {"op": "pointwise", "kind": "cube", "dim": 1}}
        data = {
            "version": "1",
            "kind": "gvi",
            "operators": {
                "A": {"op": "affine", "matrix": [[1.0]], "shift": [-0.5]},
                "a": {"op": "sum", "left": {"op": "difference", "left": big_cube, "right": big_cube},
                      "right": {"op": "identity", "dim": 1}},
            },
            "set": {"type": "box", "lower": [-1.0], "upper": [1.0]},
            "image_set": {"type": "box", "lower": [-1.0], "upper": [1.0]},
            "seed": 2,
        }
        code, report, err = _run(capsys, ["certify", _write(tmp_path, data)])
        assert code == 1
        assert report["exit_status"] != "certified"
        assert report["error"] == {
            "type": "UnsupportedVariant", "message": "the interval enclosure of a on K overflows"
        }
        assert "Traceback" not in err

    def test_an_inner_map_that_overflows_on_k_fails_without_a_traceback(self, capsys, tmp_path):
        # g = cube overflows on [-1e120, 1e120], so the check of the declared
        # image meets infinite points, where no distance is finite
        data = {
            "version": "1",
            "kind": "coincidence",
            "operators": {
                "f": {"op": "affine", "matrix": [[0.5]], "shift": [0.0]},
                "g": {"op": "pointwise", "kind": "cube", "dim": 1},
            },
            "set": {"type": "box", "lower": [-1e120], "upper": [1e120]},
            "image_set": {"type": "box", "lower": [-1e300], "upper": [1e300]},
            "seed": 1,
        }
        path = _write(tmp_path, data)
        code, report, err = _run(capsys, ["certify", path])
        assert code == 1
        assert report["exit_status"] == "failed"
        assert report["error"] == {
            "type": "UnsupportedVariant", "message": "the inner map overflows on K"
        }
        assert "Traceback" not in err
        # validate lists it as a warning on the image, as it does a missed image
        code, report, err = _run(capsys, ["validate", path])
        assert (code, report["exit_status"]) == (0, "valid")
        assert report["diagnostics"] == [
            {"severity": "warning", "pointer": "/image_set", "message": "the inner map overflows on K"}
        ]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "data",
        [
            {"A": {"op": "sum", "left": {"op": "identity", "dim": 12},
                   "right": {"op": "constant", "value": [0.3] * 12}},
             "a": {"op": "scale", "factor": 2.0, "inner": {"op": "identity", "dim": 12}},
             "set": {"type": "box", "lower": [-1.0] * 12, "upper": [1.0] * 12}},
            {"A": {"op": "affine", "matrix": [[1.0, 0.0], [0.0, 1.0]], "shift": [-0.2, -0.4]},
             "a": {"op": "affine", "matrix": [[1.0, 1.0], [1.0, 1.0]], "shift": [0.0, 0.0]},
             "set": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}},
        ],
        ids=["double-12", "singular-ball"],
    )
    def test_an_affine_gvi_needs_no_image(self, capsys, tmp_path, data):
        # the x-space solve reads no image: 2I on [-1, 1]^12 has an image
        # of dimension 12, beyond vertex enumeration, and a singular map on
        # a Ball has no enumerable image at all
        data = {"version": "1", "kind": "gvi", "seed": 3,
                "operators": {"A": data["A"], "a": data["a"]}, "set": data["set"]}
        assert validate(data) == []
        code, report, _ = _run(capsys, ["certify", _write(tmp_path, data), "--quiet"])
        assert code == 0
        assert report["exit_status"] == "certified"
        assert (report["reduction"], report["gap_kind"]) == ("x_space", "exact")

    def test_tol_override_can_force_refutation(self, capsys, tmp_path):
        # an impossible coincidence tolerance turns a good solve into a
        # certification failure, reported as a refuted hypothesis; the
        # problem is on a Ball, since a face solve on a Box can be exact
        path = _write(tmp_path, copy.deepcopy(get_demo("rotation")["problem"]))
        code, report, _ = _run(
            capsys, ["find-coincidence", path, "--tol", "1e-15", "--quiet"]
        )
        assert code == 1
        assert report["exit_status"] == "refuted_hypothesis"

    def test_reports_are_deterministic(self, capsys):
        _, first, _ = _run(capsys, ["demo", "square-gvi", "--quiet", "--certify"])
        _, second, _ = _run(capsys, ["demo", "square-gvi", "--quiet", "--certify"])
        first.pop("timings")
        second.pop("timings")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_complementarity_routes_through_solve_gvi(self, capsys, tmp_path):
        path = _write(tmp_path, copy.deepcopy(get_demo("orthant-lcp")["problem"]))
        code, report, _ = _run(capsys, ["solve-gvi", path, "--quiet"])
        assert code == 0
        assert report["exit_status"] == "certified"
        comp = report["complementarity"]
        assert comp["ok"] is True
        assert all(s <= 1e-8 for s in comp["slacks"].values())

    def test_fixed_point_command(self, capsys, tmp_path):
        path = _write(
            tmp_path, copy.deepcopy(get_demo("averaging-fixed-point")["problem"])
        )
        code, report, _ = _run(capsys, ["find-fixed-point", path, "--quiet"])
        assert code == 0
        np.testing.assert_allclose(report["solution"], [1.0], atol=1e-6)
        assert report["residuals"]["coincidence"] <= 1e-6


def _escaping_fixed_point():
    """f = 2 maps [0, 1] outside itself: the inequality solves at 1, no fixed point exists."""
    return {
        "version": "1",
        "kind": "fixed_point",
        "operators": {"f": {"op": "constant", "value": [2.0], "in_dim": 1}},
        "set": {"type": "box", "lower": [0.0], "upper": [1.0]},
        "seed": 3,
    }


class TestBadTolerances:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("check_samples", 0),
            ("check_samples", 0.5),
            ("resolution", 0),
            ("resolution", -0.1),
            ("gap", float("nan")),
            ("coincidence", float("inf")),
        ],
    )
    def test_schema_error_names_the_pointer(self, capsys, tmp_path, key, value):
        data = _gvi_file_data()
        data["tolerances"] = {key: value}
        diags = validate(data)
        assert [d["pointer"] for d in diags if d["severity"] == "error"] == [
            f"/tolerances/{key}"
        ]
        path = _write(tmp_path, data)
        code, report, _ = _run(capsys, ["certify", path, "--quiet"])
        assert code == 2
        assert report["exit_status"] == "schema_error"
        assert report["error"]["pointer"] == f"/tolerances/{key}"

    def test_integral_check_samples_are_accepted(self):
        data = _gvi_file_data()
        data["tolerances"] = {"check_samples": 1, "resolution": 0.1, "gap": 1e-6}
        assert validate(data) == []

    @pytest.mark.parametrize(
        "flags, pointer",
        [
            (["--resolution", "0"], "/tolerances/resolution"),
            (["--resolution", "-0.1"], "/tolerances/resolution"),
            (["--tol", "nan"], "/tolerances/gap"),
            (["--tol", "0"], "/tolerances/gap"),
        ],
    )
    def test_flags_take_the_same_check(self, capsys, tmp_path, flags, pointer):
        path = _write(tmp_path, _gvi_file_data())
        code, report, _ = _run(capsys, ["certify", path, "--quiet", *flags])
        assert code == 2
        assert report["exit_status"] == "schema_error"
        assert report["error"]["pointer"] == pointer
        assert flags[0] in report["error"]["message"]

    def test_tol_flag_names_the_tolerance_of_the_kind(self, capsys, tmp_path):
        path = _write(tmp_path, _escaping_fixed_point())
        code, report, _ = _run(capsys, ["find-fixed-point", path, "--tol", "nan", "--quiet"])
        assert code == 2
        assert report["error"]["pointer"] == "/tolerances/coincidence"


class TestOnePath:
    def test_refuted_coincidence_is_a_status(self, capsys, tmp_path):
        path = _write(tmp_path, _escaping_fixed_point())
        code, report, _ = _run(capsys, ["certify", path, "--quiet"])
        assert code == 1
        assert report["exit_status"] == "refuted_hypothesis"
        assert report["error"]["type"] == "CertificationFailed"
        assert report["converged"] is True
        np.testing.assert_allclose(report["solution"], [1.0], atol=1e-6)
        assert report["residuals"]["coincidence"] == pytest.approx(1.0, abs=1e-6)
        # the report carries what every other report carries
        assert set(report["residuals"]) == {"natural", "gap", "pullback", "coincidence"}
        assert report["iterations"] >= 1
        assert report["reduced_solution"] is not None

    def test_pullback_miss_is_a_status(self, capsys, tmp_path):
        # A(x) = x - 1.5 on [-1, 1] with the cube as a: the reduced operator
        # vanishes at u = 1.5^3, so the solver walks the declared image
        # [-2, 2] past a(K) = [-1, 1], where no preimage exists
        data = {
            "version": "1",
            "kind": "gvi",
            "operators": {
                "A": {"op": "affine", "matrix": [[1.0]], "shift": [-1.5]},
                "a": {"op": "pointwise", "kind": "cube", "dim": 1},
            },
            "set": {"type": "box", "lower": [-1.0], "upper": [1.0]},
            "image_set": {"type": "box", "lower": [-2.0], "upper": [2.0]},
            "seed": 7,
        }
        code, report, err = _run(capsys, ["certify", _write(tmp_path, data)])
        assert code == 1
        assert report["exit_status"] != "certified"
        assert report["error"]["type"] == "InversionFailed"
        assert report["solution"] is None and report["reduction"] is None
        assert "Traceback" not in err

    def test_affine_map_outside_its_zero_certifies(self, capsys, tmp_path):
        # the same A with a = id is solved on K itself: x = 1, pullback 0
        data = {
            "version": "1",
            "kind": "gvi",
            "operators": {
                "A": {"op": "affine", "matrix": [[1.0]], "shift": [-1.5]},
                "a": {"op": "identity", "dim": 1},
            },
            "set": {"type": "box", "lower": [-1.0], "upper": [1.0]},
            "image_set": {"type": "box", "lower": [-2.0], "upper": [2.0]},
            "seed": 7,
        }
        code, report, _ = _run(capsys, ["certify", _write(tmp_path, data), "--quiet"])
        assert code == 0
        assert report["exit_status"] == "certified"
        assert report["reduction"] == "x_space"
        assert report["solution"] == [1.0]
        assert report["residuals"]["pullback"] == 0.0

    def test_precheck_runs_once_per_run(self, monkeypatch):
        # the hypothesis battery runs once, before the solve
        calls = []
        real = cli._battery

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "_battery", counted)
        report, code = cli.run_problem(parse_problem(_escaping_fixed_point()))
        assert report["exit_status"] == "refuted_hypothesis"
        assert len(calls) == 1

    @pytest.mark.parametrize("name", demo_names())
    def test_one_gvi_problem_per_run(self, monkeypatch, name):
        built = []
        real = gvi.GviProblem.__post_init__

        def counted(self):
            built.append(1)
            real(self)

        monkeypatch.setattr(gvi.GviProblem, "__post_init__", counted)
        cli.run_problem(parse_problem(get_demo(name)["problem"]), certify=True)
        assert len(built) == 1


_BOX2 = {"type": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}
_TALL = {"op": "affine", "matrix": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "shift": [0.0, 0.0, 0.0]}
_ID2 = {"op": "identity", "dim": 2}


def _tall_output_file(kind):
    """A file of ``kind`` whose first operator maps R^2 into R^3."""
    ops = {
        "vi": {"A": _TALL},
        "gvi": {"A": _TALL, "a": _ID2},
        "coincidence": {"f": _TALL, "g": _ID2},
        "fixed_point": {"f": _TALL},
        "complementarity": {"T": _TALL, "g": _ID2},
    }[kind]
    data = {"version": "1", "kind": kind, "operators": ops, "set": _BOX2, "seed": 3}
    if kind == "complementarity":
        data["set"] = {"type": "cone", "generators": [[1.0, 0.0], [0.0, 1.0]]}
        data["domain"] = _BOX2
    return data


class TestOutputDimensions:
    @pytest.mark.parametrize(
        "kind, name",
        [("vi", "A"), ("gvi", "A"), ("coincidence", "f"), ("fixed_point", "f"), ("complementarity", "T")],
    )
    def test_mismatch_is_a_schema_error(self, capsys, tmp_path, kind, name):
        data = _tall_output_file(kind)
        assert validate(data)[0]["pointer"] == f"/operators/{name}"
        code, report, err = _run(capsys, ["certify", _write(tmp_path, data)])
        assert code == 2
        assert report["exit_status"] == "schema_error"
        assert report["error"]["pointer"] == f"/operators/{name}"
        assert "output dimension 3" in report["error"]["message"]
        assert "Traceback" not in err


def test_complementarity_g_must_map_into_the_cone(capsys, tmp_path):
    # T and g map [0, 1]^2 into R^3 while the cone lies in R^2
    data = _tall_output_file("complementarity")
    data["operators"]["g"] = copy.deepcopy(_TALL)
    assert validate(data)[0]["pointer"] == "/operators/g"
    code, report, err = _run(capsys, ["certify", _write(tmp_path, data)])
    assert code == 2
    assert report["exit_status"] == "schema_error"
    assert report["error"]["pointer"] == "/operators/g"
    assert "cone dimension 2" in report["error"]["message"]
    assert "Traceback" not in err


class TestAffineExpressions:
    """Any affine expression takes the closed-form paths, not only Identity and Affine."""

    def test_rotation_vi_is_proven_monotone(self):
        data = {
            "version": "1",
            "kind": "vi",
            "operators": {"A": {"op": "rotation", "angle": 0.5}},
            "set": {"type": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
            "seed": 5,
        }
        report, code = cli.run_check(parse_problem(data))
        assert code == 0
        (entry,) = report["hypothesis_reports"]
        assert entry["property"] == "affine_relative_monotone"
        assert entry["verdict"] == "proven"

    def test_scaled_identity_derives_its_image_and_needs_no_jacobian(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("jacobian_fd called")

        monkeypatch.setattr(gvi, "jacobian_fd", refuse)
        monkeypatch.setattr(operators, "jacobian_fd", refuse)
        double = {"op": "scale", "factor": 2.0, "inner": _ID2}
        # f(x) = x + (0.5, 0.25) meets g(x) = 2x at (0.5, 0.25)
        data = {
            "version": "1",
            "kind": "coincidence",
            "operators": {
                "f": {"op": "affine", "matrix": [[1.0, 0.0], [0.0, 1.0]], "shift": [0.5, 0.25]},
                "g": double,
            },
            "set": _BOX2,
            "seed": 6,
        }
        problem = parse_problem(data)
        # g(K) = [0, 2]^2 comes from g's closed-form inverse: no image set, no sample
        assert problem.image_set is None
        by_name = {r["property"]: r for r in cli.run_check(problem)[0]["hypothesis_reports"]}
        assert by_name["range_inclusion"]["verdict"] == "proven"
        # the gvi file with A(x) = x - (0.5, 0.25) and a = g derives no image
        gvi_data = dict(data, kind="gvi", operators={
            "A": {"op": "affine", "matrix": [[1.0, 0.0], [0.0, 1.0]], "shift": [-0.5, -0.25]},
            "a": double,
        })
        assert parse_problem(gvi_data).image_set is None
        for problem in (problem, parse_problem(gvi_data)):
            report, code = cli.run_problem(problem, certify=True)
            assert code == 0 and report["exit_status"] == "certified"
            np.testing.assert_allclose(report["solution"], [0.5, 0.25], atol=1e-6)

    @pytest.mark.parametrize(
        "inner",
        [
            {"op": "rotation", "angle": 0.5},
            {"op": "sum", "left": _ID2, "right": {"op": "constant", "value": [1.0, -1.0]}},
            {"op": "compose", "outer": {"op": "affine", "matrix": [[1.0, 1.0], [0.0, 1.0]]}, "inner": _ID2},
            {"op": "constant", "value": [0.5, 0.25]},
        ],
        ids=["rotation", "translation", "composed-shear", "constant"],
    )
    def test_affine_inner_maps_derive_their_image(self, inner):
        data = {
            "version": "1",
            "kind": "coincidence",
            "operators": {"f": _ID2, "g": inner},
            "set": _BOX2,
            "seed": 4,
        }
        problem = parse_problem(data)
        assert problem.image_set is None
        # g(K) is read off g itself: each vertex image g(v) lies in it
        g, K = problem.operators["g"], problem.feasible_set
        cfg = operators.SampleConfig(seed=4, samples=50)
        for v in K.vertices():
            f = operators.Constant(g(v), in_dim=2)
            rep = operators.affine_range_inclusion(f, g, K, cfg.tol)
            rep = rep or operators.check_range_inclusion(f, g, K, cfg)
            assert rep.verdict != "violated"
        # a Ball enumerates no vertices, and its coincidence file needs no image either
        ball = {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}
        report, _ = cli.run_check(parse_problem(dict(data, set=ball)))
        assert "range_inclusion" in [r["property"] for r in report["hypothesis_reports"]]
        # a gvi file reads no image, on the box or on the Ball
        for K in (_BOX2, ball):
            problem = parse_problem(dict(data, kind="gvi", operators={"A": _ID2, "a": inner}, set=K))
            assert problem.image_set is None
            report, code = cli.run_problem(problem)
            assert code == 0 and report["exit_status"] == "certified"

    def test_non_square_inner_map_certifies(self):
        # a(x) = (x1, x2, x1 + x2) is injective on [0, 1]^2, and A = a - a(0.5, 0.5)
        data = {
            "version": "1",
            "kind": "gvi",
            "operators": {"A": dict(_TALL, shift=[-0.5, -0.5, -1.0]), "a": _TALL},
            "set": _BOX2,
            "seed": 1,
        }
        report, code = cli.run_problem(parse_problem(data), certify=True)
        assert code == 0 and report["exit_status"] == "certified"
        np.testing.assert_allclose(report["solution"], [0.5, 0.5], atol=1e-6)


_PAIR_DEMOS = [n for n in demo_names() if DEMOS[n]["problem"]["kind"] in ("coincidence", "fixed_point")]


def _escaping_simplex_fixed_point():
    """f = 0.5 Q x + (I - 0.5 Q) p on the 3-simplex fixes only p, and p sums to 1.3."""
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    p = rng.dirichlet(np.ones(3)) * 1.3
    lin = 0.5 * q
    f = {"op": "affine", "matrix": lin.tolist(), "shift": ((np.eye(3) - lin) @ p).tolist()}
    return {
        "version": "1",
        "kind": "fixed_point",
        "operators": {"f": f},
        "set": {"type": "simplex", "dim": 3},
        "seed": 8,
    }


class TestOneBattery:
    """Every kind runs the checks of its normalized (A, a, K), in closed form for affine data."""

    @pytest.mark.parametrize(
        "K",
        [
            {"type": "box", "lower": [-1.0] * 12, "upper": [1.0] * 12},
            {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
        ],
        ids=["box-12", "ball-2"],
    )
    def test_an_affine_coincidence_needs_no_image(self, capsys, tmp_path, K):
        # f = x + 0.3 meets g = 2I at 0.3: g(K) has no enumerable image here,
        # and no check or solve reads one
        n = len(K.get("lower", K.get("center")))
        data = {
            "version": "1",
            "kind": "coincidence",
            "operators": {
                "f": {"op": "affine", "matrix": np.eye(n).tolist(), "shift": [0.3] * n},
                "g": {"op": "affine", "matrix": (2.0 * np.eye(n)).tolist(), "shift": [0.0] * n},
            },
            "set": K,
            "seed": 1,
        }
        code, report, _ = _run(capsys, ["certify", _write(tmp_path, data), "--quiet"])
        assert code == 0
        assert report["exit_status"] == "certified"
        np.testing.assert_allclose(report["solution"], [0.3] * n, atol=1e-6)
        verdicts = {r["property"]: r["verdict"] for r in report["hypothesis_reports"]}
        assert "range_inclusion" in verdicts and "selection_independence" in verdicts
        assert set(verdicts.values()) == {"proven"}

    @pytest.mark.parametrize("name", _PAIR_DEMOS)
    def test_pair_demos_draw_no_sample(self, monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError("operators._draw called")

        monkeypatch.setattr(operators, "_draw", refuse)
        problem = parse_problem(get_demo(name)["problem"])
        gvi_problem, pair, _ = cli._normalize(problem)
        battery = cli._battery(problem, gvi_problem, pair)
        assert {e["verdict"] for e in battery} == {"proven"}

    def test_escaping_fixed_point_is_refuted_at_a_vertex(self):
        data = _escaping_simplex_fixed_point()
        report, code = cli.run_problem(parse_problem(data))
        assert code == 1
        assert report["exit_status"] == "refuted_hypothesis"
        (entry,) = [r for r in report["hypothesis_reports"] if r["property"] == "range_inclusion"]
        assert entry["verdict"] == "violated" and entry["samples_used"] == 0
        (v,) = (np.array(w) for w in entry["witness"])
        assert any(np.array_equal(v, e) for e in np.eye(3))
        f = operators.operator_from_dict(data["operators"]["f"])
        assert Simplex(3).distance(f(v)) == pytest.approx(entry["max_violation"])
        assert entry["max_violation"] > 1e-6
        # x - f(x) is affine, so the solve stops on its face; extragradient
        # alone took 177 iterations to a coincidence residual of 0.1615562708354134
        assert report["stop_reason"] == "face_solve" and report["iterations"] <= 6
        assert report["residuals"]["coincidence"] == pytest.approx(0.1615562708354134, abs=1e-9)

    def test_simplex_vi_is_decided_on_its_directions(self, capsys, tmp_path):
        # M = [[1, -2], [-2, 1]] is indefinite on R^2, but K - K of the simplex
        # only spans d = (1, -1), where d^T M d = 6 > 0
        data = {
            "version": "1",
            "kind": "vi",
            "seed": 1,
            "operators": {"A": {"op": "affine", "matrix": [[1, -2], [-2, 1]], "shift": [0, 0.5]}},
            "set": {"type": "simplex", "dim": 2},
        }
        path = _write(tmp_path, data)
        code, report, _ = _run(capsys, ["check", path, "--quiet"])
        assert code == 0 and report["exit_status"] == "checks_passed"
        entry = report["hypothesis_reports"][0]
        assert (entry["property"], entry["verdict"]) == ("affine_relative_monotone", "proven")
        assert entry["max_violation"] == pytest.approx(-3.0)
        code, report, _ = _run(capsys, ["certify", path, "--quiet"])
        assert code == 0 and report["exit_status"] == "certified"


def test_cone_beyond_the_hull_budget_is_a_schema_error():
    # C(50, 4) = 230,300 facet candidates exceed the hull enumeration budget
    gens = np.abs(np.random.default_rng(2).normal(size=(4, 49))) + 0.1
    data = {
        "version": "1",
        "kind": "complementarity",
        "operators": {"T": {"op": "identity", "dim": 4}, "g": {"op": "identity", "dim": 4}},
        "set": {"type": "cone", "generators": gens.tolist()},
        "domain": {"type": "box", "lower": [0.0] * 4, "upper": [1.0] * 4},
        "seed": 1,
    }
    with pytest.raises(SchemaError) as exc:
        parse_problem(data)
    assert exc.value.pointer == "/set"
    assert "too large" in exc.value.reason
