import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from hypint.cli import main
from hypint.problem_io import (ProblemFormatError, emit_problem, load_problem,
                               parse_problem)


def run_cli(args, cwd=None):
    cmd = [sys.executable, "-m", "hypint.cli", *args]
    return subprocess.run(cmd, cwd=cwd, text=True, capture_output=True)


def gaussian_problem(**overrides):
    data = {
        "schema": "hypint/problem-v1",
        "dimension": 1,
        "blocks": 0,
        "exponent_sets": [[[1], [2]]],
        "coefficients": [[[0.3, 0.0], [-1.0, 0.0]]],
        "u": [[1.0, 0.0]],
        "v": [],
        "base": [0],
        "contour": [[{"kind": "line", "angle": 0.0, "orientation": 1}]],
        "branch_data": {},
        "order": 6,
        "tolerances": {"quad": 1e-10, "residual": 1e-3},
        "fd_step": None,
    }
    data.update(overrides)
    return data


UNIT_SEGMENT = [[{"kind": "segment", "start": [0.0, 0.0], "end": [1.0, 0.0],
                  "orientation": 1}]]

# two blocks that both hold the exponents {0, 1, 2}
TWO_BLOCKS = dict(
    blocks=2,
    exponent_sets=[[[0], [1], [2]], [[0], [1], [2]]],
    coefficients=[[[1.0, 0.0], [0.5, 0.0], [0.25, 0.0]],
                  [[2.0, 0.0], [-0.5, 0.0], [0.3, 0.0]]],
    v=[[0.5, 0.0], [-1.0, 0.0]],
    contour=UNIT_SEGMENT,
    branch_data={"P1": 0.0},
    base=None,
)


# the same blocks with a third-order box operator,
# box[2, -2, 0, -1, 0, 1] = D[c0]^2*D[c2_2] - D[c1]^2*D[c2_0]
THIRD_ORDER = dict(
    TWO_BLOCKS,
    coefficients=[[[1.0, 0.0], [0.3, 0.0], [0.2, 0.0]],
                  [[1.0, 0.0], [-0.2, 0.0], [0.1, 0.0]]],
    branch_data={"P1": 0.0, "P2": 0.0},
    tolerances={"quad": 1e-12, "residual": 1e-5},
)


def write_problem(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestSystemCommand:
    def test_quadratic_listing(self, tmp_path):
        path = write_problem(tmp_path, gaussian_problem())
        r = run_cli(["system", path])
        assert r.returncode == 0, r.stderr
        results = json.loads(r.stdout)["results"]
        assert [h["text"] for h in results["heat_relations"]] == \
            ["D[c2] - D[c1]^2"]
        assert [b["text"] for b in results["box_operators"]] == \
            ["D[c1]^2 - D[c2]"]
        assert [e["text"] for e in results["euler_t_operators"]] == \
            ["c1*D[c1] + 2*c2*D[c2] + u1"]

    def test_joined_block_listing(self, tmp_path):
        data = gaussian_problem(
            blocks=1,
            exponent_sets=[[[0], [1], [2]]],
            coefficients=[[[1.0, 0.0], [0.5, 0.0], [0.25, 0.0]]],
            v=[[1.0, 0.0]],
            contour=None,
            base=None,
        )
        path = write_problem(tmp_path, data)
        r = run_cli(["system", path])
        assert r.returncode == 0, r.stderr
        results = json.loads(r.stdout)["results"]
        texts = [b["text"] for b in results["box_operators"]]
        assert "D[c0]*D[c2] - D[c1]^2" in texts
        assert any("D[c0]*D[c2] - D[c1]^2" == h["text"]
                   for h in results["heat_relations"])
        assert [e["text"] for e in results["euler_y_operators"]] == \
            ["c0*D[c0] + c1*D[c1] + c2*D[c2] - v1"]

    def test_single_exponent_empty_box_list(self, tmp_path):
        data = gaussian_problem(exponent_sets=[[[1]]],
                                coefficients=[[[-1.0, 0.0]]], base=None,
                                contour=None)
        path = write_problem(tmp_path, data)
        r = run_cli(["system", path])
        assert r.returncode == 0
        results = json.loads(r.stdout)["results"]
        assert results["box_operators"] == []

    def test_missing_units_warns(self, tmp_path):
        data = gaussian_problem(exponent_sets=[[[2], [3]]],
                                coefficients=[[[1.0, 0.0], [-1.0, 0.0]]],
                                base=None, contour=None)
        path = write_problem(tmp_path, data)
        r = run_cli(["system", path])
        assert r.returncode == 0
        results = json.loads(r.stdout)["results"]
        assert results["heat_relations"] == []
        assert results["warnings"]


    def test_absent_parameter_is_still_named(self, tmp_path, capsys):
        for u in (None, [[0.0, 0.0]]):
            path = write_problem(tmp_path, gaussian_problem(u=u))
            assert main(["system", path]) == 0
            results = json.loads(capsys.readouterr().out)["results"]
            assert [e["text"] for e in results["euler_t_operators"]] == \
                ["c1*D[c1] + 2*c2*D[c2] + u1"]
        path = write_problem(tmp_path, gaussian_problem(**dict(TWO_BLOCKS,
                                                                v=[])))
        assert main(["system", path]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert [e["text"] for e in results["euler_y_operators"]] == [
            "c0*D[c0] + c1*D[c1] + c2*D[c2] - v1",
            "c2_0*D[c2_0] + c2_1*D[c2_1] + c2_2*D[c2_2] - v2"]

    def test_mixed_relations_name_their_block(self, tmp_path, capsys):
        path = write_problem(tmp_path, gaussian_problem(**TWO_BLOCKS))
        assert main(["system", path]) == 0
        heat = json.loads(capsys.readouterr().out)["results"]["heat_relations"]
        assert [(h["block"], h["omega"], h["text"]) for h in heat] == [
            (1, [2], "D[c0]*D[c2] - D[c1]^2"),
            (2, [2], "D[c2_0]*D[c2_2] - D[c2_1]^2")]


class TestSeriesCommand:
    def test_three_terms_with_weights(self, tmp_path):
        path = write_problem(tmp_path, gaussian_problem())
        r = run_cli(["series", path, "--order", "2"])
        assert r.returncode == 0, r.stderr
        results = json.loads(r.stdout)["results"]
        assert results["base"] == [0]
        assert [t["m"] for t in results["terms"]] == [[0], [1], [2]]
        assert [t["scalar_exact"][0] for t in results["terms"]] == \
            ["1", "1", "1/2"]
        assert results["terms"][0]["rho"] == [["-1", "0"]]
        assert results["provenance"] == "gamma-closed-form"

    def test_order_zero_single_term(self, tmp_path):
        path = write_problem(tmp_path, gaussian_problem(order=0))
        r = run_cli(["series", path])
        assert r.returncode == 0
        assert len(json.loads(r.stdout)["results"]["terms"]) == 1

    def test_pole_flagged(self, tmp_path):
        path = write_problem(tmp_path, gaussian_problem(u=[[0.0, 0.0]]))
        r = run_cli(["series", path, "--order", "1"])
        assert r.returncode == 0
        terms = json.loads(r.stdout)["results"]["terms"]
        assert terms[0]["flags"] == ["POLE"]

    def test_base_fallback_to_enumeration(self, tmp_path):
        path = write_problem(tmp_path, gaussian_problem(base=None))
        r = run_cli(["series", path])
        assert r.returncode == 0
        assert json.loads(r.stdout)["results"]["base"] == [0]

    def test_base_override(self, tmp_path):
        path = write_problem(tmp_path, gaussian_problem())
        r = run_cli(["series", path, "--base", "1", "--order", "1"])
        assert r.returncode == 0
        results = json.loads(r.stdout)["results"]
        assert results["base"] == [1]
        assert results["terms"][0]["rho"] == [["-1/2", "0"]]


class TestEvalCommand:
    def test_gaussian_value(self, tmp_path):
        path = write_problem(tmp_path, gaussian_problem())
        r = run_cli(["eval", path])
        assert r.returncode == 0, r.stderr
        results = json.loads(r.stdout)["results"]
        expected = math.sqrt(math.pi) * math.exp(0.3 ** 2 / 4)
        assert abs(complex(*results["value"]) - expected) < 1e-9
        assert results["err_estimate"] < 1e-9

    def test_beta_value(self, tmp_path):
        data = gaussian_problem(
            blocks=1,
            exponent_sets=[[[0], [1]]],
            coefficients=[[[1.0, 0.0], [-1.0, 0.0]]],
            u=[[2.0, 0.0]],
            v=[[1.0, 0.0]],
            contour=[[{"kind": "segment", "start": [0.0, 0.0],
                       "end": [1.0, 0.0], "orientation": 1}]],
            base=None,
        )
        path = write_problem(tmp_path, data)
        r = run_cli(["eval", path])
        assert r.returncode == 0, r.stderr
        value = complex(*json.loads(r.stdout)["results"]["value"])
        assert abs(value - 1 / 6) < 1e-10

    def test_nonintegrable_endpoint_is_input_error(self, tmp_path):
        # the factor t vanishes at the start of [0, 1] under v = -1.5
        data = gaussian_problem(
            blocks=1,
            exponent_sets=[[[1]]],
            coefficients=[[[1.0, 0.0]]],
            v=[[-1.5, 0.0]],
            contour=UNIT_SEGMENT,
            branch_data={"P1": 0.0},
            base=None,
        )
        path = write_problem(tmp_path, data)
        for command in ("eval", "verify"):
            r = run_cli([command, path])
            assert r.returncode == 2, r.stderr
            assert "vanishes at endpoint" in r.stderr
            assert "Warning" not in r.stderr

    @pytest.mark.parametrize("u", [-0.5, 0.0])
    def test_nonintegrable_weight_at_zero_is_input_error(self, tmp_path, u):
        # t^(u - 1) on the positive ray from 0, with Re u <= 0
        problems = Path(__file__).resolve().parent.parent / "problems"
        data = json.loads((problems / "gamma_half.json").read_text())
        data["u"] = [[u, 0.0]]
        path = write_problem(tmp_path, data)
        for command in ("eval", "verify"):
            r = run_cli([command, path])
            assert r.returncode == 2, r.stderr
            assert "u[0]" in r.stderr and "not integrable" in r.stderr
            assert "Warning" not in r.stderr

    def test_missing_contour_is_input_error(self, tmp_path):
        path = write_problem(tmp_path, gaussian_problem(contour=None))
        r = run_cli(["eval", path])
        assert r.returncode == 2
        assert "contour" in r.stderr

    def test_divergent_contour_is_numeric_error(self, tmp_path):
        data = gaussian_problem(coefficients=[[[0.3, 0.0], [1.0, 0.0]]])
        path = write_problem(tmp_path, data)
        r = run_cli(["eval", path])
        assert r.returncode == 3
        assert "numeric error" in r.stderr


class TestVerifyCommand:
    def test_gaussian_system_passes(self, tmp_path):
        path = write_problem(tmp_path, gaussian_problem())
        r = run_cli(["verify", path, "--tol", "1e-12"])
        assert r.returncode == 0, r.stderr
        results = json.loads(r.stdout)["results"]
        assert results["all_passed"] is True
        assert {rep["label"] for rep in results["reports"]} == \
            {"heat[2]", "box[2, -1]", "euler_t[1]"}

    def test_log_kernel_system_passes(self, tmp_path):
        data = gaussian_problem(
            blocks=1,
            exponent_sets=[[[0], [1]]],
            coefficients=[[[1.0, 0.0], [-0.5, 0.0]]],
            u=[[1.0, 0.0]],
            v=[[-1.0, 0.0]],
            contour=[[{"kind": "segment", "start": [0.0, 0.0],
                       "end": [1.0, 0.0], "orientation": 1}]],
            base=None,
            tolerances={"quad": 1e-12, "residual": 1e-5},
        )
        path = write_problem(tmp_path, data)
        r = run_cli(["verify", path])
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["results"]["all_passed"] is True

    def test_perturbed_parameter_fails_with_exit_one(self, tmp_path):
        path = write_problem(tmp_path,
                             gaussian_problem(euler_u=[[1.5, 0.0]]))
        r = run_cli(["verify", path, "--tol", "1e-12"])
        assert r.returncode == 1
        results = json.loads(r.stdout)["results"]
        euler = [rep for rep in results["reports"]
                 if rep["label"] == "euler_t[1]"][0]
        assert euler["relative"] > 1e-2 and not euler["passed"]

    @pytest.mark.parametrize("step", [0, -1e-3])
    def test_nonpositive_fd_step_is_input_error(self, tmp_path, step):
        path = write_problem(tmp_path, gaussian_problem(fd_step=step))
        r = run_cli(["verify", path])
        assert r.returncode == 2
        assert "input error: fd_step: must be > 0" in r.stderr
        assert r.stdout == ""

    def test_third_order_box_passes_at_the_default_step(self, tmp_path):
        path = write_problem(tmp_path, gaussian_problem(**THIRD_ORDER))
        r = run_cli(["verify", path])
        assert r.returncode == 0, r.stdout
        reports = json.loads(r.stdout)["results"]["reports"]
        box = [rep for rep in reports
               if rep["label"] == "box[2, -2, 0, -1, 0, 1]"][0]
        assert box["relative"] < 1e-6
        # only the third-order term takes the larger step
        assert box["step"] > 1e-3
        assert {rep["step"] for rep in reports if rep is not box} == {1e-4}

    def test_third_order_negative_control_fails_on_euler_t_only(self,
                                                                 tmp_path):
        data = gaussian_problem(**THIRD_ORDER, euler_u=[[1.2, 0.0]])
        r = run_cli(["verify", write_problem(tmp_path, data)])
        assert r.returncode == 1
        reports = json.loads(r.stdout)["results"]["reports"]
        assert [rep["label"] for rep in reports if not rep["passed"]] == \
            ["euler_t[1]"]


@pytest.mark.parametrize("name", ["gaussian", "gamma_half", "log_kernel",
                                  "two_blocks"])
def test_system_lists_what_verify_checks(name, capsys, tmp_path):
    if name == "two_blocks":
        path = write_problem(tmp_path, gaussian_problem(**TWO_BLOCKS))
    else:
        path = str(Path(__file__).resolve().parent.parent / "problems"
                   / f"{name}.json")
    assert main(["system", path]) == 0
    system = json.loads(capsys.readouterr().out)["results"]
    assert main(["verify", path]) == 0
    reports = json.loads(capsys.readouterr().out)["results"]["reports"]

    single = load_problem(path).blocks == 0
    heat = {}
    for h in system["heat_relations"]:
        w = ",".join(map(str, h["omega"]))
        heat[f"heat[{w}]" if single else f"mixed[{h['block']}:{w}]"] = h["text"]
    assert len(heat) == len(system["heat_relations"])
    box = {f"box{b['relation']}": b["text"] for b in system["box_operators"]}
    euler_y = [f"euler_y[{e['block']}]" for e in system["euler_y_operators"]]
    euler_t = [f"euler_t[{e['axis']}]" for e in system["euler_t_operators"]]
    if single:
        listed = [*heat, *box, *euler_t]
    else:
        listed = [*box, *euler_y, *heat, *euler_t]
    assert [r["label"] for r in reports] == listed
    checked = {r["label"]: r["operator"] for r in reports}
    for label, text in {**heat, **box}.items():
        assert checked[label] == text


class TestRoundTripAndDeterminism:
    def test_parse_emit_round_trip(self, tmp_path):
        for data in [
            gaussian_problem(),
            gaussian_problem(base=None, contour=None, u=None),
            gaussian_problem(
                blocks=2,
                exponent_sets=[[[0], [1]], [[2]]],
                coefficients=[[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.5]]],
                v=[[1.0, 0.0], [-1.0, 0.0]],
                contour=[[{"kind": "ray", "start": [0.0, 0.0], "angle": 0.5,
                           "orientation": -1},]],
                branch_data={"t1": 0.25, "P2": 1.5},
            ),
        ]:
            problem = parse_problem(data)
            assert parse_problem(emit_problem(problem)) == problem

    def test_cli_output_is_deterministic(self, tmp_path):
        path = write_problem(tmp_path, gaussian_problem())
        first = run_cli(["system", path])
        second = run_cli(["system", path])
        assert first.stdout == second.stdout

    def test_out_file_matches_stdout(self, tmp_path):
        path = write_problem(tmp_path, gaussian_problem())
        out = tmp_path / "report.json"
        r = run_cli(["series", path, "--order", "1", "--out", str(out)])
        assert r.returncode == 0
        assert out.read_text().strip() == r.stdout.strip()


def test_help_names_all_commands(tmp_path):
    r = run_cli(["--help"])
    assert r.returncode == 0
    for name in ("system", "series", "eval", "verify"):
        assert name in r.stdout


class TestInputErrors:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        r = run_cli(["series", str(path)])
        assert r.returncode == 2
        assert "line" in r.stderr

    def test_wrong_schema(self, tmp_path):
        path = write_problem(tmp_path, {"schema": "other"})
        r = run_cli(["system", str(path)])
        assert r.returncode == 2

    def test_coefficient_count_mismatch(self, tmp_path):
        data = gaussian_problem(coefficients=[[[0.3, 0.0]]])
        path = write_problem(tmp_path, data)
        r = run_cli(["system", path])
        assert r.returncode == 2
        assert "coefficients" in r.stderr

    def test_collinear_base_request(self, tmp_path):
        data = gaussian_problem(exponent_sets=[[[1], [2], [3]]],
                                coefficients=[[[1.0, 0.0], [1.0, 0.0],
                                               [-1.0, 0.0]]],
                                base=None, contour=None)
        path = write_problem(tmp_path, data)
        r = run_cli(["series", path, "--base", "0,1"])
        assert r.returncode == 2

    def test_missing_file(self, tmp_path):
        r = run_cli(["eval", str(tmp_path / "nope.json")])
        assert r.returncode == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("system", "--tol", "1e-3"), ("system", "--order", "3"),
        ("series", "--tol", "1e-3"), ("eval", "--order", "3"),
        ("eval", "--base", "0"), ("verify", "--order", "3")])
    def test_flag_the_command_does_not_read(self, tmp_path, capsys, command,
                                            flag, value):
        # each command takes only the flags it reads: a stray one is an
        # input error that names it, not an override silently ignored
        path = write_problem(tmp_path, gaussian_problem())
        with pytest.raises(SystemExit) as exit_info:
            main([command, path, flag, value])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_empty_contour_rejected(self, tmp_path):
        data = gaussian_problem(contour=[])
        path = write_problem(tmp_path, data)
        r = run_cli(["eval", path])
        assert r.returncode == 2
        assert "contour" in r.stderr


def test_parse_problem_rejects_bad_leg():
    data = gaussian_problem(contour=[[{"kind": "zigzag"}]])
    with pytest.raises(ProblemFormatError, match="contour"):
        parse_problem(data)


def test_load_problem_names_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": }')
    with pytest.raises(ProblemFormatError, match="line 1"):
        load_problem(str(path))


def test_malformed_numeric_fields_name_the_field(tmp_path, capsys):
    problems = Path(__file__).resolve().parent.parent / "problems"
    bad_values = [None, "x", [1e-9]]
    # (bundled problem, path to the field, the name the message must give)
    fields = [
        ("gaussian", ("order",), "order"),
        ("gaussian", ("tolerances", "quad"), "tolerances.quad"),
        ("gaussian", ("tolerances", "residual"), "tolerances.residual"),
        ("gaussian", ("contour", 0, 0, "angle"), "contour[0][0].angle"),
        ("gamma_half", ("contour", 0, 0, "angle"), "contour[0][0].angle"),
        ("gamma_half", ("contour", 0, 0, "start"), "contour[0][0].start"),
        ("gamma_half", ("branch_data", "t1"), "branch_data.t1"),
        ("gaussian", ("dimension",), "dimension"),
        ("gaussian", ("blocks",), "blocks"),
        ("gaussian", ("base", 0), "base[0]"),
        ("arc", ("contour", 0, 0, "radius"), "contour[0][0].radius"),
        ("arc", ("contour", 0, 0, "angle_start"), "contour[0][0].angle_start"),
        ("arc", ("contour", 0, 0, "angle_end"), "contour[0][0].angle_end"),
    ]
    cases = [(problem, path, name, value) for problem, path, name in fields
             for value in bad_values]
    # a null fd_step means the default step, so only the others apply
    cases += [("gaussian", ("fd_step",), "fd_step", value)
              for value in bad_values[1:]]
    # a tolerance must be positive: with -1 every residual would fail
    cases += [("gaussian", ("tolerances", name), f"tolerances.{name}", -1)
              for name in ("quad", "residual")]
    # integer fields must not truncate a fractional value
    cases += [("gaussian", (name,), name, 2.7)
              for name in ("order", "dimension", "blocks")]
    cases += [("gaussian", ("base", 0), "base[0]", 2.7)]
    # an orientation is the JSON integer 1 or -1, on every kind of leg
    cases += [(problem, ("contour", 0, 0, "orientation"),
               "contour[0][0].orientation", value)
              for problem in ("gaussian", "gamma_half", "arc")
              for value in (True, 1.0, 0, None)]
    # json reads NaN, Infinity and integers past the float range; no
    # numeric field takes them
    cases += [("gaussian", ("tolerances", "residual"), "tolerances.residual",
               math.nan),
              ("gaussian", ("tolerances", "quad"), "tolerances.quad",
               10 ** 400),
              ("gaussian", ("contour", 0, 0, "angle"), "contour[0][0].angle",
               math.inf),
              ("gaussian", ("coefficients", 0, 0), "coefficients[0][0]",
               [math.nan, 0.0])]
    # no bundled problem has an arc: gaussian.json with its line replaced
    arc = {"kind": "arc", "center": [0.0, 0.0], "radius": 1.0,
           "angle_start": 0.0, "angle_end": 1.0, "orientation": 1}
    for problem, path, name, value in cases:
        if problem == "arc":
            data = json.loads((problems / "gaussian.json").read_text())
            data["contour"] = [[dict(arc)]]
        else:
            data = json.loads((problems / f"{problem}.json").read_text())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert main(["series", write_problem(tmp_path, data)]) == 2, \
            (problem, name, value)
        assert name in capsys.readouterr().err, (problem, name, value)
