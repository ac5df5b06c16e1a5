"""Problem and report file formats.

A problem file is a JSON document carrying the exponent data, the
coefficients of the polynomial blocks, the parameters, an optional base
and contour, and tolerances.  Complex numbers are two-element [re, im]
arrays; exact rationals (in report term dumps) are "p/q" strings so the
lattice data never passes through floating point.  Parsing is strict
and failures name the offending field.  parse(emit(problem)) returns a
structurally equal problem, which the round-trip tests pin down.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .lattice import ExponentSet
from .contours import Arc, Line, ProductContour, Ray, Segment

SCHEMA_PROBLEM = "hypint/problem-v1"
SCHEMA_REPORT = "hypint/report-v1"


class ProblemFormatError(ValueError):
    """A problem file failed validation; the message names the field."""


@dataclass(frozen=True)
class Problem:
    dimension: int
    blocks: int
    exponent_sets: tuple
    coefficients: tuple  # one {exponent: complex} per set
    u: tuple | None
    v: tuple
    euler_u: tuple | None
    euler_v: tuple | None
    base: tuple | None
    contour: ProductContour | None
    order: int
    quad_tol: float
    residual_tol: float
    fd_step: float | None = None


def _complex_in(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ProblemFormatError(f"{where}: expected a [re, im] pair, got {value!r}")
    return complex(_number_in(value[0], where + "[0]"),
                   _number_in(value[1], where + "[1]"))


def _complex_out(value: complex) -> list:
    value = complex(value)
    return [value.real, value.imag]


def _number_in(value, where: str, kind=float):
    """A finite JSON number as ``kind``; int fields take only integral
    values.  Python's json also reads NaN, Infinity and integers beyond
    the float range; all three are refused."""
    try:
        ok = (not isinstance(value, bool) and isinstance(value, (int, float))
              and math.isfinite(value)
              and (kind is float or float(value).is_integer()))
    except OverflowError:
        ok = False
    if not ok:
        raise ProblemFormatError(
            f"{where}: expected {'an integer' if kind is int else 'a number'}, "
            f"got {value!r}")
    return kind(value)


def _leg_in(data, where: str):
    if not isinstance(data, dict) or "kind" not in data:
        raise ProblemFormatError(f"{where}: a leg must be an object with a 'kind'")
    kind = data["kind"]
    orientation = data.get("orientation", 1)
    # a sign: only the JSON integers 1 and -1 (true == 1 in Python)
    if type(orientation) is not int or orientation not in (1, -1):
        raise ProblemFormatError(
            f"{where}.orientation: expected 1 or -1, got {orientation!r}")
    try:
        if kind == "segment":
            return Segment(_complex_in(data["start"], where + ".start"),
                           _complex_in(data["end"], where + ".end"), orientation)
        if kind == "ray":
            return Ray(_complex_in(data["start"], where + ".start"),
                       _number_in(data["angle"], where + ".angle"),
                       orientation)
        if kind == "arc":
            return Arc(_complex_in(data["center"], where + ".center"),
                       _number_in(data["radius"], where + ".radius"),
                       _number_in(data["angle_start"], where + ".angle_start"),
                       _number_in(data["angle_end"], where + ".angle_end"),
                       orientation)
        if kind == "line":
            return Line(_number_in(data["angle"], where + ".angle"),
                        orientation)
    except KeyError as exc:
        raise ProblemFormatError(f"{where}: missing field {exc}") from None
    except ProblemFormatError:
        raise
    except ValueError as exc:
        raise ProblemFormatError(f"{where}: {exc}") from None
    raise ProblemFormatError(f"{where}: unknown leg kind {kind!r}")


def _leg_out(leg) -> dict:
    if isinstance(leg, Segment):
        return {"kind": "segment", "start": _complex_out(leg.start),
                "end": _complex_out(leg.end), "orientation": leg.orientation}
    if isinstance(leg, Ray):
        return {"kind": "ray", "start": _complex_out(leg.start),
                "angle": leg.angle, "orientation": leg.orientation}
    if isinstance(leg, Arc):
        return {"kind": "arc", "center": _complex_out(leg.center),
                "radius": leg.radius, "angle_start": leg.angle_start,
                "angle_end": leg.angle_end, "orientation": leg.orientation}
    return {"kind": "line", "angle": leg.angle, "orientation": leg.orientation}


def _branch_key_in(name: str, where: str):
    if len(name) >= 2 and name[0] in ("t", "P") and name[1:].isdigit():
        return (name[0], int(name[1:]))
    raise ProblemFormatError(
        f"{where}: branch keys look like 't1' or 'P2', got {name!r}")


def parse_problem(data: Mapping) -> Problem:
    if not isinstance(data, Mapping):
        raise ProblemFormatError("problem: expected a JSON object")
    if data.get("schema") != SCHEMA_PROBLEM:
        raise ProblemFormatError(
            f"schema: expected {SCHEMA_PROBLEM!r}, got {data.get('schema')!r}")
    n = _number_in(data.get("dimension"), "dimension", int)
    blocks = _number_in(data.get("blocks", 0), "blocks", int)
    if n < 1:
        raise ProblemFormatError("dimension: must be >= 1")
    if blocks < 0:
        raise ProblemFormatError("blocks: must be >= 0")

    raw_sets = data.get("exponent_sets")
    expected = max(blocks, 1)
    if not isinstance(raw_sets, list) or len(raw_sets) != expected:
        raise ProblemFormatError(
            f"exponent_sets: expected {expected} set(s) for blocks={blocks}")
    sets = []
    for i, members in enumerate(raw_sets):
        where = f"exponent_sets[{i}]"
        if not isinstance(members, list) or not members:
            raise ProblemFormatError(f"{where}: expected a nonempty array")
        try:
            sets.append(ExponentSet(n, [tuple(m) for m in members]))
        except (TypeError, ValueError) as exc:
            raise ProblemFormatError(f"{where}: {exc}") from None

    raw_coeffs = data.get("coefficients")
    if not isinstance(raw_coeffs, list) or len(raw_coeffs) != expected:
        raise ProblemFormatError(
            f"coefficients: expected {expected} array(s) matching exponent_sets")
    coefficients = []
    for i, (s, arr) in enumerate(zip(sets, raw_coeffs)):
        where = f"coefficients[{i}]"
        if not isinstance(arr, list) or len(arr) != len(s.members):
            raise ProblemFormatError(
                f"{where}: expected {len(s.members)} [re, im] pairs")
        coefficients.append({
            w: _complex_in(c, f"{where}[{k}]")
            for k, (w, c) in enumerate(zip(s.members, arr))
        })

    u = None
    if data.get("u") is not None:
        raw_u = data["u"]
        if not isinstance(raw_u, list) or len(raw_u) != n:
            raise ProblemFormatError(f"u: expected {n} [re, im] pairs")
        u = tuple(_complex_in(x, f"u[{i}]") for i, x in enumerate(raw_u))
    raw_v = data.get("v", [])
    if not isinstance(raw_v, list) or (blocks and len(raw_v) not in (0, blocks)):
        raise ProblemFormatError(f"v: expected {blocks} [re, im] pairs")
    v = tuple(_complex_in(x, f"v[{i}]") for i, x in enumerate(raw_v))

    def _optional_params(name, count):
        raw = data.get(name)
        if raw is None:
            return None
        if not isinstance(raw, list) or len(raw) != count:
            raise ProblemFormatError(f"{name}: expected {count} [re, im] pairs")
        return tuple(_complex_in(x, f"{name}[{i}]") for i, x in enumerate(raw))

    # Operator parameters may differ from the integrand parameters; this
    # is how a deliberately mismatched homogeneity check is expressed.
    euler_u = _optional_params("euler_u", n)
    euler_v = _optional_params("euler_v", blocks)

    base = None
    if data.get("base") is not None:
        raw_base = data["base"]
        if not isinstance(raw_base, list):
            raise ProblemFormatError("base: expected an array of member indices")
        base = tuple(_number_in(i, f"base[{k}]", int)
                     for k, i in enumerate(raw_base))

    contour = None
    if data.get("contour") is not None:
        raw_contour = data["contour"]
        if not isinstance(raw_contour, list) or len(raw_contour) != n:
            raise ProblemFormatError(f"contour: expected {n} leg chains")
        chains = []
        for i, chain in enumerate(raw_contour):
            if not isinstance(chain, list) or not chain:
                raise ProblemFormatError(f"contour[{i}]: expected a nonempty array")
            chains.append([_leg_in(leg, f"contour[{i}][{k}]")
                           for k, leg in enumerate(chain)])
        raw_branch = data.get("branch_data") or {}
        if not isinstance(raw_branch, Mapping):
            raise ProblemFormatError("branch_data: expected an object")
        branch = {_branch_key_in(name, "branch_data"):
                  _number_in(val, f"branch_data.{name}")
                  for name, val in raw_branch.items()}
        try:
            contour = ProductContour(chains, branch)
        except ValueError as exc:
            raise ProblemFormatError(f"contour: {exc}") from None

    tolerances = data.get("tolerances") or {}
    if not isinstance(tolerances, Mapping):
        raise ProblemFormatError("tolerances: expected an object")
    quad_tol = _number_in(tolerances.get("quad", 1e-9), "tolerances.quad")
    residual_tol = _number_in(tolerances.get("residual", 1e-3),
                              "tolerances.residual")
    for name, tol in (("quad", quad_tol), ("residual", residual_tol)):
        if tol <= 0:
            raise ProblemFormatError(f"tolerances.{name}: must be > 0")
    order = _number_in(data.get("order", 12), "order", int)
    if order < 0:
        raise ProblemFormatError("order: must be >= 0")
    fd_step = data.get("fd_step")
    if fd_step is not None:
        fd_step = _number_in(fd_step, "fd_step")
        if fd_step <= 0:
            raise ProblemFormatError("fd_step: must be > 0")

    return Problem(
        dimension=n, blocks=blocks, exponent_sets=tuple(sets),
        coefficients=tuple(coefficients), u=u, v=v, euler_u=euler_u,
        euler_v=euler_v, base=base,
        contour=contour, order=order, quad_tol=quad_tol,
        residual_tol=residual_tol, fd_step=fd_step,
    )


def emit_problem(problem: Problem) -> dict:
    data = {
        "schema": SCHEMA_PROBLEM,
        "dimension": problem.dimension,
        "blocks": problem.blocks,
        "exponent_sets": [[list(w) for w in s.members]
                          for s in problem.exponent_sets],
        "coefficients": [
            [_complex_out(coeffs[w]) for w in s.members]
            for s, coeffs in zip(problem.exponent_sets, problem.coefficients)
        ],
        "u": None if problem.u is None else [_complex_out(x) for x in problem.u],
        "v": [_complex_out(x) for x in problem.v],
        "euler_u": None if problem.euler_u is None
        else [_complex_out(x) for x in problem.euler_u],
        "euler_v": None if problem.euler_v is None
        else [_complex_out(x) for x in problem.euler_v],
        "base": None if problem.base is None else list(problem.base),
        "contour": None if problem.contour is None else [
            [_leg_out(leg) for leg in chain] for chain in problem.contour.chains
        ],
        "branch_data": None if problem.contour is None else {
            f"{k[0]}{k[1]}": val for k, val in problem.contour.branch_data
        },
        "order": problem.order,
        "tolerances": {"quad": problem.quad_tol,
                       "residual": problem.residual_tol},
        "fd_step": problem.fd_step,
    }
    return data


def load_problem(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    return parse_problem(data)


def fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 \
        else str(x.numerator)


def make_report(command: str, problem: Problem, results: dict) -> dict:
    return {
        "schema": SCHEMA_REPORT,
        "command": command,
        "problem": emit_problem(problem),
        "results": results,
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, allow_nan=True)
