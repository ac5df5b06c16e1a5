"""Command line surface: system, series, eval and verify.

Reads a problem JSON file, runs the requested computation and writes a
report JSON document to stdout (and to --out when given).  Exit codes:
0 success / all checks passed, 1 verification failure, 2 input error,
3 numeric (divergence or accuracy) error.

Each command imports the modules it uses when it runs: system and series
are exact and load no numpy, eval loads the quadrature and verify the
finite-difference checks.
"""

from __future__ import annotations

import argparse
import sys

from .contours import QuadratureError
from .lattice import Base, enumerate_bases, unit_exponents
from .polynomials import SparsePolynomial
from .problem_io import (Problem, ProblemFormatError, dump_report,
                         fraction_str, load_problem, make_report)


def _op_struct(op, parameter=None, value=None) -> dict:
    terms = []
    for (mono, deriv), scalar in op.terms.items():
        c = complex(scalar)
        terms.append({
            "scalar": [c.real, c.imag],
            "monomial": [[str(v), p] for v, p in mono],
            "derivative": [[str(v), p] for v, p in deriv],
        })
    out = {"terms": terms}
    if parameter is not None:
        out["parameter"] = parameter
        out["parameter_value"] = value
    return out


def cmd_system(problem: Problem) -> dict:
    """Operator listing: heat-type relations, box operators, Euler operators."""
    from .operators import build_system, operator_text

    warnings = []
    if problem.blocks == 0 and not all(
            e in problem.exponent_sets[0]
            for e in unit_exponents(problem.dimension)):
        warnings.append(
            "linear unit exponents missing from the set: coefficient "
            "derivative relations skipped")
    lists = {"heat": [], "box": [], "euler_t": [], "euler_y": []}
    for kind, key, _, op in build_system(problem.exponent_sets,
                                         problem.blocks, problem.u, problem.v):
        if kind in ("heat", "box"):
            entry = {"omega" if kind == "heat" else "relation": list(key),
                     "text": operator_text(op), **_op_struct(op)}
            if kind == "heat" and problem.blocks:
                # a mixed relation's variables all lie in its block
                entry = {"block": op.variables()[0].block, **entry}
        else:
            if kind == "euler_t":
                field, name, sign, given = "axis", f"u{key}", "", problem.u
            else:
                field, name, sign, given = "block", f"v{key}", "-", problem.v
            x = given[key - 1] if key <= len(given or ()) else None
            entry = {field: key,
                     "text": operator_text(op, identity_label=sign + name),
                     **_op_struct(op, parameter=name,
                                  value=None if x is None
                                  else [x.real, x.imag])}
        lists[kind].append(entry)
    return {"heat_relations": lists["heat"], "box_operators": lists["box"],
            "euler_t_operators": lists["euler_t"],
            "euler_y_operators": lists["euler_y"], "warnings": warnings}


def cmd_series(problem: Problem, order: int | None = None,
               base_indices: tuple | None = None) -> dict:
    """Closed-form series dump to the requested order."""
    from .series import GammaTerm, gg_series

    if problem.blocks != 0:
        raise ProblemFormatError(
            "series: only single-polynomial problems are supported; join "
            "the blocks into one exponent set first")
    if problem.u is None:
        raise ProblemFormatError("series: the parameter vector u is required")
    exponents = problem.exponent_sets[0]
    order = problem.order if order is None else order
    indices = base_indices if base_indices is not None else problem.base
    if indices is not None:
        try:
            base = Base(exponents, indices)
        except ValueError as exc:
            raise ProblemFormatError(f"base: {exc}") from None
    else:
        bases = enumerate_bases(exponents)
        if not bases:
            raise ProblemFormatError(
                "no base exists: no linearly independent subset of the "
                "exponent set")
        base = bases[0]

    series = gg_series(exponents, base, problem.u, order)
    terms = []
    for t in series.terms:
        assert isinstance(t, GammaTerm)
        scalar = complex(t.scalar)
        entry = {
            "m": list(t.m),
            "scalar": [scalar.real, scalar.imag],
            "scalar_exact": [fraction_str(t.scalar.re),
                             fraction_str(t.scalar.im)],
            "rho": [[fraction_str(r.re), fraction_str(r.im)]
                    for r in t.rho()],
            "flags": ["POLE"] if t.is_pole() else [],
        }
        terms.append(entry)
    return {
        "base": list(base.indices),
        "base_exponents": [list(w) for w in base.vectors],
        "series_exponents": [list(v.exponent)
                             for v in series.layout.series_vars],
        "order": order,
        "provenance": "gamma-closed-form",
        "terms": terms,
    }


def _alpha_for(problem: Problem):
    from .quadrature import AlphaMonomial, AlphaOne, AlphaPowerProduct

    if problem.blocks == 0:
        if problem.u is None or all(x == 1 for x in problem.u):
            return AlphaOne()
        return AlphaMonomial(problem.u)
    polys = _block_polys(problem)
    if len(problem.v) != problem.blocks:
        raise ProblemFormatError("v: one exponent per block is required")
    u = problem.u if problem.u is not None else (1.0,) * problem.dimension
    return AlphaPowerProduct(polys, problem.v, u)


def _block_polys(problem: Problem):
    return tuple(
        SparsePolynomial(problem.dimension, coeffs)
        for coeffs in problem.coefficients
    )


def cmd_eval(problem: Problem, tol: float | None = None) -> dict:
    """Contour quadrature of the problem's integral."""
    from .quadrature import IntegrandSpec, integrate

    if problem.contour is None:
        raise ProblemFormatError("eval: a contour is required")
    tol = problem.quad_tol if tol is None else tol
    alpha = _alpha_for(problem)
    if problem.blocks == 0:
        P = SparsePolynomial(problem.dimension, problem.coefficients[0])
    else:
        P = SparsePolynomial.zero(problem.dimension)
    value, err = integrate(IntegrandSpec(P, alpha), problem.contour, tol)
    return {"value": [value.real, value.imag], "err_estimate": err,
            "tol": tol}


def cmd_verify(problem: Problem, tol: float | None = None) -> dict:
    """Finite-difference residuals of the generated system."""
    from .verify import check_cayley_consistency, check_gg_system

    if problem.contour is None:
        raise ProblemFormatError("verify: a contour is required")
    if problem.u is None:
        raise ProblemFormatError("verify: the parameter vector u is required")
    quad_tol = problem.quad_tol if tol is None else tol
    if problem.blocks == 0:
        reports = check_gg_system(
            problem.exponent_sets[0], problem.u,
            center=problem.coefficients[0], contour=problem.contour,
            h=problem.fd_step, tol=problem.residual_tol, quad_tol=quad_tol,
            operator_u=problem.euler_u)
    else:
        if len(problem.v) != problem.blocks:
            raise ProblemFormatError("verify: one v per block is required")
        reports = check_cayley_consistency(
            _block_polys(problem), problem.v, problem.u, problem.contour,
            exponent_sets=problem.exponent_sets, h=problem.fd_step,
            tol=problem.residual_tol, quad_tol=quad_tol,
            operator_u=problem.euler_u, operator_v=problem.euler_v)
    return {
        "reports": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
        "residual_tol": problem.residual_tol,
    }


def _parse_base_arg(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ProblemFormatError(
            f"--base: expected comma-separated indices, got {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hypint",
        description="Differential systems, series expansions and contour "
                    "quadrature for exponential-of-polynomial integrals.")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--order": dict(type=int, help="series truncation order override"),
        "--base": dict(type=str, help="comma-separated base member indices"),
        "--tol": dict(type=float, help="quadrature tolerance override"),
    }
    # each command takes only the flags it reads, so a stray one exits 2
    for name, help_text, own in [
        ("system", "emit the generated differential operators", ()),
        ("series", "expand the base-indexed coefficient series",
         ("--order", "--base")),
        ("eval", "evaluate the integral by contour quadrature", ("--tol",)),
        ("verify", "check the system against quadrature by finite differences",
         ("--tol",)),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("problem", help="problem JSON file")
        for flag in own:
            p.add_argument(flag, **flags[flag])
        p.add_argument("--out", type=str, default=None,
                       help="write the report JSON to this file as well")
    args = parser.parse_args(argv)

    try:
        problem = load_problem(args.problem)
        if args.command == "system":
            results = cmd_system(problem)
        elif args.command == "series":
            base = None if args.base is None else _parse_base_arg(args.base)
            results = cmd_series(problem, order=args.order, base_indices=base)
        elif args.command == "eval":
            results = cmd_eval(problem, tol=args.tol)
        else:
            results = cmd_verify(problem, tol=args.tol)
    except ProblemFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2

    report = make_report(args.command, problem, results)
    text = dump_report(report)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.command == "verify" and not results["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
