"""The two workloads: seeded inputs, one operation per user request, and
a check of every output.

`cli` runs the command line in a fresh process per request; `compute`
runs three kinds of in-process request (QuadOps, SeriesOps, VerifyOps).
Constructing a workload is its set-up (inputs built from the seed, hypint
imported); setup_s times exactly that in fresh interpreters.  prepare()
computes the references, which is harness work and never timed.  round()
returns the operations of one round; every operation is a whole user
request (a CLI run, an integral, a series build-and-check, a system check
with a fresh CoeffFunction) and never a call a warm cache could serve.

hypint is always called through its module attributes, so the tracing
hooks of spans.install_hooks apply when they are installed.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import hypint.lattice as lattice
import hypint.operators as operators
import hypint.quadrature as quadrature
import hypint.series as series_mod
import hypint.verify as verify
from hypint.polynomials import SparsePolynomial

OUT_DIR = ".bench_out"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    label: str
    kind: str  # the request type: system, series, eval or verify
    run: Callable[[], object]
    check: Callable[[object], "str | None"]  # None when the output is right
    known_fault: bool = False
    counts: "Callable[[object], dict] | None" = None


def _short(x, places=2):
    """A short decimal, as a problem file would carry it."""
    return round(float(x), places)


def _non_integer(x):
    return x + 0.01 if float(x).is_integer() else x


def _strata(rng, n, lo, hi):
    """n draws, one from each of n equal slices of [lo, hi), shuffled, so
    every seed gets the same spread of sizes."""
    return [lo + (hi - lo) * (k + rng.random()) / n for k in rng.permutation(n)]


def _rank(rows):
    return int(np.linalg.matrix_rank(np.array(rows, dtype=float))) if rows else 0


# ----------------------------------------------------------------------
# cli


def _problem_closed_form(data):
    """Closed form of a bundled problem's integral, chosen by its shape."""
    import reference
    sets = [[tuple(w) for w in s] for s in data["exponent_sets"]]
    coeffs = [[complex(*c) for c in cs] for cs in data["coefficients"]]
    u = complex(*data["u"][0])
    leg = data["contour"][0][0]
    if data["blocks"] == 0 and sets[0] == [(1,), (2,)] and leg["kind"] == "line" \
            and u == 1:
        return reference.gaussian_line(coeffs[0][0], coeffs[0][1])
    if data["blocks"] == 0 and sets[0] == [(1,)] and leg["kind"] == "ray":
        return reference.gamma_ray(coeffs[0][0], u)
    if data["blocks"] == 1 and sets[0] == [(0,), (1,)] and leg["kind"] == "segment" \
            and leg["start"] == [0.0, 0.0] and leg["end"] == [1.0, 0.0]:
        return reference.power_segment(coeffs[0][0].real, coeffs[0][1].real,
                                       complex(*data["v"][0]).real, u.real)
    raise ValueError("no closed form for this problem shape")


class CliWorkload:
    """A fresh `python -m hypint` process per operation."""

    name = "cli"
    tail_q = 0.75
    whole_rounds = False  # no operation fails, so runs may stop mid-round
    PROBLEMS = ("gaussian", "gamma_half", "log_kernel")
    COMMANDS = ("system", "series", "eval", "verify")

    def __init__(self, root, seed, tracer):
        self.root = root
        self.tracer = tracer
        rng = np.random.default_rng(seed)
        self.work_dir = os.path.join(root, OUT_DIR, f"cli-{os.getpid()}")
        os.makedirs(self.work_dir, exist_ok=True)
        self.paths = {p: os.path.join(root, "problems", f"{p}.json")
                      for p in self.PROBLEMS}
        with open(self.paths["gaussian"], encoding="utf-8") as fh:
            data = json.load(fh)
        u = data["u"][0]
        data["euler_u"] = [[u[0] + _short(rng.uniform(0.05, 0.5)), u[1]]]
        self.paths["perturbed"] = os.path.join(self.work_dir, "perturbed.json")
        with open(self.paths["perturbed"], "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        specs = [(c, p) for p in self.PROBLEMS for c in self.COMMANDS]
        specs.append(("verify", "perturbed"))
        self.specs = [specs[i] for i in rng.permutation(len(specs))]
        self.env = dict(os.environ)
        self.env.pop("HYPINT_THREADS", None)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.peak_child_kb = 0

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def prepare(self):
        self.data = {}
        for name, path in self.paths.items():
            with open(path, encoding="utf-8") as fh:
                self.data[name] = json.load(fh)
        self.closed = {p: _problem_closed_form(self.data[p])
                       for p in self.PROBLEMS}

    def round(self):
        return [Op(f"{cmd}:{prob}", cmd, functools.partial(self._spawn, cmd, prob),
                   functools.partial(self._check, cmd, prob))
                for cmd, prob in self.specs]

    def _spawn(self, cmd, prob):
        if self.tracer.op_id is None:
            argv = [sys.executable, "-m", "hypint", cmd, self.paths[prob]]
        else:
            argv = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"),
                    cmd, self.paths[prob]]
        out_path = os.path.join(self.work_dir, "stdout")
        err_path = os.path.join(self.work_dir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        if self.tracer.op_id is not None:
            head, _, tail = stderr.rpartition("BENCH_SPANS ")
            if tail:
                self.tracer.absorb(json.loads(tail), self.tracer.stack[-1])
                stderr = head
        return proc.returncode, stdout, stderr

    def peak_rss_mb(self):
        return self.peak_child_kb / 1024.0

    # -- checks --------------------------------------------------------
    def _check(self, cmd, prob, out):
        rc, stdout, stderr = out
        if cmd == "series" and self.data[prob]["blocks"] != 0:
            # series supports single-polynomial problems only: exit 2
            if rc != 2 or not stderr.startswith("input error"):
                return f"expected exit 2 with an input error, got {rc}"
            return None
        expected_rc = 1 if prob == "perturbed" else 0
        if rc != expected_rc:
            return f"exit code {rc}, expected {expected_rc}: {stderr[-300:]}"
        results = json.loads(stdout)["results"]
        return getattr(self, f"_check_{cmd}")(prob, results)

    def _check_system(self, prob, results):
        data = self.data[prob]
        n, blocks = data["dimension"], data["blocks"]
        sets = [[tuple(w) for w in s] for s in data["exponent_sets"]]
        if blocks == 0:
            members = sets[0]
        else:
            members = [w + tuple(1 if j == i else 0 for j in range(blocks))
                       for i, s in enumerate(sets) for w in s]
        boxes = results["box_operators"]
        want = len(members) - _rank(members) if len(members) > 1 else 0
        if len(boxes) != want:
            return f"{len(boxes)} box operators, expected |A| - rank = {want}"
        for box in boxes:
            rel = box["relation"]
            if any(sum(c * w[j] for c, w in zip(rel, members))
                   for j in range(len(members[0]))):
                return f"box relation {rel} is not in the kernel"
        if _rank([b["relation"] for b in boxes]) != len(boxes):
            return "box relations are dependent"
        if len(results["euler_t_operators"]) != n:
            return "one Euler t operator per variable expected"
        if len(results["euler_y_operators"]) != blocks:
            return "one Euler y operator per block expected"
        return None

    def _check_series(self, prob, results):
        data = self.data[prob]
        members = [w[0] for w in data["exponent_sets"][0]]
        base = data["base"][0]
        order = data["order"]
        u = complex(*data["u"][0])
        b = members[base]
        series_exps = [w for i, w in enumerate(members) if i != base]
        s0 = (Fraction(u.real) / b, Fraction(u.imag) / b)
        terms = results["terms"]
        k = len(series_exps)
        if len(terms) != math.comb(order + k, k):
            return f"{len(terms)} terms, expected {math.comb(order + k, k)}"
        for t in terms:
            m = t["m"]
            shift = sum(Fraction(mw * w, b) for mw, w in zip(m, series_exps))
            want_rho = (-(s0[0] + shift), -s0[1])
            rho = tuple(Fraction(x) for x in t["rho"][0])
            if rho != want_rho:
                return f"term {m}: rho {t['rho'][0]}, expected {want_rho}"
            weight = Fraction(1, math.prod(math.factorial(mw) for mw in m))
            scalar = tuple(Fraction(x) for x in t["scalar_exact"])
            if scalar != (weight, 0):
                return f"term {m}: scalar {t['scalar_exact']}, expected {weight}"
        return None

    def _check_eval(self, prob, results):
        value = complex(*results["value"])
        ref = self.closed[prob]
        tol = results["tol"]
        if abs(value - ref) > tol * abs(ref):
            return f"value {value} is {abs(value - ref) / abs(ref):.2e} " \
                   f"from the closed form {ref}, tolerance {tol}"
        if results["err_estimate"] > tol * abs(value):
            return "error estimate above the tolerance"
        return None

    def _check_verify(self, prob, results):
        failed = {r["label"] for r in results["reports"] if not r["passed"]}
        want = {"euler_t[1]"} if prob == "perturbed" else set()
        if failed != want or results["all_passed"] != (not want):
            return f"failed residuals {sorted(failed)}, expected {sorted(want)}"
        return None


# ----------------------------------------------------------------------
# quad


class QuadOps:
    """integrate of exp(-x^T A x + b^T x) over R^2, a product of two lines."""

    SIZE = 8
    TOL = 1e-8

    def __init__(self, rng):
        lam1 = _strata(rng, self.SIZE, 0.6, 2.0)
        lam2 = _strata(rng, self.SIZE, 0.6, 2.0)
        self.cases = []
        for l1, l2 in zip(lam1, lam2):
            th = rng.uniform(0.0, math.pi)
            c, s = math.cos(th), math.sin(th)
            a = _short(l1 * c * c + l2 * s * s, 3)
            d = _short(l1 * s * s + l2 * c * c, 3)
            off = _short((l1 - l2) * c * s, 3)
            # |Re b|, |Im b| <= 0.5: larger b adds two outer panels (16 % more
            # work) to about two integrals in five, and how many of the eight
            # get them would then set where the median of a round falls
            b = [complex(_short(rng.uniform(-0.5, 0.5)),
                         _short(rng.uniform(-0.5, 0.5))) for _ in range(2)]
            P = SparsePolynomial(2, {(2, 0): -a, (1, 1): -2 * off, (0, 2): -d,
                                     (1, 0): b[0], (0, 1): b[1]})
            self.cases.append(([[a, off], [off, d]], b,
                               quadrature.IntegrandSpec(P, quadrature.AlphaOne())))
        self.contour = quadrature.ProductContour(
            [[quadrature.Line(0.0)], [quadrature.Line(0.0)]])

    def prepare(self):
        import reference  # mpmath: harness work, kept out of set-up
        self.refs = [reference.gaussian_plane(A, b) for A, b, _ in self.cases]

    def ops(self):
        return [Op(f"quad[{i}]", "eval", functools.partial(self._integrate, spec),
                   functools.partial(self._check, ref))
                for i, ((_, _, spec), ref) in enumerate(zip(self.cases, self.refs))]

    def _integrate(self, spec):
        return quadrature.integrate(spec, self.contour, self.TOL)

    def _check(self, ref, out):
        value, err = out
        if abs(value - ref) > self.TOL * abs(ref):
            return f"value {value} is {abs(value - ref) / abs(ref):.2e} " \
                   f"from the closed form {ref}"
        if err > self.TOL * abs(value):
            return "error estimate above the tolerance"
        return None


# ----------------------------------------------------------------------
# series


def _det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _solve2(base_vecs, rhs):
    """Coordinates x with x1*b1 + x2*b2 = rhs, over Fractions (Cramer)."""
    b1, b2 = base_vecs
    det = _det2(b1, b2)
    return (Fraction(_det2(rhs, b2)) / det, Fraction(_det2(b1, rhs)) / det)


@dataclass
class _SeriesCase:
    members: list
    exponents: object      # hypint ExponentSet, the program's input
    u: tuple               # complex, short decimals
    pick: int              # index of the base in the list of bases
    bases: list            # the benchmark's own list of independent pairs
    base: tuple
    s0: tuple              # ((re, im), (re, im)) Fractions
    coords: dict           # series exponent -> (l1, l2) Fractions
    points: list


class SeriesOps:
    """gg_series on a 2-D exponent set, every box and Euler operator
    applied, and evaluate_series at a few points."""

    ORDER = 10
    POINTS = 3
    # (exponent set, base) pairs, base determinants 1 to 4.  The structure
    # sets an operation's cost (0.19 to 0.48 s today) while u moves it by
    # under 3 %, so every round holds all of them and the seed draws the
    # member order, a mirror x <-> y, u, the points and the round order;
    # a seeded choice of structures would make the median follow the seed.
    MENU = [
        ([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)], [(1, 0), (0, 1)]),
        ([(1, 0), (0, 1), (2, 0), (0, 2), (1, 2)], [(2, 0), (0, 2)]),
        ([(1, 0), (1, 1), (0, 2), (2, 1), (2, 2)], [(1, 1), (0, 2)]),
        ([(0, 1), (1, 1), (2, 1), (1, 2), (2, 2)], [(1, 1), (2, 1)]),
        ([(1, 0), (2, 0), (1, 1), (1, 2), (2, 2)], [(1, 0), (1, 2)]),
        ([(2, 0), (1, 1), (0, 2), (2, 1), (1, 2)], [(2, 1), (1, 2)]),
        ([(0, 1), (2, 0), (2, 1), (1, 2), (2, 2)], [(2, 0), (2, 1)]),
        ([(1, 0), (0, 1), (1, 1), (0, 2), (2, 2)], [(0, 1), (2, 2)]),
        ([(1, 0), (0, 1), (2, 1), (1, 2), (2, 2)], [(2, 1), (1, 2)]),
        ([(1, 0), (0, 1), (2, 0), (1, 1), (2, 1)], [(1, 1), (2, 0)]),
    ]

    def __init__(self, rng, tracer):
        self.tracer = tracer
        cases = [self._draw(rng, *entry) for entry in self.MENU]
        self.cases = [cases[i] for i in rng.permutation(len(cases))]

    def _draw(self, rng, members, base_vecs):
        if rng.random() < 0.5:
            members = [w[::-1] for w in members]
            base_vecs = [w[::-1] for w in base_vecs]
        members = [members[i] for i in rng.permutation(len(members))]
        bases = [c for c in itertools.combinations(range(5), 2)
                 if _det2(members[c[0]], members[c[1]]) != 0]
        base = tuple(sorted(members.index(w) for w in base_vecs))
        vecs = (members[base[0]], members[base[1]])
        while True:
            u = tuple(complex(_short(rng.uniform(0.2, 2.0)),
                              _short(rng.uniform(-0.5, 0.5))) for _ in range(2))
            s_re = _solve2(vecs, (Fraction(u[0].real), Fraction(u[1].real)))
            s_im = _solve2(vecs, (Fraction(u[0].imag), Fraction(u[1].imag)))
            # a nonzero imaginary part keeps every s_j(m) off the Gamma poles
            if all(s_im):
                break
        coords = {w: _solve2(vecs, w) for i, w in enumerate(members)
                  if i not in base}
        points = []
        for _ in range(self.POINTS):
            point = {w: complex(-_short(rng.uniform(0.7, 1.4)),
                                _short(rng.uniform(-0.3, 0.3)))
                     for w in vecs}
            point.update({w: complex(_short(rng.uniform(-0.15, 0.15)),
                                     _short(rng.uniform(-0.15, 0.15)))
                          for w in coords})
            points.append(point)
        return _SeriesCase(members, lattice.ExponentSet(2, members), u,
                           bases.index(base), bases, base,
                           tuple(zip(s_re, s_im)), coords, points)

    def _own_terms(self, case):
        series_exps = list(case.coords)
        terms = []
        for m in itertools.product(range(self.ORDER + 1), repeat=len(series_exps)):
            if sum(m) > self.ORDER:
                continue
            s = []
            for j in range(2):
                re = case.s0[j][0] + sum(mw * case.coords[w][j]
                                         for mw, w in zip(m, series_exps))
                s.append((re, case.s0[j][1]))
            terms.append((m, tuple(s)))
        return terms

    def prepare(self):
        import reference  # mpmath: harness work, kept out of set-up
        self.own = []
        for case in self.cases:
            terms = self._own_terms(case)
            base_exps = [case.members[i] for i in case.base]
            refs = reference.gamma_series_sums(terms, base_exps,
                                               list(case.coords), case.points)
            self.own.append(({m: s for m, s in terms}, refs))

    def ops(self):
        return [Op(f"series[{i}]", "series", functools.partial(self._build, case),
                   functools.partial(self._check, case, own),
                   counts=self._counts)
                for i, (case, own) in enumerate(zip(self.cases, self.own))]

    def _build(self, case):
        span = self.tracer.span
        exps = case.exponents
        with span("lattice.enumerate_bases"):
            bases = lattice.enumerate_bases(exps)
        base = bases[case.pick]
        with span("series.gg_series"):
            series = series_mod.gg_series(exps, base, case.u, self.ORDER)
        with span("lattice.kernel_basis"):
            relations = lattice.kernel_basis(exps)
        ops = [operators.box_operator(r) for r in relations]
        ops += [operators.euler_t_operator(exps, j + 1, case.u[j])
                for j in range(2)]
        applied = []
        for op in ops:
            with span("operators.apply"):
                applied.append(operators.apply_to_series(op, series))
        values = []
        for point in case.points:
            with span("series.evaluate"):
                values.append(series_mod.evaluate_series(series, point)[0])
        return bases, series, relations, applied, values

    def _check(self, case, own, out):
        bases, series, relations, applied, values = out
        own_terms, refs = own
        if [b.indices for b in bases] != case.bases:
            return f"bases {[b.indices for b in bases]}, expected {case.bases}"
        members = case.members
        if len(relations) != len(members) - _rank(members):
            return f"{len(relations)} box relations, expected |A| - rank"
        for rel in relations:
            if any(sum(c * w[j] for c, w in zip(rel.coefficients, members))
                   for j in range(2)):
                return f"relation {rel.coefficients} is not in the kernel"
        if _rank([r.coefficients for r in relations]) != len(relations):
            return "box relations are dependent"
        if series.layout.base.indices != case.base:
            return "the series uses another base"
        if len(series.terms) != len(own_terms):
            return f"{len(series.terms)} terms, expected {len(own_terms)}"
        for t in series.terms:
            want = own_terms.get(t.m)
            args = tuple((a.re, a.im) for a in t.args)
            if args != want:
                return f"term {t.m}: Gamma arguments differ from s0 + L m"
            weight = Fraction(1, math.prod(math.factorial(mw) for mw in t.m))
            if (t.scalar.re, t.scalar.im) != (weight, 0):
                return f"term {t.m}: scalar {t.scalar}, expected {weight}"
        for k, out_series in enumerate(applied):
            if out_series.complete_below < 1:
                return f"operator {k}: nothing is complete"
            low = [t.m for t in out_series.terms
                   if sum(t.m) < out_series.complete_below]
            if low:
                return f"operator {k}: terms {low[:3]} survive below order " \
                       f"{out_series.complete_below}"
        for value, (ref, scale) in zip(values, refs):
            if abs(value - ref) > 1e-10 * scale:
                return f"series value {value} differs from the mpmath sum " \
                       f"{ref} by {abs(value - ref) / scale:.2e} of its scale"
        return None

    @staticmethod
    def _counts(out):
        series = out[1]
        bits = 0
        for t in series.terms:
            for x in (t.scalar.re, t.scalar.im, *(c for a in t.args
                                                 for c in (a.re, a.im))):
                bits = max(bits, x.denominator.bit_length())
        return {"terms": len(series.terms), "den_bits": bits}


# ----------------------------------------------------------------------
# verify


class VerifyOps:
    """check_gg_system / check_cayley_consistency on 1-D problems, each
    with a fresh CoeffFunction."""

    PER_KIND = 3
    QUAD_TOL = 1e-10
    RESIDUAL_TOL = 1e-3
    # residual labels each kind reports (|A| - rank = 1 box for {1, 2})
    LABELS = {"gauss": {"heat[2]", "box[2, -1]", "euler_t[1]"},
              "ray": {"euler_t[1]"},
              "power": {"euler_y[1]", "euler_t[1]"}}

    def __init__(self, rng, tracer):
        self.tracer = tracer
        n = self.PER_KIND
        cases = []
        for c2 in _strata(rng, n, 0.6, 2.0):
            c1 = complex(_short(rng.uniform(-1, 1)), _short(rng.uniform(-0.5, 0.5)))
            cases.append({"kind": "gauss", "c1": c1, "c2": -_short(c2), "u": 1.0})
        for c1, u in zip(_strata(rng, n, 0.5, 2.0), _strata(rng, n, 0.5, 3.0)):
            cases.append({"kind": "ray", "u": _non_integer(_short(u)),
                          "c1": complex(-_short(c1), _short(rng.uniform(-0.3, 0.3)))})
        for k, v in enumerate(_strata(rng, n, -1.5, 1.5)):
            a0 = _short(rng.uniform(0.8, 1.5))
            cases.append({"kind": "power", "a0": a0,
                          "a1": _short(a0 * rng.uniform(-0.6, 0.6)),
                          "v": _non_integer(_short(v)), "u": float(1 + k % 2)})
        # the last gauss and the last power case become negative controls
        for case in (cases[n - 1], cases[-1]):
            case["operator_u"] = case["u"] + _short(rng.uniform(0.05, 0.3))
        # Fixed, seed-independent, and failing today: the t^-0.9 endpoint
        # of the ray is not mapped, so at tol 1e-9 the value misses by 2.3e-9.
        cases.append({"kind": "ray", "u": 0.1, "c1": complex(-1.0, 0.0),
                      "tol": 1e-9, "known_fault": True})
        self.cases = [cases[i] for i in rng.permutation(len(cases) - 1)] + cases[-1:]
        for case in self.cases:
            self._build_inputs(case)

    def _build_inputs(self, case):
        Q = quadrature
        if case["kind"] == "gauss":
            case["exponents"] = lattice.ExponentSet(1, [(1,), (2,)])
            case["center"] = {(1,): case["c1"], (2,): complex(case["c2"])}
            case["contour"] = Q.ProductContour([[Q.Line(0.0)]])
        elif case["kind"] == "ray":
            case["exponents"] = lattice.ExponentSet(1, [(1,)])
            case["center"] = {(1,): case["c1"]}
            case["contour"] = Q.ProductContour([[Q.Ray(0j, 0.0)]], {("t", 1): 0.0})
        else:
            case["poly"] = SparsePolynomial(1, {(0,): case["a0"], (1,): case["a1"]})
            case["contour"] = Q.ProductContour([[Q.Segment(0j, 1 + 0j)]],
                                               {("P", 1): 0.0})

    def prepare(self):
        import reference  # mpmath: harness work, kept out of set-up
        for case in self.cases:
            if case["kind"] == "gauss":
                case["ref"] = reference.gaussian_line(case["c1"], case["c2"])
            elif case["kind"] == "ray":
                case["ref"] = reference.gamma_ray(case["c1"], case["u"])
            else:
                case["ref"] = reference.power_segment(case["a0"], case["a1"],
                                                      case["v"], case["u"])

    def ops(self):
        ops = []
        for i, case in enumerate(self.cases):
            label = f"{case['kind']}[{i}]" + ("-neg" if "operator_u" in case else "")
            ops.append(Op(label, "verify", functools.partial(self._run, case),
                          functools.partial(self._check, case),
                          known_fault=case.get("known_fault", False),
                          counts=lambda out: {"residuals": len(out[0])}))
        return ops

    def _run(self, case):
        tol = case.get("tol", self.QUAD_TOL)
        u = (case["u"],)
        if case["kind"] == "power":
            with self.tracer.span("verify.check"):
                reports = verify.check_cayley_consistency(
                    [case["poly"]], (case["v"],), u, case["contour"],
                    tol=self.RESIDUAL_TOL, quad_tol=tol,
                    operator_u=case.get("operator_u"))
            return reports, None
        f = verify.CoeffFunction.from_gg_quadrature(
            case["exponents"], u, case["contour"], tol)
        with self.tracer.span("verify.check"):
            reports = verify.check_gg_system(
                case["exponents"], u, case["center"], f=f,
                tol=self.RESIDUAL_TOL, quad_tol=tol,
                operator_u=case.get("operator_u"))
        return reports, f

    def _center_value(self, case, f):
        tol = case.get("tol", self.QUAD_TOL)
        if f is not None:
            # the check evaluated the centre already; this is a cache hit
            return f({verify.CoeffVar(0, w): v for w, v in case["center"].items()})
        return quadrature.euler_integral_eval(
            [case["poly"]], (case["v"],), (case["u"],), case["contour"], tol)

    def _check(self, case, out):
        reports, f = out
        labels = {r.label for r in reports}
        if labels != self.LABELS[case["kind"]] or len(reports) != len(labels):
            return f"residual labels {sorted(labels)}"
        failed = {r.label for r in reports if not r.passed}
        want = {"euler_t[1]"} if "operator_u" in case else set()
        if failed != want:
            return f"failed residuals {sorted(failed)}, expected {sorted(want)}"
        tol = case.get("tol", self.QUAD_TOL)
        value = self._center_value(case, f)
        ref = case["ref"]
        if abs(value - ref) > tol * abs(ref):
            return f"centre value {value} is {abs(value - ref) / abs(ref):.2e} " \
                   f"from the closed form {ref}, tolerance {tol}"
        return None


# ----------------------------------------------------------------------
# compute


class ComputeWorkload:
    """In-process requests: 2-D integrals (eval), exact series builds
    (series) and finite-difference system checks (verify).

    One workload instead of three keeps runs long enough to average out
    the slow drift in machine speed (see README).  A round holds 10
    checks (2-90 ms), 8 integrals (0.08-0.15 s) and 10 series (0.2-0.5 s),
    so its median falls in the middle of the integrals and its p90 inside
    the series; the checks show in the per-layer metrics and in `failed`.
    """

    name = "compute"
    tail_q = 0.90
    whole_rounds = True  # keeps failed/attempted exact: one known fault a round

    def __init__(self, root, seed, tracer):
        rngs = [np.random.default_rng([seed, k]) for k in range(3)]
        self.parts = [QuadOps(rngs[0]), SeriesOps(rngs[1], tracer),
                      VerifyOps(rngs[2], tracer)]

    def close(self):
        pass

    def prepare(self):
        for part in self.parts:
            part.prepare()

    def round(self):
        return [op for part in self.parts for op in part.ops()]

    def peak_rss_mb(self):
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (CliWorkload, ComputeWorkload)}
