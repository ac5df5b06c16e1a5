"""Adaptive quadrature of exp(P) integrals on explicit product contours.

Evaluates integrals of exp(P(t)) * alpha(t) dt1..dtn for n <= 3, where
alpha is 1, a monomial t^(u-1), or a product of polynomial powers
P_1^v_1 .. P_k^v_k t^(u-1), over one parametric complex path chain per
variable.  The driver is iterated one-dimensional adaptive integration,
innermost variable first, using interval halving with an embedded
Gauss7/Kronrod15 pair so every subinterval carries its own error
estimate.  The contours (Segment, Ray, Arc, Line, ProductContour) and
the errors (QuadratureError, DivergenceError, AccuracyError) are
defined in hypint.contours, which loads no numpy, and re-exported here;
this module holds the integrand descriptions and the numeric driver.

Each level is batched over its nodes: the integral over variable j is
computed for all B nodes at once, one lockstep adaptive run per leg.
Every round each unconverged node bisects its own worst interval, just
as it would alone, and the panels of all nodes go to the integrand in
one array call.  Above the innermost level that call is the next level,
which takes all points of the round as its nodes, at most _NODE_CAP at
a time so that memory stays bounded in three variables.

At the outermost level the nodes are the integrands themselves:
``integrate`` takes one IntegrandSpec or a sequence of specs that differ
only in their polynomial coefficients, and every node of every level
carries the index of the batch member whose coefficients it reads.  A
batch of finite-difference stencil points thus runs in one lockstep
pass, each member with the bisections, truncation radii, error
estimates and values it gets alone.  Members whose polynomial supports
differ (an exactly zero coefficient drops its monomial) run in separate
passes; a single spec is a batch of one.

Unbounded legs are truncated, per node, where the integrand magnitude
falls below 1e-18 of its on-leg maximum; before that a decay check
requires Re P < -50 within the sampled range, otherwise the integral is
declared divergent.  The scan over the radii runs for all nodes in one
array pass.  For multivalued factors (non-integer exponents) the
argument of each factor is continued along each node's path by
accumulating argument increments between consecutive sample points on a
refined grid; quadrature nodes then pick up the winding number nearest
to the tracked argument, which makes branch-corrected evaluation
independent of the order in which the adaptive rule visits the points.
Power products with non-integer exponents are supported in one variable
(their branch structure on higher-dimensional product contours is not
modeled); integer powers work in any dimension.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

# the contour descriptions and errors live in .contours, which needs no
# numpy; they are re-exported here as part of this module's interface
from .contours import (AccuracyError, Arc, DivergenceError, Leg, Line,
                       ProductContour, QuadratureError, Ray, Segment, _INF,
                       _leg_endpoints)
from .polynomials import SparsePolynomial

TWO_PI = 2.0 * math.pi

DECAY_RE_P = -50.0          # required exponent decay on unbounded legs
MAGNITUDE_CUT = 1e-18       # truncation threshold relative to on-leg max
VANISH_TOL = 1e-12          # multivalued factor may not vanish on a leg
ABS_FLOOR = 1e-14           # below this magnitude relative error is moot
_NODE_CAP = 64              # outer nodes per inner-level call; bounds memory

# glibc returns the top of its heap to the system whenever more than its
# trim threshold (128 KiB by default) lies free there.  A batched level
# allocates and frees complex temporaries of up to 125 KiB (_NODE_CAP
# nodes times 120 points or 122 scan radii), so, depending on where
# long-lived objects happen to sit on the heap, every inner level could
# hand pages back and fault them in again: up to 200 page faults and a
# tenth of the time of a 2-D integral, varying from process to process.
# Freeing one block above the mmap threshold makes glibc raise that
# threshold to the block's size and the trim threshold to twice it,
# unless they were set explicitly; other allocators ignore it.
np.empty(4 << 20, dtype=np.uint8)


# ----------------------------------------------------------------------
# integrand description


@dataclass(frozen=True)
class AlphaOne:
    pass


@dataclass(frozen=True)
class AlphaMonomial:
    u: tuple

    def __init__(self, u):
        u = tuple(complex(x) for x in (u if isinstance(u, (tuple, list)) else (u,)))
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class AlphaPowerProduct:
    polys: tuple
    v: tuple
    u: tuple

    def __init__(self, polys, v, u=None):
        polys = tuple(polys)
        v = tuple(complex(x) for x in v)
        if len(polys) != len(v):
            raise ValueError("need one exponent per polynomial factor")
        if u is None:
            u = (1.0,) * polys[0].dimension if polys else ()
        u = tuple(complex(x) for x in (u if isinstance(u, (tuple, list)) else (u,)))
        object.__setattr__(self, "polys", polys)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class IntegrandSpec:
    P: SparsePolynomial
    alpha: object  # AlphaOne | AlphaMonomial | AlphaPowerProduct

    def __post_init__(self):
        n = self.P.dimension
        if isinstance(self.alpha, AlphaMonomial) and len(self.alpha.u) != n:
            raise ValueError("monomial parameter length must equal the dimension")
        if isinstance(self.alpha, AlphaPowerProduct):
            if len(self.alpha.u) != n:
                raise ValueError("parameter length must equal the dimension")
            for p in self.alpha.polys:
                if p.dimension != n:
                    raise ValueError("power-product factors must share the dimension")


def _is_int(x: complex) -> bool:
    return x.imag == 0 and float(x.real).is_integer()


# ----------------------------------------------------------------------
# Gauss7/Kronrod15 rule

_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
_GAUSS_IDX = np.arange(1, 15, 2)

# points handed to a batched integrand: which integral, and where
_NODE_TAU = np.dtype([("node", np.intp), ("tau", float)])


def _gk15(f, node, a, b, batched):
    """Kronrod values and |Kronrod - Gauss| estimates of the panels
    [a_k, b_k] of integrals node_k, all evaluated in one call of ``f``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid[:, None] + half[:, None] * _XGK
    if batched:
        points = np.empty(x.size, dtype=_NODE_TAU)
        points["node"] = np.repeat(node, _XGK.size)
        points["tau"] = x.ravel()
    else:
        points = x.ravel()
    fx = np.asarray(f(points), dtype=complex).reshape(x.shape)
    # weighted sums, not a matrix product: the complex product runs on
    # multithreaded BLAS, whose threads made 3-D integrals up to 3x slower
    kron = half * (fx * _WGK).sum(axis=1)
    gauss = half * (fx[:, _GAUSS_IDX] * _WG).sum(axis=1)
    return kron, np.abs(kron - gauss)


def adaptive_quadrature(f, a, b, rel_tol, abs_floor, max_intervals=4096,
                        what="integral", failures=None):
    """Adaptive interval-halving with the embedded Gauss/Kronrod pair.

    With scalar ``a`` and ``b``, ``f`` is evaluated on numpy arrays of
    points and (value, err, roundoff floor) is returned.  With length-B
    arrays, B independent integrals run in lockstep: each round every
    unconverged integral bisects its own worst interval, and ``f``
    receives one array with fields ``node`` (which integral) and ``tau``
    (the point) holding all panels requested in the round; the three
    results are then length-B arrays.  Each integral stops on its own
    target and follows exactly the bisections it would follow alone.
    Raises AccuracyError carrying the best estimate of the failing
    integral when its budget or bisection depth is exhausted.  Batched,
    with a dict ``failures``, that error is stored there under the
    integral's index instead, and the other integrals run on; integrals
    already in it are not refined, and their results mean nothing.
    """
    batched = np.ndim(a) > 0
    pieces = np.linspace(np.atleast_1d(a), np.atleast_1d(b), 9, axis=1)
    count = len(pieces)
    vals, errs = _gk15(f, np.repeat(np.arange(count), 8),
                       pieces[:, :-1].ravel(), pieces[:, 1:].ravel(), batched)
    vals, errs = vals.reshape(count, 8), errs.reshape(count, 8)
    total = np.zeros(count, dtype=complex)
    err_total = np.zeros(count)
    mass = np.zeros(count)
    for k in range(8):
        total += vals[:, k]
        err_total += errs[:, k]
        mass += np.abs(vals[:, k])
    # a converged integral never changes again, so from here on only the
    # active ones are visited, with their state as python scalars
    total, err_total, mass = total.tolist(), err_total.tolist(), mass.tolist()
    heaps = {}  # built when an integral first needs a bisection
    stuck_err = {}
    intervals = {}
    tiebreak = 8  # the starting panels hold 0..7
    active = [i for i in range(count) if i not in failures] if failures \
        else range(count)

    def fail(i, message):
        error = AccuracyError(message, total[i], err_total[i])
        if failures is None:
            raise error
        failures[i] = error

    while True:
        split = []
        still = []
        for i in active:
            # the roundoff floor relative to the accumulated mass is the
            # best double precision can do when the integrand cancels
            target = max(abs_floor, rel_tol * abs(total[i]), 5e-16 * mass[i])
            if err_total[i] <= target:
                continue
            if i not in heaps:
                heaps[i] = list(zip((-errs[i]).tolist(), range(8),
                                    pieces[i, :-1].tolist(),
                                    pieces[i, 1:].tolist(), vals[i].tolist()))
                heapq.heapify(heaps[i])
                stuck_err[i] = 0.0
                intervals[i] = 8
            if intervals[i] >= max_intervals or not heaps[i]:
                fail(i, f"tolerance not met for {what} after {intervals[i]} "
                        f"intervals (err {err_total[i]:.3e}, value "
                        f"{total[i]:.6e})")
                continue
            neg_err, _, lo, hi, val = heapq.heappop(heaps[i])
            if hi - lo < max(1e-15 * max(abs(lo), abs(hi)), 5e-300):
                # cannot usefully subdivide; its error stays in the total
                stuck_err[i] -= neg_err
                if stuck_err[i] > target:
                    fail(i, f"bisection depth exhausted for {what} "
                            f"(err {err_total[i]:.3e}, value {total[i]:.6e})")
                    continue
                still.append(i)
                continue
            still.append(i)
            split.append((i, lo, 0.5 * (lo + hi), hi, val, neg_err))
        if not still:
            break
        active = still
        if not split:
            continue
        node, lo, mid, hi, _, _ = zip(*split)
        v, e = _gk15(f, node + node, lo + mid, mid + hi, batched)
        v, e = v.tolist(), e.tolist()
        m = len(split)
        for k, (i, lo, mid, hi, val, neg_err) in enumerate(split):
            v1, v2, e1, e2 = v[k], v[m + k], e[k], e[m + k]
            total[i] += v1 + v2 - val
            err_total[i] += e1 + e2 + neg_err  # neg_err subtracts the old estimate
            mass[i] += abs(v1) + abs(v2) - abs(val)
            intervals[i] += 1
            heapq.heappush(heaps[i], (-e1, tiebreak, lo, mid, v1))
            heapq.heappush(heaps[i], (-e2, tiebreak + 1, mid, hi, v2))
            tiebreak += 2
    floor = [5e-16 * x for x in mass]
    if batched:
        return np.array(total), np.array(err_total), np.array(floor)
    return total[0], err_total[0], floor[0]


# ----------------------------------------------------------------------
# leg parametrization

class _Path:
    """A leg mapped onto tau in [0, 1] for each outer node, orientation
    already applied; ``map`` and ``dmap`` take (node, tau) arrays."""

    def __init__(self, leg, index, map_fn, dmap_fn):
        self.leg = leg
        self.index = index
        self.map = map_fn
        self.dmap = dmap_fn

    def describe(self):
        return f"leg {self.index + 1} ({type(self.leg).__name__})"


def _segment_path(leg, index, z0, z1, count):
    z0 = np.broadcast_to(np.asarray(z0, dtype=complex), (count,))
    d = np.broadcast_to(np.asarray(z1 - z0, dtype=complex), (count,))
    return _Path(leg, index, lambda node, t: z0[node] + d[node] * t,
                 lambda node, t: d[node])


def _make_path(leg, index, cut, count):
    """cut: (R,) for a ray, (Rneg, Rpos) for a line, ignored otherwise;
    each radius is a length-``count`` array, one per outer node."""
    if isinstance(leg, Segment):
        z0, z1 = (leg.start, leg.end) if leg.orientation == 1 else (leg.end, leg.start)
        return _segment_path(leg, index, complex(z0), complex(z1), count)
    if isinstance(leg, Ray):
        direction = np.exp(1j * leg.angle)
        far = complex(leg.start) + direction * cut[0]
        if leg.orientation == 1:
            return _segment_path(leg, index, complex(leg.start), far, count)
        return _segment_path(leg, index, far, complex(leg.start), count)
    if isinstance(leg, Line):
        direction = np.exp(1j * leg.angle)
        z0 = -direction * cut[0]
        z1 = direction * cut[1]
        if leg.orientation == 1:
            return _segment_path(leg, index, z0, z1, count)
        return _segment_path(leg, index, z1, z0, count)
    # Arc
    th0, th1 = leg.angle_start, leg.angle_end
    if leg.orientation == -1:
        th0, th1 = th1, th0
    span = th1 - th0
    c, r = complex(leg.center), leg.radius

    def zmap(node, t):
        return c + r * np.exp(1j * (th0 + span * t))

    def dmap(node, t):
        return 1j * r * span * np.exp(1j * (th0 + span * t))

    return _Path(leg, index, zmap, dmap)


# ----------------------------------------------------------------------
# branch tracking

def _wrap_angle(delta):
    return (delta + math.pi) % TWO_PI - math.pi


class _BranchTracker:
    """Continued argument of one factor along one leg, separately on the
    path of each outer node (the paths differ where a leg is truncated).

    All nodes' sample grids sit in one flat array sorted by (node, tau);
    a grid is refined where its own argument jumps, and no argument step
    is taken across two nodes."""

    def __init__(self, base_fn, path, start_args, what):
        grid = np.linspace(1e-9, 1.0 - 1e-9, 129)
        node = np.repeat(np.arange(len(start_args)), grid.size)
        taus = np.tile(grid, len(start_args))
        for _ in range(14):
            vals = base_fn(node, path.map(node, taus))
            pr = np.angle(vals)
            steps = _wrap_angle(np.diff(pr))
            steps[node[1:] != node[:-1]] = 0.0
            bad = np.nonzero(np.abs(steps) > 0.6)[0]
            if bad.size == 0:
                break
            node = np.concatenate([node, node[bad]])
            taus = np.concatenate([taus, 0.5 * (taus[bad] + taus[bad + 1])])
            order = np.lexsort((taus, node))
            node, taus = node[order], taus[order]
        else:
            raise QuadratureError(
                f"branch tracking failed to resolve the argument of {what} "
                f"on {path.describe()}"
            )
        interior = (taus > 1e-6) & (taus < 1.0 - 1e-6)
        if np.any(np.abs(vals[interior]) < VANISH_TOL):
            raise QuadratureError(
                f"{what} vanishes on {path.describe()}; the branch cannot "
                "be continued"
            )
        first = np.nonzero(np.r_[True, node[1:] != node[:-1]])[0]
        last = np.r_[first[1:] - 1, node.size - 1]
        start = pr[first] + TWO_PI * np.round((start_args - pr[first]) / TWO_PI)
        cont = np.r_[0.0, np.cumsum(steps)]
        # only the nearest winding number is read off these arguments, so
        # a flat cumsum restarted at each node's first point is precise enough
        self.cont = cont - cont[first][node] + start[node]
        self.keys = 2.0 * node + taus
        self.end_args = self.cont[last]

    def args_at(self, node, taus, base_vals):
        principal = np.angle(base_vals)
        # every grid spans [1e-9, 1 - 1e-9]: clip so each node's estimate
        # is held at its own end values, as interpolation on its grid does
        keys = 2.0 * node + np.clip(taus, 1e-9, 1.0 - 1e-9)
        estimate = np.interp(keys, self.keys, self.cont)
        k = np.round((estimate - principal) / TWO_PI)
        return principal + TWO_PI * k


def _tracked_power(base_vals, tracker, node, taus, exponent):
    """base**exponent with the argument supplied by the tracker."""
    mags = np.abs(base_vals)
    args = tracker.args_at(node, taus, base_vals)
    return np.exp(exponent * (np.log(mags) + 1j * args))


# ----------------------------------------------------------------------
# the iterated driver

def _coefficients(polys):
    """{exponent: coefficient} of polynomials that share one support: the
    number all batch members share, else an array with one entry per
    member.

    A shared coefficient stays a Python number, so a single integrand
    pays no per-node indexing.  One that differs is substituted in array
    arithmetic, which in the radius scan of two or more variables may
    round differently from a lone integrand's Python arithmetic in the
    last bit; only a radius decided within that rounding could move.
    """
    out = {}
    for e in polys[0].terms:
        values = [p.terms[e] for p in polys]
        out[e] = values[0] if values.count(values[0]) == len(values) \
            else np.array(values, dtype=complex)
    return out


def _collapse_along(coeffs: dict, fixed: dict, axis: int, member):
    """Partial evaluation of a batched polynomial at its nodes: node k
    reads the coefficients of batch member member[k], the variables in
    ``fixed`` (scalars or per-node arrays) are substituted and variable
    ``axis`` is kept; returns {degree: per-node array}."""
    out = {}
    for exponent, coeff in coeffs.items():
        value = coeff[member] if isinstance(coeff, np.ndarray) else coeff
        for j, e in enumerate(exponent):
            if j != axis and e:
                value *= fixed[j] ** e
        d = exponent[axis]
        out[d] = out.get(d, np.zeros(len(member), dtype=complex)) + value
    return out


def _eval_collapsed(coeffs: dict, z, pick):
    """Sum of coeffs[d][pick] * z**d; ``pick`` selects each point's node
    coefficients in a shape that broadcasts against ``z``."""
    total = np.zeros_like(z, dtype=complex)
    for d, c in coeffs.items():
        total = total + (c[pick] * z ** d if d else c[pick])
    return total


class _Run:
    """One lockstep integration of a batch of integrands that share the
    dimension, alpha kind, u, v and polynomial supports."""

    def __init__(self, specs, contour):
        first = specs[0]
        self.contour = contour
        self.n = first.P.dimension
        self.kernel = _coefficients([s.P for s in specs])
        alpha = first.alpha
        self.u = getattr(alpha, "u", None)
        self.power_v = getattr(alpha, "v", ())
        self.powers = [_coefficients(polys) for polys in
                       zip(*(getattr(s.alpha, "polys", ()) for s in specs))]
        # per member: error bookkeeping of the outermost and inner levels
        self.inner_rel = np.zeros(len(specs))
        self.outer_err = None
        self.outer_floor = None
        # member -> the AccuracyError of its outermost integral, in the
        # order the failures happen; the other members run on
        self.failures = {}

    def monomial_exponent(self, j):
        if self.u is None:
            return None
        rho = self.u[j] - 1.0
        return None if rho == 0 else rho


def _representatives(chain):
    points = []
    for leg in chain[:1] + chain[-1:]:
        for end in _leg_endpoints(leg):
            if end is not _INF:
                points.append(complex(end))
    first = chain[0]
    if isinstance(first, Segment):
        points.append(0.5 * (complex(first.start) + complex(first.end)))
    elif isinstance(first, Ray):
        points.append(complex(first.start) + np.exp(1j * first.angle))
    elif isinstance(first, Line):
        points.append(0j)
    else:
        points.append(complex(first.center) + first.radius
                      * np.exp(1j * 0.5 * (first.angle_start + first.angle_end)))
    unique = []
    for p in points:
        if not any(abs(p - q) < 1e-12 for q in unique):
            unique.append(p)
    return unique[:3]


_SCAN_RADII = np.concatenate([[0.0], np.geomspace(1e-4, 1e8, 121)])


def _truncate_unbounded(run, j, fixed, member, anchor, direction, what):
    """For each node (its outer values in ``fixed``, its batch member in
    ``member``), the radius along anchor + direction*r where the
    integrand has decayed for every representative slice of the inner
    variables; one array pass."""
    radii = _SCAN_RADII
    count = len(member)
    z = anchor + direction * radii
    inner_chains = [run.contour.chains[i] for i in range(j + 1, run.n)]
    combos = [()]
    for chain in inner_chains:
        combos = [c + (p,) for c in combos for p in _representatives(chain)]

    rows = (slice(None), None)  # node coefficients down, radii across
    ok_decay = np.ones((count, len(radii)), dtype=bool)
    log_mag = np.full((count, len(radii)), -np.inf)
    rho = run.monomial_exponent(j)
    for combo in combos:
        fixed_all = dict(fixed)
        for idx, val in zip(range(j + 1, run.n), combo):
            fixed_all[idx] = val
        coeffs = _collapse_along(run.kernel, fixed_all, j, member)
        re_p = _eval_collapsed(coeffs, z, rows).real
        ok_decay &= re_p < DECAY_RE_P
        lm = re_p.copy()
        if rho is not None:
            with np.errstate(divide="ignore"):
                lm = lm + rho.real * np.log(np.maximum(np.abs(z), 1e-300))
        if run.n == 1:
            for poly, v in zip(run.powers, run.power_v):
                pv = np.abs(_eval_collapsed(
                    _collapse_along(poly, fixed_all, j, member), z, rows))
                with np.errstate(divide="ignore"):
                    lm = lm + v.real * np.log(np.maximum(pv, 1e-300))
        log_mag = np.maximum(log_mag, lm)

    finite = np.isfinite(log_mag)
    peak = np.where(finite, log_mag, -np.inf).max(axis=1)
    peak[~finite.any(axis=1)] = 0.0
    small = log_mag < peak[:, None] + math.log(MAGNITUDE_CUT)
    # good[:, i]: decayed at every radius from i outwards
    good = np.logical_and.accumulate((ok_decay & small)[:, ::-1], axis=1)[:, ::-1]
    if not good.any(axis=1).all():
        raise DivergenceError(
            f"no decay of Re P below {DECAY_RE_P} along {what}; "
            "the integral diverges on this contour"
        )
    # a range decayed from the origin on still starts one radius out
    first = np.maximum(good.argmax(axis=1), 1)
    return radii[np.minimum(first + 2, len(radii) - 1)]


def _build_paths(run, j, fixed, member):
    count = len(member)
    paths = []
    for index, leg in enumerate(run.contour.chains[j]):
        what = f"variable {j + 1}, leg {index + 1} ({type(leg).__name__})"
        if isinstance(leg, Ray):
            cut = (_truncate_unbounded(run, j, fixed, member, complex(leg.start),
                                       np.exp(1j * leg.angle), what),)
        elif isinstance(leg, Line):
            d = np.exp(1j * leg.angle)
            cut = (
                _truncate_unbounded(run, j, fixed, member, 0j, -d,
                                    what + " (negative end)"),
                _truncate_unbounded(run, j, fixed, member, 0j, d,
                                    what + " (positive end)"),
            )
        else:
            cut = ()
        paths.append(_make_path(leg, index, cut, count))
    return paths


def _build_trackers(run, j, paths, member):
    """Per-leg trackers for the multivalued factors that vary with
    variable j, each continuing the argument on every node's path."""
    count = len(member)
    needed = []
    rho = run.monomial_exponent(j)
    if rho is not None and not _is_int(rho):
        needed.append((("t", j + 1), lambda node, z: z))
    if run.n == 1:
        for i, (poly, v) in enumerate(zip(run.powers, run.power_v)):
            if not _is_int(v):
                coeffs = _collapse_along(poly, {}, 0, member)
                needed.append((("P", i + 1), lambda node, z, c=coeffs:
                               _eval_collapsed(c, z, node)))
    trackers = {}
    for key, base_fn in needed:
        start = run.contour.start_arg(key)
        if start is None:
            raise ValueError(
                f"branch data for factor {key} is required (non-integer "
                "exponent) but was not supplied"
            )
        per_leg = []
        args = np.full(count, start)
        for path in paths:
            tr = _BranchTracker(base_fn, path, args, f"factor {key[0]}{key[1]}")
            per_leg.append(tr)
            args = tr.end_args
        trackers[key] = per_leg
    return trackers


def _level_value(run, j, fixed, member, rel_tol):
    """The integral over variables j..n-1 at each node.

    ``member`` holds each node's batch member (at the outermost level
    every member is one node) and ``fixed`` maps every i < j to the
    array of its t_i values (empty at the outermost level).  Each leg of
    chain j is integrated for all B nodes in one lockstep
    adaptive_quadrature call; an outer level hands the points of a whole
    round to the next level as its nodes, at most _NODE_CAP at a time.
    Returns the B values.
    """
    count = len(member)
    paths = _build_paths(run, j, fixed, member)
    trackers = _build_trackers(run, j, paths, member)
    rho = run.monomial_exponent(j)
    innermost = j == run.n - 1
    if innermost:
        kernel_coeffs = _collapse_along(run.kernel, fixed, j, member)
        power_coeffs = [_collapse_along(poly, fixed, j, member)
                        for poly in run.powers]

    total = np.zeros(count, dtype=complex)
    err_total = np.zeros(count)
    floor_total = np.zeros(count)
    for leg_idx, path in enumerate(paths):
        def f(x, path=path, leg_idx=leg_idx):
            node, taus = x["node"], x["tau"]
            z = path.map(node, taus)
            val = np.ones_like(z, dtype=complex)
            if rho is not None:
                key = ("t", j + 1)
                if key in trackers:
                    val = val * _tracked_power(z, trackers[key][leg_idx],
                                               node, taus, rho)
                else:
                    val = val * z ** int(rho.real)
            if innermost:
                val = val * np.exp(_eval_collapsed(kernel_coeffs, z, node))
                for i, (pc, v) in enumerate(zip(power_coeffs, run.power_v)):
                    key = ("P", i + 1)
                    pvals = _eval_collapsed(pc, z, node)
                    if key in trackers:
                        val = val * _tracked_power(
                            pvals, trackers[key][leg_idx], node, taus, v)
                    else:
                        val = val * pvals ** int(v.real)
            else:
                outer = {i: t[node] for i, t in fixed.items()}
                outer[j] = z
                outer_member = member[node]
                inner = np.empty_like(z, dtype=complex)
                for lo in range(0, z.size, _NODE_CAP):
                    chunk = slice(lo, lo + _NODE_CAP)
                    inner[chunk] = _level_value(
                        run, j + 1, {i: t[chunk] for i, t in outer.items()},
                        outer_member[chunk], rel_tol * 0.5)
                val = val * inner
            return val * path.dmap(node, taus)

        value, err, floor = adaptive_quadrature(
            f, np.zeros(count), np.ones(count), rel_tol,
            ABS_FLOOR / len(paths), what=f"variable {j + 1}, {path.describe()}",
            failures=run.failures if j == 0 else None,
        )
        total += value
        err_total += err
        floor_total += floor

    if j > 0:
        # When the inner stop was governed by the absolute or roundoff
        # floor the pointwise perturbation of the outer integrand is at
        # noise level; only the excess beyond the floors matters.
        excess = err_total - 2.0 * ABS_FLOOR - floor_total
        magnitude = np.abs(total)
        hit = (excess > 0) & (magnitude > 0)
        np.maximum.at(run.inner_rel, member[hit], excess[hit] / magnitude[hit])
    else:
        run.outer_err = err_total
        run.outer_floor = floor_total
    return total


def _shape(spec):
    """What the members of a batch must share."""
    alpha = spec.alpha
    return (spec.P.dimension, type(alpha), getattr(alpha, "u", None),
            getattr(alpha, "v", None), len(getattr(alpha, "polys", ())))


def _support(spec):
    return (tuple(spec.P.terms),
            tuple(tuple(p.terms) for p in getattr(spec.alpha, "polys", ())))


def _check_batch(specs, contour):
    """The structural checks; ValueError unless the specs differ only in
    their polynomial coefficients and fit the contour."""
    if not specs:
        raise ValueError("need at least one integrand")
    first = specs[0]
    if any(_shape(spec) != _shape(first) for spec in specs[1:]):
        raise ValueError(
            "batched integrands may differ only in their polynomial "
            "coefficients (same dimension, alpha kind, u and v)"
        )
    n = first.P.dimension
    if n > 3:
        raise ValueError("only up to three variables are supported")
    if len(contour.chains) != n:
        raise ValueError(
            f"contour has {len(contour.chains)} chains for {n} variables"
        )
    v = getattr(first.alpha, "v", ())
    if n > 1 and not all(_is_int(x) for x in v):
        raise ValueError(
            "non-integer power-product exponents are supported in one "
            "variable only"
        )
    if n == 1:
        chain = contour.chains[0]
        ends = (_leg_endpoints(chain[0])[0], _leg_endpoints(chain[-1])[1])
        for spec in specs:
            for end in ends:
                for poly, vi in zip(getattr(spec.alpha, "polys", ()), v):
                    if (end is not _INF and vi.real <= -1
                            and abs(poly.evaluate(end)) < 1e-12):
                        raise ValueError(
                            f"factor vanishes at endpoint {end} with "
                            f"non-integrable exponent {vi}"
                        )


def _integrate_batch(specs, contour, tol):
    """(results, first) for specs that share their supports: per spec its
    (value, err) pair or its AccuracyError, and the failure that happened
    first (None if every spec succeeds).

    A member whose outermost integral fails, or whose result misses the
    tolerance, gets the error it raises alone, and the others run on.
    Any other failure (an inner level's, a divergence, missing branch
    data) raises for the whole batch.
    """
    run = _Run(specs, contour)
    try:
        values = _level_value(run, 0, {}, np.arange(len(specs)), tol * 0.5)
    except (QuadratureError, ValueError):
        if run.failures:  # failed first, so it is what the batch raises
            raise next(iter(run.failures.values())) from None
        raise
    results = []
    misses = []
    for k, value in enumerate(values):
        if k in run.failures:
            results.append(run.failures[k])
            continue
        err = float(run.outer_err[k]) + float(run.inner_rel[k]) * abs(value)
        floor = float(run.outer_floor[k])
        # saturation at the double-precision roundoff floor of a cancelling
        # integrand counts as converged: the honest error estimate is returned
        acceptable = (err <= tol * abs(value) or abs(value) <= ABS_FLOOR
                      or err <= ABS_FLOOR or err <= 2.0 * floor)
        if acceptable:
            results.append((value, err))
            continue
        results.append(AccuracyError(
            f"combined error estimate {err:.3e} exceeds tolerance for "
            f"value {value:.6e}", value, err,
        ))
        misses.append(results[-1])
    first = next(iter(run.failures.values()), misses[0] if misses else None)
    return results, first


def integrate(spec, contour: ProductContour, tol: float = 1e-9):
    """Integrate exp(P) * alpha over the product contour.

    ``spec`` is one IntegrandSpec, for which (value, err_estimate) is
    returned, or a sequence of specs that differ only in their polynomial
    coefficients (same dimension, alpha kind, u and v), for which a list
    of (value, err_estimate) pairs is returned.  The members of a
    sequence are integrated in one lockstep run per polynomial support,
    each with the result it gets alone.  Raises DivergenceError when an
    unbounded leg fails the decay check, AccuracyError when the
    tolerance cannot be met (for any member of a sequence), and
    ValueError for structural problems (dimension mismatches, members
    that differ in more than their coefficients, missing branch data,
    and a power-product factor that vanishes at an end of a one-variable
    chain under an exponent of real part <= -1, which is not integrable
    there).

    A member of a sequence whose own integral fails (interval budget or
    bisection depth at the outermost level, or the final tolerance test)
    stops while the others run on.  The AccuracyError raised is then the
    first of those failures, and its ``results`` attribute holds, per
    member, the (value, err_estimate) pair, the member's own
    AccuracyError (the one it raises alone), or None where the member did
    not run (a later polynomial support).  Other failures raise at once.
    """
    single = isinstance(spec, IntegrandSpec)
    specs = [spec] if single else list(spec)
    _check_batch(specs, contour)
    groups = {}
    for k, s in enumerate(specs):
        groups.setdefault(_support(s), []).append(k)
    results = [None] * len(specs)
    for members in groups.values():
        batch, first = _integrate_batch([specs[k] for k in members], contour,
                                        tol)
        for k, result in zip(members, batch):
            results[k] = result
        if first is not None:
            first.results = results
            raise first
    return results[0] if single else results


def proper_integral(P: SparsePolynomial, contour: ProductContour,
                    tol: float = 1e-9) -> complex:
    """Integral of exp(P) alone."""
    value, _ = integrate(IntegrandSpec(P, AlphaOne()), contour, tol)
    return value


def gg_eval(P: SparsePolynomial, u, contour: ProductContour,
            tol: float = 1e-9) -> complex:
    """Integral of exp(P) * t^(u-1); branch data is required whenever a
    component of u is not an integer."""
    value, _ = integrate(IntegrandSpec(P, AlphaMonomial(u)), contour, tol)
    return value


def euler_integral_eval(polys, v, u, contour: ProductContour,
                        tol: float = 1e-9) -> complex:
    """Integral of prod P_i^v_i * t^(u-1) (the kernel polynomial is zero)."""
    polys = tuple(polys)
    if not polys:
        raise ValueError("need at least one polynomial factor")
    value, _ = integrate(
        IntegrandSpec(SparsePolynomial.zero(polys[0].dimension),
                      AlphaPowerProduct(polys, v, u)), contour, tol)
    return value
