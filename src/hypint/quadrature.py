"""Adaptive quadrature of exp(P) integrals on explicit product contours.

Evaluates integrals of exp(P(t)) * alpha(t) dt1..dtn for n <= 3, where
alpha is 1, a monomial t^(u-1), or a product of polynomial powers
P_1^v_1 .. P_k^v_k t^(u-1), over one parametric complex path chain per
variable.  The driver is iterated one-dimensional adaptive integration,
innermost variable first, with one of two rules per leg:

- On a Line leg whose integrand is entire in the leg's variable (every
  factor that varies with it is exp(P), t_j^k or P_i^k with an integer
  k >= 0), the trapezoid rule on the truncated line.  The integrand is
  analytic in a strip and decays at both cut ends, so the rule converges
  exponentially in the number of points (Trefethen and Weideman, SIAM
  Review 56, 2014): it starts from 2**4 + 1 points and halves the step
  until two successive sums agree, the difference being the error
  estimate, and until the step resolves the slopes of P that the
  truncation scan found where the integrand matters, so that neither a
  peak narrower than the scan's spacing nor an oscillation aliased onto
  both grids gives two sums that agree on a wrong value.  A node that
  would need more than 2**10 intervals takes the rule below.
- On every other leg (rays and segments, whose ends may carry t^(u-1)
  or a zero of a factor, arcs, and integrands with poles or branch
  points), interval halving with an embedded Gauss7/Kronrod15 pair, so
  every subinterval carries its own error estimate and the bisection
  resolves endpoint and near-singular behaviour locally.

The rule depends only on the integrand and the leg.  The contours
(Segment, Ray, Arc, Line, ProductContour) and the errors
(QuadratureError, DivergenceError, AccuracyError) are defined in
hypint.contours, which loads no numpy, and re-exported here; this
module holds the integrand descriptions and the numeric driver.

Each level is batched over its nodes: the integral over variable j is
computed for all B nodes at once, one lockstep adaptive run per leg.
Under GK15, every round each unconverged node bisects, just as it would
alone, its worst intervals, as many as together carry its excess error
over the target (bulk marking, as in Doerfler's adaptive refinement),
and the panels of all nodes go to the integrand in one array call.
Under the trapezoid rule every unconverged node evaluates the new
midpoints of one halving, and each node's sums are reduced on its own
row.  Above the innermost level that call is the next level, which
takes all points of the round as its nodes, at most _NODE_CAP (the 120
points of one set of starting panels) at a time so that memory stays
bounded in three variables.  One integrand's starting round, each of its
GK15 rounds that bisects at most four intervals and each trapezoid
halving of up to 120 new points thus makes one inner-level call.

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
declared divergent.  The scan over the radii runs for all nodes, and
for both ends of a Line, in one array pass.  For multivalued factors
(non-integer exponents) the argument of each factor is continued along
each node's path by accumulating argument increments between consecutive
sample points on a refined grid; quadrature nodes then pick up the
winding number nearest to the tracked argument, which makes
branch-corrected evaluation independent of the order in which the
adaptive rule visits the points.
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
_START_PANELS = 8           # equal panels an adaptive run starts from
# outer nodes per inner-level call, which bounds memory: the GK15 points
# of one starting panel set
_NODE_CAP = _START_PANELS * 15
# integrand points per trapezoid call: what a GK15 round of _NODE_CAP
# nodes on their starting panels evaluates
_POINT_CAP = _NODE_CAP * _NODE_CAP
_TRAP_START = 4             # the trapezoid rule starts from 2**4 intervals
# A trapezoid sum may stop only at a step h with h |Im dP/dr| <= pi and
# h |Re dP/dr| <= 16, dP/dr taken as the mean slope between neighbouring
# scan radii, over the gaps next to a scanned point where the integrand
# lies within MAGNITUDE_CUT of its peak.  The first keeps the frequencies
# of exp(P) below the first alias of the coarser of the two sums
# compared, so that their difference bounds the finer one's error:
# exp(-t^2 + 32it) sampled with steps of 2 pi / 32 and twice that gives
# sqrt(pi) both times, where the integral is 3e-111.  The second makes a
# feature the scan found steep be resolved, such as a peak narrower than
# the spacing of the scan radii, which 17 or 33 points can miss
# altogether.  On the Gaussians of the benchmark it asks for no more
# than the 2**5 intervals of the first comparison, where a node whose
# value lies below the absolute floor stops.
_TRAP_ALIAS = math.pi
_TRAP_STEEP = 16.0
# a node whose scan asks for more trapezoid intervals than this takes
# GK15, whose bisection spends its points near the narrow feature
_TRAP_MAX = 2 ** 10

# glibc serves blocks above its mmap threshold (128 KiB by default) from
# fresh pages, and returns the top of its heap to the system whenever
# more than its trim threshold (also 128 KiB) lies free there.  A batched
# level allocates and frees complex temporaries of up to 460 KiB
# (_NODE_CAP nodes times 120 points or 244 scan radii, 16 bytes each), so
# every inner level would fault its pages in again: without the line
# below a 2-D Gaussian of the benchmark kind took 1,300 page faults and
# up to 1.7 times the time (glibc 2.36, x86-64).  Freeing one block above
# the mmap threshold makes glibc raise that threshold to the block's size
# and the trim threshold to twice it, unless they were set explicitly;
# other allocators ignore it.
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


def _row_sums(f, rows, a, b, s, weights, batched):
    """Weighted sums of f and of |f| over the points a + (b - a) * s of
    integrals ``rows``: one row of points per integral, reduced row by row
    so an integral's sums do not depend on the others in the call; at
    most _POINT_CAP points go to ``f`` at a time."""
    m = s.size
    per_call = max(1, _POINT_CAP // m)
    sums = np.empty(len(rows), dtype=complex)
    mags = np.empty(len(rows))
    for lo in range(0, len(rows), per_call):
        group = rows[lo:lo + per_call]
        x = (a[group, None] + (b - a)[group, None] * s).ravel()
        if batched:
            points = np.empty(x.size, dtype=_NODE_TAU)
            points["node"] = np.repeat(group, m)
            points["tau"] = x
        else:
            points = x
        fx = np.concatenate([
            np.asarray(f(points[k:k + _POINT_CAP]), dtype=complex).ravel()
            for k in range(0, x.size, _POINT_CAP)]).reshape(len(group), m)
        fx *= weights
        sums[lo:lo + len(group)] = fx.sum(axis=1)
        mags[lo:lo + len(group)] = np.abs(fx).sum(axis=1)
    return sums, mags


def _trapezoid(f, a, b, rows, need, cap, rel_tol, abs_floor, what, failures,
               batched, total, err, mass):
    """Lockstep trapezoid halving of integrals ``rows``; see
    adaptive_quadrature.  Fills their entries of ``total``, ``err`` and
    ``mass``."""
    start = rows
    n = 2 ** _TRAP_START
    weights = np.ones(n + 1)
    weights[[0, -1]] = 0.5
    sums, mags = _row_sums(f, rows, a, b, np.arange(n + 1) / n, weights,
                           batched)
    step = (b[rows] - a[rows]) / n
    total[rows] = step * sums
    mass[rows] = step * mags
    while rows.size:
        if n >= cap:
            for i in rows.tolist():
                error = AccuracyError(
                    f"tolerance not met for {what} after {n} trapezoid "
                    f"intervals (err {err[i]:.3e}, value {total[i]:.6e})",
                    complex(total[i]), float(err[i]))
                if failures is None:
                    raise error
                failures[i] = error
            break
        n *= 2
        sums, mags = _row_sums(f, rows, a, b, np.arange(1, n, 2) / n, 1.0,
                               batched)
        step = (b[rows] - a[rows]) / n
        new = 0.5 * total[rows] + step * sums
        err[rows] = np.abs(new - total[rows])
        total[rows] = new
        mass[rows] = 0.5 * mass[rows] + step * mags
        # the target of the GK15 driver, from the same three floors
        target = np.maximum(np.maximum(abs_floor, rel_tol * np.abs(new)),
                            5e-16 * mass[rows])
        # a nan difference runs on
        rows = rows[~((err[rows] <= target) & (n >= need[rows]))]
    # two sums that agree to below the roundoff of the sum itself do not
    # bound its error: that roundoff does
    err[start] = np.maximum(err[start], 5e-16 * mass[start])


def _gauss_kronrod(f, a, b, rows, rel_tol, abs_floor, max_intervals, what,
                   failures, batched, total_out, err_out, mass_out):
    """Lockstep GK15 bisection of integrals ``rows``; see
    adaptive_quadrature.  Fills their entries of the three arrays."""
    count = len(a)
    pieces = np.linspace(a[rows], b[rows], _START_PANELS + 1, axis=1)
    vals, errs = _gk15(f, np.repeat(rows, _START_PANELS),
                       pieces[:, :-1].ravel(), pieces[:, 1:].ravel(), batched)
    vals, errs = vals.reshape(len(rows), -1), errs.reshape(len(rows), -1)
    start_total = np.zeros(len(rows), dtype=complex)
    start_err = np.zeros(len(rows))
    start_mass = np.zeros(len(rows))
    for k in range(_START_PANELS):
        start_total += vals[:, k]
        start_err += errs[:, k]
        start_mass += np.abs(vals[:, k])
    # a converged integral never changes again, so from here on only the
    # active ones are visited, with their state as python scalars
    total, err_total, mass = [0j] * count, [0.0] * count, [0.0] * count
    row_of = {}
    for r, (i, t, e, m) in enumerate(zip(rows, start_total.tolist(),
                                         start_err.tolist(),
                                         start_mass.tolist())):
        total[i], err_total[i], mass[i], row_of[i] = t, e, m, r
    heaps = {}  # built when an integral first needs a bisection
    stuck_err = {}
    intervals = {}
    tiebreak = _START_PANELS  # the starting panels hold the numbers below
    active = rows

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
                r = row_of[i]
                heaps[i] = list(zip((-errs[r]).tolist(), range(_START_PANELS),
                                    pieces[r, :-1].tolist(),
                                    pieces[r, 1:].tolist(), vals[r].tolist()))
                heapq.heapify(heaps[i])
                stuck_err[i] = 0.0
                intervals[i] = _START_PANELS
            heap = heaps[i]
            if intervals[i] >= max_intervals or not heap:
                fail(i, f"tolerance not met for {what} after {intervals[i]} "
                        f"intervals (err {err_total[i]:.3e}, value "
                        f"{total[i]:.6e})")
                continue
            # bulk marking: the worst intervals that together carry the
            # excess error, at least one, within the interval budget
            first = len(split)
            excess = err_total[i] - target
            room = max_intervals - intervals[i]
            while True:
                neg_err, _, lo, hi, val = heapq.heappop(heap)
                short = hi - lo < max(1e-15 * max(abs(lo), abs(hi)), 5e-300)
                if short:
                    # cannot usefully subdivide; its error stays in the
                    # total, and the round's marking for i ends here
                    stuck_err[i] -= neg_err
                    break
                split.append((i, lo, 0.5 * (lo + hi), hi, val, neg_err))
                excess += neg_err
                if excess <= 0 or len(split) - first == room or not heap:
                    break
            if short and stuck_err[i] > target:
                del split[first:]
                fail(i, f"bisection depth exhausted for {what} "
                        f"(err {err_total[i]:.3e}, value {total[i]:.6e})")
                continue
            still.append(i)
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
    for i in rows:
        total_out[i], err_out[i], mass_out[i] = total[i], err_total[i], mass[i]


def adaptive_quadrature(f, a, b, rel_tol, abs_floor, max_intervals=4096,
                        what="integral", failures=None, trapezoid=None):
    """Adaptive interval-halving with the embedded Gauss/Kronrod pair.

    With scalar ``a`` and ``b``, ``f`` is evaluated on numpy arrays of
    points and (value, err, roundoff floor) is returned.  With length-B
    arrays, B independent integrals run in lockstep, and ``f`` receives
    one array with fields ``node`` (which integral) and ``tau`` (the
    point) holding all panels requested in the round; the three results
    are then length-B arrays.  Each round every unconverged integral
    bisects its worst intervals, as many as it takes for their estimates
    to sum to the excess of its error over its target: at least one, no
    more than its budget of ``max_intervals`` has room for, and none
    after an interval too short to bisect, whose error stays in the
    total.  Each integral stops on its own target and follows exactly the
    bisections it would follow alone.  Raises AccuracyError carrying the
    best estimate of the failing integral when its budget is exhausted,
    or its bisection depth: the errors of the intervals too short to
    bisect exceed its target.  Batched,
    with a dict ``failures``, that error is stored there under the
    integral's index instead, and the other integrals run on; integrals
    already in it are not refined, and their results mean nothing.

    ``trapezoid``, for integrands entire on the interval and decayed at
    both ends (a truncated Line), is the fewest intervals each integral
    must be resolved with (a number, or one per integral).  Those
    integrals take the trapezoid rule instead, from 2**4 + 1 points,
    halving the step until two successive sums agree to the same target
    and that many intervals are reached; each halving evaluates only the
    new midpoints of the unconverged integrals, and the error reported is
    the last difference, or the roundoff floor where that is larger.
    Its budget is the largest power of two of intervals whose points do
    not outnumber those of ``max_intervals`` GK15 panels; past it, it
    fails as above.  An integral that needs more intervals than that
    takes GK15, whose bisection resolves a narrow feature locally.
    """
    batched = np.ndim(a) > 0
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    count = len(a)
    rows = np.arange(count)
    if failures:
        rows = np.setdiff1d(rows, list(failures))
    gk_rows, trap_rows = rows, rows[:0]
    if trapezoid is not None:
        need = np.broadcast_to(np.asarray(trapezoid, dtype=float), (count,))
        cap = 2 ** ((15 * max_intervals - 1).bit_length() - 1)
        fits = need[rows] <= cap  # false for a nan need too
        trap_rows, gk_rows = rows[fits], rows[~fits]
    total = np.zeros(count, dtype=complex)
    err = np.zeros(count)
    mass = np.zeros(count)
    if trap_rows.size:
        _trapezoid(f, a, b, trap_rows, need, cap, rel_tol, abs_floor, what,
                   failures, batched, total, err, mass)
    if gk_rows.size:
        _gauss_kronrod(f, a, b, gk_rows.tolist(), rel_tol, abs_floor,
                       max_intervals, what, failures, batched, total, err,
                       mass)
    floor = 5e-16 * mass
    if batched:
        return total, err, floor
    return complex(total[0]), float(err[0]), float(floor[0])


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
        # per node, the fewest trapezoid intervals (None: GK15 leg)
        self.trapezoid = None

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

    def entire_along(self, j):
        """Whether every factor that varies with variable j is entire in
        it: exp(P), t_j^k and P_i^k with integers k >= 0."""
        def entire(exponent):
            return _is_int(exponent) and exponent.real >= 0
        rho = self.monomial_exponent(j)
        return (rho is None or entire(rho)) and all(
            entire(v) or not any(e[j] for e in poly)
            for poly, v in zip(self.powers, self.power_v))


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
# per gap between neighbouring radii, the factors that turn the change of
# Im P and of Re P across it into the trapezoid rate they ask for
_GAP_ALIAS = 1.0 / (_TRAP_ALIAS * np.diff(_SCAN_RADII))
_GAP_STEEP = 1.0 / (_TRAP_STEEP * np.diff(_SCAN_RADII))


def _truncate_unbounded(run, j, fixed, member, anchor, ends, rate=False):
    """For each node (its outer values in ``fixed``, its batch member in
    ``member``) and each (direction, what) of ``ends``, the radius along
    anchor + direction*r where the integrand has decayed for every
    representative slice of the inner variables; one array pass, each
    direction with its own peak and decay test.

    With ``rate``, the list of radii is followed by each node's inverse
    of the largest trapezoid step the rule allows (see _TRAP_ALIAS), from
    the mean dP/dr between neighbouring radii, over the gaps next to a
    sampled point of any of ``ends`` where the integrand lies within
    MAGNITUDE_CUT of its largest sampled magnitude."""
    radii = _SCAN_RADII
    count = len(member)
    z = np.concatenate([anchor + direction * radii for direction, _ in ends])
    inner_chains = [run.contour.chains[i] for i in range(j + 1, run.n)]
    combos = [()]
    for chain in inner_chains:
        combos = [c + (p,) for c in combos for p in _representatives(chain)]

    rows = (slice(None), None)  # node coefficients down, radii across
    ok_decay = np.ones((count, z.size), dtype=bool)
    log_mag = np.full((count, z.size), -np.inf)
    slices = []  # (P, log magnitude) of each slice
    rho = run.monomial_exponent(j)
    for combo in combos:
        fixed_all = dict(fixed)
        for idx, val in zip(range(j + 1, run.n), combo):
            fixed_all[idx] = val
        coeffs = _collapse_along(run.kernel, fixed_all, j, member)
        p = _eval_collapsed(coeffs, z, rows)
        re_p = p.real
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
        if rate:
            slices.append((p, lm))

    cuts = []
    top = np.full(count, -np.inf)
    reach = 0  # radii up to the farthest cut
    for k, (_, what) in enumerate(ends):
        part = slice(k * radii.size, (k + 1) * radii.size)
        mag = log_mag[:, part]
        finite = np.isfinite(mag)
        peak = np.where(finite, mag, -np.inf).max(axis=1)
        top = np.maximum(top, peak)
        peak[~finite.any(axis=1)] = 0.0
        small = mag < peak[:, None] + math.log(MAGNITUDE_CUT)
        # good[:, i]: decayed at every radius from i outwards
        good = np.logical_and.accumulate((ok_decay[:, part] & small)[:, ::-1],
                                         axis=1)[:, ::-1]
        if not good.any(axis=1).all():
            raise DivergenceError(
                f"no decay of Re P below {DECAY_RE_P} along {what}; "
                "the integral diverges on this contour"
            )
        # a range decayed from the origin on still starts one radius out
        first = np.maximum(good.argmax(axis=1), 1)
        last = np.minimum(first + 2, len(radii) - 1)
        reach = max(reach, int(last.max()) + 1)
        cuts.append(radii[last])
    if not rate:
        return cuts
    band = np.where(np.isfinite(top), top + math.log(MAGNITUDE_CUT), np.inf)
    shape = (count, len(ends), radii.size)
    fastest = np.zeros(count)
    for p, lm in slices:
        with np.errstate(invalid="ignore"):  # inf - inf far out
            change = np.diff(p.reshape(shape)[:, :, :reach], axis=2)
        r = np.maximum(np.abs(change.imag) * _GAP_ALIAS[:reach - 1],
                       np.abs(change.real) * _GAP_STEEP[:reach - 1])
        seen = (lm.reshape(shape)[:, :, :reach] >= band[:, None, None])
        # every gap next to such a point: a peak narrower than the
        # spacing of the radii lies in one of them, and the slope at a
        # sampled peak alone is zero
        r[~(seen[:, :, 1:] | seen[:, :, :-1])] = 0.0
        fastest = np.maximum(fastest, r.max(axis=(1, 2)))
    return cuts + [fastest]


def _build_paths(run, j, fixed, member):
    count = len(member)
    entire = run.entire_along(j)
    paths = []
    for index, leg in enumerate(run.contour.chains[j]):
        what = f"variable {j + 1}, leg {index + 1} ({type(leg).__name__})"
        if isinstance(leg, Ray):
            cut = _truncate_unbounded(run, j, fixed, member, complex(leg.start),
                                      [(np.exp(1j * leg.angle), what)])
        elif isinstance(leg, Line):
            d = np.exp(1j * leg.angle)
            cut = _truncate_unbounded(run, j, fixed, member, 0j, [
                (-d, what + " (negative end)"), (d, what + " (positive end)")],
                rate=entire)
        else:
            cut = ()
        path = _make_path(leg, index, cut, count)
        if entire and isinstance(leg, Line):
            # the fewest intervals whose step the scan allows
            need = (cut[0] + cut[1]) * cut[2]
            path.trapezoid = np.where(need <= _TRAP_MAX, need, np.inf)
        paths.append(path)
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
    round to the next level as its nodes, at most _NODE_CAP at a time, so
    a single integrand's starting round makes one call.
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
            trapezoid=path.trapezoid,
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
