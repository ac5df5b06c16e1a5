"""Adaptive quadrature of exp(P) integrals on explicit product contours.

Evaluates integrals of exp(P(t)) * alpha(t) dt1..dtn for n <= 3, where
alpha is 1, a monomial t^(u-1), or a product of polynomial powers
P_1^v_1 .. P_k^v_k t^(u-1), over one parametric complex path chain per
variable.

On a product of two or more chains that are each one Line, with the
integrand exp(P) alone (no weight t^rho or P_i^v) and P of total degree
at most 2, the integral is one tensor-product trapezoid in a Laplace
frame.  On the lines' real parameters s (t_j = exp(i angle_j) s_j) P is
quadratic, so where the Hessian of -Re P is positive definite Re P is
concave and has one peak x0, found with one linear solve, and L is the
inverse transpose of the Cholesky factor of that Hessian: in the frame
s = x0 + L z, Re P falls like |z|^2 / 2 around the peak whatever the
correlation of the variables.  P is carried over exactly as the
quadratic Q(z) = P(x0 + L z) = Q(0) + b.z + z.K z / 2, whose terms are
small where the integrand matters, and the box and the step are read off
its coefficients.  With mu the least eigenvalue of -Re K (about 1) and
beta = |Re b| (about 0), Re Q <= Re Q(0) + beta r - mu r^2 / 2 on
|z| = r, so the box [-R, R]^n, with R where that bound falls to the cut
of a leg below (1e-18 of the peak, and Re P at most -50), holds every
point where the integrand lies above that cut.  Over that ball the slope
of Q along axis k is at most |b_k| + R |K_k|, K_k the k-th row of K: the
grid starts from 2**4 intervals per axis and halves every axis together,
evaluating only the new points, until two sums agree and the step
resolves that slope, both of Im Q, whose cross terms vanish on every
axis, and of Re Q.  Besides the roundoff floor of the sums, the error
estimate counts the rounding of P: eps times the sum of the magnitudes
of P's terms at each node, weighted by |f|.  A weighted integrand, P of
higher degree, whose Re P may peak more than once off the axes of any
one frame (exp(-x^4 - y^4), two peaks such as
exp(-0.01 (x^2 - 100)^2 - (y - x)^2)), a Hessian of -Re P that is not
positive definite past the rounding of its entries, and a grid whose
budget of 120**3 points has no room for two halvings past the resolution
Q asks for take the driver below instead; so does a grid that reaches
that budget without converging.

Everything else goes through iterated one-dimensional adaptive
integration, innermost variable first, with one of three rules per leg:

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
  would need more than 2**10 intervals takes GK15 below.
- On a Ray from t_j = 0 under a weight t_j^rho with rho = u_j - 1 not an
  integer, every other factor that varies with t_j being entire, the
  same trapezoid halving after the exp-sinh map t = e^(i angle)
  exp((pi/2) sinh x) (Takahasi and Mori 1974; Mori and Sugihara 2001),
  which turns the t^rho end into a double-exponentially decaying tail.
  x runs from x_min, where the weight's mass below t, about
  |e^P(0)| t^(Re u) / Re u, lies 1e-18 below the integrand's peak per
  unit log t (or from the last scan radius below that band, where that
  lies farther out), to asinh((2/pi) log R) at the cut radius R below.
  arg t is constant on the ray, so it takes no branch tracker, and
  t^rho dt = exp(u (log t)) d(log t) is one exponential where t
  underflows.  The step resolves the scan's slopes of P times dt/dx; a
  node that would need more intervals than the trapezoid's budget takes
  GK15 in x.
- On every other leg (rays and segments, whose ends may carry t^(u-1)
  or a zero of a factor, arcs, and integrands with poles or branch
  points), interval halving with an embedded Gauss7/Kronrod15 pair, so
  every subinterval carries its own error estimate and the bisection
  resolves endpoint and near-singular behaviour locally.

The rule depends only on the integrand and the leg.  Every leg but an
exp-sinh Ray, which runs over x, is mapped onto [0, 1] whatever its
orientation, which is the sign of the path's derivative: a Ray from its
start, a Line from its negative end, and a Segment or an Arc from its
end nearer t = 0, where t^(u-1) may be singular and no GK15 node lies
(on a tie, from its declared start; an Arc end within rounding of 0 is
0).  A reversed leg gives the forward integral negated.  The contours
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
estimates and values it gets alone.  On a product of Lines each member
has its own frame, box and halvings, and the grids of all members run
in one lockstep trapezoid; members that leave the frame run together on
the iterated levels.  Members whose polynomial supports differ (an
exactly zero coefficient drops its monomial) run in separate passes; a
single spec is a batch of one.

Unbounded legs are truncated, per node, on a scan of 122 radii (0, then
1e-4 to 1e8 at ten a decade) out from a Ray's start or, both ways, from
the origin of a Line, with the inner variables at representative
points: from some radius on the integrand must stay below 1e-18 of its
largest sampled magnitude, and Re P below -50, otherwise the integral is
declared divergent.  The scan runs for all nodes, and for both ends of
a Line, in one array pass.  Every Ray and Line, whichever rule then
integrates it, is cut at the first radius from which the integrand
stays that small, rounded up to eight significant bits so that the
trapezoid nodes are exact in binary.  At a level with inner variables
each end of that cut is then checked: the inner slice's own peak there
(the largest magnitude over the scan points of the inner variables,
refined at the vertex of a parabola through the largest sample) must
lie 1e-18 below the level's peak, or the end moves out one radius.  The
range thus holds the marginal of a correlated integrand, whose mass
lies where the slice through the representatives has long decayed; on
a Line the inner peaks at the two ends also give the mean frequency of
the marginal, which the trapezoid step must resolve.  An integrand
value that is not finite (past the double range, or a weight t^rho with
Re rho < 0 next to a start just off 0) raises QuadratureError, and a
weight t_j^(u_j - 1) with Re u_j <= 0 on a chain with a leg end at
t_j = 0, where it is not integrable, raises ValueError.  For
multivalued factors (non-integer exponents) the argument of each factor
is continued along each node's path by accumulating argument increments
between consecutive sample points on a refined grid; quadrature nodes
then pick up the winding number nearest to the tracked argument, which
makes branch-corrected evaluation independent of the order in which the
adaptive rule visits the points.
Power products with non-integer exponents are supported in one variable
(their branch structure on higher-dimensional product contours is not
modeled); integer powers work in any dimension.
"""
from __future__ import annotations

import cmath
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
_HALF_PI = 0.5 * math.pi

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
# altogether.  The Laplace frame bounds the slopes of Q over its box
# instead of scanning them.  On the Gaussians of the benchmark it asks for no more
# than the 2**5 intervals of the first comparison, where a node whose
# value lies below the absolute floor stops.
_TRAP_ALIAS = math.pi
_TRAP_STEEP = 16.0
# a node whose scan asks for more trapezoid intervals than this takes
# GK15, whose bisection spends its points near the narrow feature
_TRAP_MAX = 2 ** 10
# the tensor grid of a product of Lines may hold as many points as the
# nested levels evaluate in the starting round of three variables,
# _NODE_CAP cubed, counted in GK15 panels of 15 points
_GRID_PANELS = _NODE_CAP ** 3 // 15

# glibc serves blocks above its mmap threshold (128 KiB by default) from
# fresh pages, and returns the top of its heap to the system whenever
# more than its trim threshold (also 128 KiB) lies free there.  The
# nested levels allocate and free complex temporaries of up to 460 KiB
# (_NODE_CAP nodes times 120 points or 244 scan radii, 16 bytes each),
# which would fault their pages in again at every inner level.  Freeing
# one block above the mmap threshold makes glibc raise that threshold to
# the block's size and the trim threshold to twice it, unless they were
# set explicitly; other allocators ignore it.  What the line protects is
# the repeated allocation and freeing of temporaries of 128 KiB or more,
# which test_freed_temporaries_stay_on_the_heap measures: with numpy 2.4
# and glibc 2.36 (x86-64), sixteen 229 KiB arrays made and freed twenty
# times take 13,100 minor faults without the line and none with it.  The
# integrals of the benchmark fault little either way (0 to 2 per
# integral after the first), since glibc also raises the thresholds when
# it frees the first such temporary.
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


def _gk15(f, node, a, b):
    """Kronrod values and |Kronrod - Gauss| estimates of the panels
    [a_k, b_k] of integrals node_k, all evaluated in one call of ``f``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid[:, None] + half[:, None] * _XGK
    points = np.empty(x.size, dtype=_NODE_TAU)
    points["node"] = np.repeat(node, _XGK.size)
    points["tau"] = x.ravel()
    fx = np.asarray(f(points), dtype=complex).reshape(x.shape)
    # weighted sums, not a matrix product: the complex product runs on
    # multithreaded BLAS, whose threads made 3-D integrals up to 3x slower
    kron = half * (fx * _WGK).sum(axis=1)
    gauss = half * (fx[:, _GAUSS_IDX] * _WG).sum(axis=1)
    return kron, np.abs(kron - gauss)


def _cartesian(axes):
    """The tensor product of the 1-D arrays ``axes`` as an n x N array,
    one row of coordinates per axis, the last axis running fastest."""
    n = len(axes)
    out = np.empty([n] + [len(a) for a in axes])
    for k, a in enumerate(axes):
        out[k] = a.reshape([-1 if i == k else 1 for i in range(n)])
    return out.reshape(n, -1)


def _grid(m, dim, halving):
    """The points, as fractions of the box (dim x N), and the tensor
    trapezoid weights of the grid of m intervals per axis: all of them,
    or with ``halving`` only those that the grid of m / 2 lacks, in blocks
    whose index is odd on axis k and even on the axes before it."""
    axis = np.arange(m + 1) / m
    ends = np.ones(m + 1)
    ends[[0, -1]] = 0.5
    every, even, odd = slice(None), slice(0, None, 2), slice(1, None, 2)
    blocks = ([(even,) * k + (odd,) + (every,) * (dim - k - 1)
               for k in range(dim)] if halving else [(every,) * dim])
    points = np.concatenate([_cartesian([axis[b] for b in block])
                             for block in blocks], axis=1)
    weights = np.concatenate([_cartesian([ends[b] for b in block]).prod(axis=0)
                              for block in blocks])
    return points, weights


def _row_sums(f, rows, a, b, s, weights):
    """Weighted sums of f and of |f| over the points a + (b - a) * s of
    integrals ``rows``, and of |f| times the rounding f reports (None if
    it reports none): one row of points per integral, reduced row by row
    so an integral's sums do not depend on the others in the call; at
    most _POINT_CAP points go to ``f`` at a time.  ``f`` returns the
    values, or (values, rounding) with the relative rounding error of
    each value."""
    dim, m = s.shape
    per_call = max(1, _POINT_CAP // m)
    sums = np.empty(len(rows), dtype=complex)
    mags = np.empty(len(rows))
    noise = None
    # one coordinate per point is a plain float field, as GK15 hands it on
    node_tau = _NODE_TAU if dim == 1 else np.dtype(
        [("node", np.intp), ("tau", float, (dim,))])
    for lo in range(0, len(rows), per_call):
        group = rows[lo:lo + per_call]
        points = np.empty(len(group) * m, dtype=node_tau)
        points["node"] = np.repeat(group, m)
        # axis by axis, so that numpy's loops run along the points
        tau = points["tau"].reshape(len(points), dim)
        for k, sk in enumerate(s):
            tau[:, k] = (a[group, k, None]
                         + (b - a)[group, k, None] * sk).ravel()
        parts = [f(points[k:k + _POINT_CAP])
                 for k in range(0, len(points), _POINT_CAP)]
        rounding = None
        if isinstance(parts[0], tuple):
            parts, rounding = zip(*parts)
        fx = np.concatenate([np.asarray(p, dtype=complex).ravel()
                             for p in parts]).reshape(len(group), m)
        fx *= weights
        sums[lo:lo + len(group)] = fx.sum(axis=1)
        fx = np.abs(fx)
        mags[lo:lo + len(group)] = fx.sum(axis=1)
        if rounding is not None:
            if noise is None:
                noise = np.empty(len(rows))
            fx *= np.concatenate(rounding).reshape(len(group), m)
            noise[lo:lo + len(group)] = fx.sum(axis=1)
    return sums, mags, noise


def _trapezoid(f, a, b, rows, need, cap, rel_tol, abs_floor, what, failures,
               total, err, mass, noise):
    """Lockstep trapezoid halving of integrals ``rows``; see
    adaptive_quadrature.  Fills their entries of ``total``, ``err``,
    ``mass`` and, where f reports its rounding, ``noise``."""
    start = rows
    a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)  # one column per axis
    dim = a.shape[1]
    volume = (b - a).prod(axis=1)
    shrink = 0.5 ** dim  # the cell of a halved grid
    n = 2 ** _TRAP_START
    sums, mags, rounding = _row_sums(f, rows, a, b, *_grid(n, dim, False))
    step = volume[rows] / n ** dim
    total[rows] = step * sums
    mass[rows] = step * mags
    if rounding is not None:
        noise[rows] = step * rounding
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
        sums, mags, rounding = _row_sums(f, rows, a, b, *_grid(n, dim, True))
        step = volume[rows] / n ** dim
        new = shrink * total[rows] + step * sums
        err[rows] = np.abs(new - total[rows])
        total[rows] = new
        mass[rows] = shrink * mass[rows] + step * mags
        floor = 5e-16 * mass[rows]
        if rounding is not None:
            noise[rows] = shrink * noise[rows] + step * rounding
            floor = floor + noise[rows]
        # the target of the GK15 driver, from the same three floors
        target = np.maximum(np.maximum(abs_floor, rel_tol * np.abs(new)),
                            floor)
        # a nan difference runs on
        rows = rows[~((err[rows] <= target) & (n >= need[rows]))]
    # two sums that agree to below the roundoff of the sum itself do not
    # bound its error: that roundoff does, and the rounding of f itself
    # comes on top
    err[start] = np.maximum(err[start], 5e-16 * mass[start]) + noise[start]


def _trapezoid_cap(max_intervals, dim):
    """The most intervals per axis a trapezoid grid may reach: the largest
    power of two whose grid has no more points than ``max_intervals``
    GK15 panels."""
    points = 15 * max_intervals
    side = round(points ** (1.0 / dim))  # the most points per axis
    while side ** dim > points:
        side -= 1
    while (side + 1) ** dim <= points:
        side += 1
    return 2 ** ((side - 1).bit_length() - 1)


def _gauss_kronrod(f, a, b, rows, rel_tol, abs_floor, max_intervals, what,
                   failures, total_out, err_out, mass_out):
    """Lockstep GK15 bisection of integrals ``rows``; see
    adaptive_quadrature.  Fills their entries of the three arrays."""
    count = len(a)
    pieces = np.linspace(a[rows], b[rows], _START_PANELS + 1, axis=1)
    vals, errs = _gk15(f, np.repeat(rows, _START_PANELS),
                       pieces[:, :-1].ravel(), pieces[:, 1:].ravel())
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
        v, e = _gk15(f, node + node, lo + mid, mid + hi)
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

    The B integrals over [a_k, b_k] (``a`` and ``b`` length-B arrays) run
    in lockstep: ``f`` receives one array with fields ``node`` (which
    integral) and ``tau`` (the point) holding all panels requested in the
    round, and the result is three length-B arrays: values, error
    estimates and roundoff floors.  Each round every unconverged integral
    bisects its worst intervals, as many as it takes for their estimates
    to sum to the excess of its error over its target: at least one, no
    more than its budget of ``max_intervals`` has room for, and none
    after an interval too short to bisect, whose error stays in the
    total.  Each integral stops on its own target and follows exactly the
    bisections it would follow alone.  Raises AccuracyError carrying the
    best estimate of the failing integral when its budget is exhausted,
    or its bisection depth: the errors of the intervals too short to
    bisect exceed its target.  With a dict ``failures``, that error is
    stored there under the integral's index instead, and the other
    integrals run on; integrals already in it are not refined, and their
    results mean nothing.

    ``trapezoid``, for integrands entire on the interval and decayed at
    both ends (a truncated Line, or a Ray from 0 under the exp-sinh
    map), is the fewest intervals each integral must be resolved with (a
    number, or one per integral).  Those integrals take the trapezoid
    rule instead, from 2**4 + 1 points, halving the step until two
    successive sums agree to the same target and that many intervals are
    reached; each halving evaluates only the new midpoints of the
    unconverged integrals, and the error reported is the last
    difference, or the roundoff floor where that is larger.
    Its budget is the largest power of two of intervals whose points do
    not outnumber those of ``max_intervals`` GK15 panels; past it, it
    fails as above.  An integral that needs more intervals than that
    takes GK15, whose bisection resolves a narrow feature locally.

    With B x n arrays ``a`` and ``b`` the integrals are over n-dimensional
    boxes, one column per axis, and ``tau`` holds n coordinates per
    point.  They take the trapezoid rule on the tensor grid, ``trapezoid``
    being required: every axis is halved together, a halving evaluates
    only the points the coarser grid lacks, the budget counts the points
    of the whole grid, and an integral that needs more intervals than the
    budget fails at it, there being no GK15 for a box.  A Line leg is the
    one-dimensional case.

    ``f`` may return (values, rounding), the relative rounding error of
    each value; the trapezoid's sum of |f| times it over the last grid is
    added to its target, its error estimate and its roundoff floor.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    count = len(a)
    dim = 1 if a.ndim == 1 else a.shape[1]
    rows = np.arange(count)
    if failures:
        rows = np.setdiff1d(rows, list(failures))
    gk_rows, trap_rows = rows, rows[:0]
    if trapezoid is not None:
        need = np.broadcast_to(np.asarray(trapezoid, dtype=float), (count,))
        cap = _trapezoid_cap(max_intervals, dim)
        fits = need[rows] <= cap  # false for a nan need too
        if dim > 1:
            for i in rows[~fits].tolist():
                error = AccuracyError(
                    f"{what} needs more than {cap} trapezoid intervals per "
                    "axis", complex("nan"), math.inf)
                if failures is None:
                    raise error
                failures[i] = error
            rows, fits = rows[fits], fits[fits]
        trap_rows, gk_rows = rows[fits], rows[~fits]
    elif dim > 1:
        raise ValueError("an n-dimensional box takes the trapezoid rule only")
    total = np.zeros(count, dtype=complex)
    err = np.zeros(count)
    mass = np.zeros(count)
    noise = np.zeros(count)
    if trap_rows.size:
        _trapezoid(f, a, b, trap_rows, need, cap, rel_tol, abs_floor, what,
                   failures, total, err, mass, noise)
    if gk_rows.size:
        _gauss_kronrod(f, a, b, gk_rows.tolist(), rel_tol, abs_floor,
                       max_intervals, what, failures, total, err, mass)
    return total, err, 5e-16 * mass + noise


# ----------------------------------------------------------------------
# leg parametrization

class _Path:
    """A leg mapped onto tau in [0, 1] for each outer node, or onto the
    per-node ``interval`` (a, b) where one is set.  ``sign`` is +1 when
    the leg is traversed from tau = a to b and -1 when from b to a;
    ``dmap`` carries it, so the integral over the parameter is the leg's.
    ``map`` and ``dmap`` take (node, tau) arrays."""

    def __init__(self, leg, index, sign, map_fn, dmap_fn):
        self.leg = leg
        self.index = index
        self.sign = sign
        self.map = map_fn
        self.dmap = dmap_fn if sign == 1 else (lambda node, t:
                                               -dmap_fn(node, t))
        # per node, the fewest trapezoid intervals (None: GK15 leg)
        self.trapezoid = None
        self.interval = None
        # log |t| at (node, tau) on a leg that exp-sinh maps (None elsewhere)
        self.log_abs = None

    def describe(self):
        return f"leg {self.index + 1} ({type(self.leg).__name__})"


def _segment_path(leg, index, sign, z0, z1, count):
    z0 = np.broadcast_to(np.asarray(z0, dtype=complex), (count,))
    d = np.broadcast_to(np.asarray(z1 - z0, dtype=complex), (count,))
    return _Path(leg, index, sign, lambda node, t: z0[node] + d[node] * t,
                 lambda node, t: d[node])


def _exp_sinh_path(leg, index, lo, hi):
    """A Ray from 0 under exp-sinh: t = exp(i angle) exp((pi/2) sinh x) on
    the interval x in [lo, hi], one per node.  ``log_abs`` gives
    L = log |t| = (pi/2) sinh x and ``dmap`` the real dL/dx: arg t is
    constant along the ray, so dt = t dL, and the weight and the Jacobian
    fold into one exponential exp(u (L + i arg t)) where t itself
    underflows.  The rule's points are x itself, not an affine image of
    [0, 1], whose rounding the map would amplify by dL/dx far out."""
    direction = cmath.exp(1j * leg.angle)

    def log_abs(node, x):
        return _HALF_PI * np.sinh(x)

    path = _Path(leg, index, leg.orientation,
                 lambda node, x: direction * np.exp(log_abs(node, x)),
                 lambda node, x: _HALF_PI * np.cosh(x))
    path.interval = lo, hi
    path.log_abs = log_abs
    return path


def _make_path(leg, index, cut, count):
    """cut: (R,) for a ray, (x_min, x_max) for a ray from 0 that exp-sinh
    maps (see _exp_sinh_path), (Rneg, Rpos) for a line, ignored otherwise;
    each entry is a length-``count`` array, one per outer node.  tau = 0,
    where no GK15 node lies, is a Ray's start, a Line's negative end, and
    the end of a Segment or an Arc nearer the singular 0 of t^(u-1) (on a
    tie, the declared start).  An Arc runs from that end z0 as
    z0 + r e^(i theta0) expm1(i span tau), so that a z0 within rounding of
    0 is 0 and the path starts on the singular point itself."""
    if isinstance(leg, Ray):
        if len(cut) == 2:
            return _exp_sinh_path(leg, index, *cut)
        far = complex(leg.start) + np.exp(1j * leg.angle) * cut[0]
        return _segment_path(leg, index, leg.orientation, complex(leg.start),
                             far, count)
    if isinstance(leg, Line):
        direction = np.exp(1j * leg.angle)
        return _segment_path(leg, index, leg.orientation, -direction * cut[0],
                             direction * cut[1], count)
    if isinstance(leg, Segment):
        z0, z1, sign = complex(leg.start), complex(leg.end), leg.orientation
        if abs(z1) < abs(z0):
            z0, z1, sign = z1, z0, -sign
        return _segment_path(leg, index, sign, z0, z1, count)
    # Arc: |c + r e^(i theta)|^2 = |c|^2 + r^2 + 2 r Re(conj(c) e^(i theta)),
    # exactly tied when the arc is centred at 0
    th0, th1, sign = leg.angle_start, leg.angle_end, leg.orientation
    c, r = complex(leg.center), leg.radius
    if ((c.conjugate() * cmath.exp(1j * th1)).real
            < (c.conjugate() * cmath.exp(1j * th0)).real):
        th0, th1, sign = th1, th0, -sign
    span = th1 - th0
    turn = r * cmath.exp(1j * th0)
    z0 = c + turn
    # the rounded start of an arc that ends at 0 (6.1e-17i for centre 0.5,
    # radius 0.5 and theta0 = pi) would cut off the piece of a singular
    # weight between it and 0
    if abs(z0) <= 4 * np.finfo(float).eps * (abs(c) + r):
        z0 = 0j

    def zmap(node, t):
        return z0 + turn * np.expm1(1j * span * t)

    def dmap(node, t):
        return 1j * r * span * np.exp(1j * (th0 + span * t))

    return _Path(leg, index, sign, zmap, dmap)


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
        if path.sign == -1:  # traversed from tau = 1 to 0
            first, last = last, first
        start = pr[first] + TWO_PI * np.round((start_args - pr[first]) / TWO_PI)
        cont = np.r_[0.0, np.cumsum(steps)]
        # only the nearest winding number is read off these arguments, so
        # a flat cumsum restarted at each node's start is precise enough
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

    def entire_along(self, j, weight=True):
        """Whether every factor that varies with variable j is entire in
        it: exp(P), t_j^k and P_i^k with integers k >= 0; without
        ``weight``, the weight t_j^rho is left out."""
        def entire(exponent):
            return _is_int(exponent) and exponent.real >= 0
        rho = self.monomial_exponent(j)
        return (not weight or rho is None or entire(rho)) and all(
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
_LOG_CUT = math.log(MAGNITUDE_CUT)
# per gap, dt/dx = t sqrt((pi/2)^2 + (log t)^2) of the exp-sinh map
# t = exp((pi/2) sinh x) at the gap's outer radius, where it is largest
_GAP_DTDX = _SCAN_RADII[1:] * np.hypot(_HALF_PI, np.log(_SCAN_RADII[1:]))


def _monomial_log(run, axis, z):
    """Re(rho) log|z| of the weight t^rho of variable ``axis`` at z (0
    without one)."""
    rho = run.monomial_exponent(axis)
    if rho is None:
        return 0.0
    return rho.real * np.log(np.maximum(np.abs(z), 1e-300))


def _slice_log_mag(run, axis, fixed, member, z):
    """P and the log magnitude of the integrand along variable ``axis`` at
    the points ``z`` (nodes down, points across), the other variables at
    their per-node values in ``fixed``: Re P, the weight t^rho of ``axis``
    and, in one variable, the power-product factors."""
    rows = (slice(None), None)  # node coefficients down, points across
    p = _eval_collapsed(_collapse_along(run.kernel, fixed, axis, member), z,
                        rows)
    lm = p.real + _monomial_log(run, axis, z)
    if run.n == 1:
        for poly, v in zip(run.powers, run.power_v):
            pv = np.abs(_eval_collapsed(
                _collapse_along(poly, fixed, axis, member), z, rows))
            lm = lm + v.real * np.log(np.maximum(pv, 1e-300))
    return p, lm


def _scan_points(chain):
    """Where the integrand is sampled along an inner chain, as (points,
    directions, runs): the representatives of its bounded legs, each a
    run of its own with direction 0, and the scan radii of each unbounded
    leg, one run in order along it (across the origin on a Line) with the
    leg's direction."""
    reps = _representatives(chain)
    points, directions = [np.array(reps)], [np.zeros(len(reps))]
    runs = [np.arange(len(reps))]
    for leg in chain:
        if isinstance(leg, (Line, Ray)):
            direction = np.exp(1j * leg.angle)
            if isinstance(leg, Line):
                along = direction * np.r_[-_SCAN_RADII[:0:-1], _SCAN_RADII]
            else:
                along = complex(leg.start) + direction * _SCAN_RADII
            points.append(along)
            directions.append(np.full(along.size, direction))
            runs.append(np.full(along.size, len(reps) + len(runs)))
    return (np.concatenate(points), np.concatenate(directions),
            np.concatenate(runs))


def _inner_peak(run, j, fixed, member, z):
    """Per node, the largest log magnitude of the integrand over the scan
    points of the inner variables j+1..n-1, with variable j at z, and P
    where it lies: the inner slice's own peak.  Every inner variable but
    the last is spread over the nodes; along the last one, where the
    largest sample lies between two neighbours of its run, the integrand
    is also taken at the vertex of the parabola through the three, which
    is the peak itself when log |f| is quadratic there, however narrow
    the peak."""
    fixed = {**fixed, j: z}
    extra = _monomial_log(run, j, z) + np.zeros(len(member))
    count = len(member)
    for i in range(j + 1, run.n - 1):
        points = _scan_points(run.contour.chains[i])[0]
        fixed = {k: np.repeat(v, points.size) for k, v in fixed.items()}
        fixed[i] = np.tile(points, len(member))
        extra = np.repeat(extra, points.size) + _monomial_log(run, i, fixed[i])
        member = np.repeat(member, points.size)
    last = run.n - 1
    points, directions, runs = _scan_points(run.contour.chains[last])
    p, lm = _slice_log_mag(run, last, fixed, member, points)
    lm[np.isnan(lm)] = -np.inf
    best = lm.argmax(axis=1)
    every = np.arange(len(best))
    peak, at_peak = lm[every, best], p[every, best]
    mid = np.clip(best, 1, points.size - 2)
    inside = ((mid == best) & (runs[mid - 1] == runs[mid])
              & (runs[mid + 1] == runs[mid]))
    rows = np.nonzero(inside)[0]
    mid = mid[rows]
    direction = directions[mid]
    # the neighbours' coordinates along the run, taking the best point as 0
    h0 = ((points[mid - 1] - points[mid]) * direction.conj()).real
    h2 = ((points[mid + 1] - points[mid]) * direction.conj()).real
    f0, f1, f2 = (lm[rows, mid - 1], lm[rows, mid], lm[rows, mid + 1])
    with np.errstate(invalid="ignore", divide="ignore"):
        vertex = -0.5 * ((h0 * h0 * (f1 - f2) - h2 * h2 * (f1 - f0))
                         / (h2 * (f1 - f0) - h0 * (f1 - f2)))
    keep = np.isfinite(vertex)
    rows = rows[keep]
    at = points[mid[keep]] + direction[keep] * vertex[keep]
    p, refined = _slice_log_mag(run, last,
                                {k: v[rows] for k, v in fixed.items()},
                                member[rows], at[:, None])
    higher = refined[:, 0] > peak[rows]
    peak[rows[higher]] = refined[higher, 0]
    at_peak[rows[higher]] = p[higher, 0]
    peak = (peak + extra).reshape(count, -1)
    pick = peak.argmax(axis=1)
    every = np.arange(count)
    return peak[every, pick], at_peak.reshape(count, -1)[every, pick]


def _truncate_unbounded(run, j, fixed, member, anchor, ends, mapped=False):
    """(cuts, step_bound): for each (direction, what) of ``ends``, one
    radius per node (its outer values in ``fixed``, its batch member in
    ``member``) along anchor + direction*r where the integrand has decayed
    for every representative slice of the inner variables, and per node
    the inverse of the largest trapezoid step the integrand allows; one
    array pass, each direction with its own peak and decay test.

    Each end is cut at the first scan radius from which the integrand
    stays below MAGNITUDE_CUT of that end's peak.  At a level with inner
    variables each end is then checked against the inner slice's own
    peak there (see _inner_peak), which must lie MAGNITUDE_CUT below the
    level's peak: the larger of the scan's peak and every end value seen
    so far.  An end that fails moves out one scan radius and is checked
    again, so the range holds the marginal of a correlated integrand,
    whose mass lies away from the inner representatives.  The radii are
    then rounded up to eight significant bits.

    The step bound (see _TRAP_ALIAS) comes from the mean dP/dr between
    neighbouring radii, over the gaps next to a sampled point of any of
    ``ends`` where the integrand lies within MAGNITUDE_CUT of its largest
    sampled magnitude, and, where there are two ends at a level with
    inner variables, from the mean slope of Im P along the inner peaks
    between them.

    ``mapped`` is for a Ray from 0 that exp-sinh integrates: then the
    result is ((x_min, x_max), need) in its variable x, with x_max at the
    cut and the rest from _exp_sinh_range."""
    radii = _SCAN_RADII
    count = len(member)
    z = np.concatenate([anchor + direction * radii for direction, _ in ends])
    inner_chains = [run.contour.chains[i] for i in range(j + 1, run.n)]
    combos = [()]
    for chain in inner_chains:
        combos = [c + (p,) for c in combos for p in _representatives(chain)]

    ok_decay = np.ones((count, z.size), dtype=bool)
    log_mag = np.full((count, z.size), -np.inf)
    slices = []  # (P, log magnitude) of each slice
    for combo in combos:
        fixed_all = dict(fixed)
        for idx, val in zip(range(j + 1, run.n), combo):
            fixed_all[idx] = val
        p, lm = _slice_log_mag(run, j, fixed_all, member, z)
        ok_decay &= p.real < DECAY_RE_P
        log_mag = np.maximum(log_mag, lm)
        slices.append((p, lm))

    index = []
    top = np.full(count, -np.inf)
    for k, (_, what) in enumerate(ends):
        part = slice(k * radii.size, (k + 1) * radii.size)
        mag = log_mag[:, part]
        finite = np.isfinite(mag)
        peak = np.where(finite, mag, -np.inf).max(axis=1)
        top = np.maximum(top, peak)
        peak[~finite.any(axis=1)] = 0.0
        small = mag < peak[:, None] + _LOG_CUT
        first = _first_decayed(ok_decay[:, part] & small)
        if first is None:
            raise DivergenceError(
                f"no decay of Re P below {DECAY_RE_P} along {what}; "
                "the integral diverges on this contour"
            )
        index.append(first)
    fastest = np.zeros(count)
    if j < run.n - 1:
        index, ridge = _check_ends(run, j, fixed, member, anchor, ends, index,
                                   top)
        if len(ends) == 2:
            # Im P along the inner peaks from one end of the line to the
            # other: its mean slope is the frequency of the marginal when
            # the inner slices are Gaussian, which the slices at the
            # representatives do not see
            fastest = (np.abs((ridge[:, 1] - ridge[:, 0]).imag)
                       / (_TRAP_ALIAS * (radii[index[0]] + radii[index[1]])))
    reach = max(int(i.max()) for i in index) + 1  # radii up to the farthest cut
    cuts = list(_eight_bits([radii[i] for i in index]))
    if mapped:
        x_max = np.arcsinh(np.log(cuts[0]) / _HALF_PI)
        x_min, need = _exp_sinh_range(run, j, log_mag, slices, index[0],
                                      reach, x_max)
        return (x_min, x_max), need
    band = np.where(np.isfinite(top), top + _LOG_CUT, np.inf)
    shape = (count, len(ends), radii.size)
    for p, lm in slices:
        r = _step_rates(p.reshape(shape), lm.reshape(shape),
                        band[:, None, None], reach)
        fastest = np.maximum(fastest, r.max(axis=(1, 2)))
    return cuts, fastest


def _exp_sinh_range(run, j, log_mag, slices, index, reach, x_max):
    """(x_min, need) per node for a Ray from 0 under the weight t^rho,
    u = rho + 1, that exp-sinh maps onto [x_min, x_max], from the scan of
    _truncate_unbounded: its log magnitudes ``log_mag``, P of each slice
    in ``slices`` and each node's cut radius index ``index``.

    Per unit log t the integrand is g = log |t^u f|, which peaks at some
    scan radius up to the cut.  Near 0 it is about G0 + Re u log t, G0 the
    log magnitude of the other factors at t = 0, so the mass below t is
    about exp(G0) t^(Re u) / Re u; x_min puts that MAGNITUDE_CUT below the
    peak of g, and no farther out than the last scan radius below that
    band before the first one in it (at least the first radius), where
    the integrand grows from far below it.  The resolution is the scan's
    (see _step_rates) over the gaps next to a radius in that band, each
    gap's rate per unit t times dt/dx = t sqrt((pi/2)^2 + (log t)^2) at its
    outer radius, where it is largest."""
    count = len(index)
    u = run.u[j].real
    g = np.full((count, reach), -np.inf)  # t^u vanishes at the radius 0
    g[:, 1:] = log_mag[:, 1:reach] + np.log(_SCAN_RADII[1:reach])
    g[np.arange(reach) > index[:, None]] = -np.inf  # past the node's cut
    peak = g.max(axis=1)
    band = peak + _LOG_CUT
    g0 = log_mag[:, 0] - _monomial_log(run, j, 0.0)
    near = np.maximum((g >= band[:, None]).argmax(axis=1) - 1, 1)
    log_min = np.minimum((band + math.log(u) - g0) / u,
                         np.log(_SCAN_RADII[near]))
    x_min = np.arcsinh(log_min / _HALF_PI)
    rate = np.zeros(count)
    for p, _ in slices:
        r = _step_rates(p, g, band[:, None], reach) * _GAP_DTDX[:reach - 1]
        rate = np.maximum(rate, r.max(axis=1))
    return x_min, (x_max - x_min) * rate


def _first_decayed(decayed):
    """Per run of scan radii (the last axis), the first index from which
    every radius is decayed, and at least 1, since a range decayed from
    the origin on still starts one radius out; None if a run never
    decays."""
    # good[..., i]: decayed at every radius from i outwards
    good = np.logical_and.accumulate(decayed[..., ::-1], axis=-1)[..., ::-1]
    if not good.any(axis=-1).all():
        return None
    return np.maximum(good.argmax(axis=-1), 1)


def _step_rates(p, lm, band, reach):
    """Per gap between the first ``reach`` scan radii of each run (the
    last axis), the trapezoid rate the mean dP/dr across it asks for (see
    _TRAP_ALIAS), where a point next to the gap has its log magnitude
    ``lm`` at or above ``band``, and 0 elsewhere."""
    with np.errstate(invalid="ignore"):  # inf - inf far out
        change = np.diff(p[..., :reach], axis=-1)
    r = np.maximum(np.abs(change.imag) * _GAP_ALIAS[:reach - 1],
                   np.abs(change.real) * _GAP_STEEP[:reach - 1])
    seen = lm[..., :reach] >= band
    # every gap next to such a point: a peak narrower than the spacing of
    # the radii lies in one of them, and the slope at a sampled peak
    # alone is zero
    r[~(seen[..., 1:] | seen[..., :-1])] = 0.0
    return r


def _eight_bits(r):
    """Radii rounded up to eight significant bits, which keep the
    trapezoid nodes -r0 + (r0 + r1) k / n of a line at angle 0, and the
    nodes of a box, exact in binary, so that no rounding of the nodes
    biases the sum."""
    mantissa, exponent = np.frexp(r)
    return np.ldexp(np.ceil(np.ldexp(mantissa, 8)), exponent - 8)


def _check_ends(run, j, fixed, member, anchor, ends, index, top):
    """The cut radius indices ``index`` (one array per end) moved out
    until the inner slice at each end lies MAGNITUDE_CUT below the
    level's peak, and P at the inner slice's peak at each final end
    (nodes down, ends across); see _truncate_unbounded."""
    at = np.stack(index, axis=1)  # nodes down, ends across
    ridge = np.empty(at.shape, dtype=complex)
    peak = top.copy()
    directions = np.array([direction for direction, _ in ends])
    nodes, end = np.nonzero(np.ones(at.shape, dtype=bool))
    while nodes.size:
        z = anchor + directions[end] * _SCAN_RADII[at[nodes, end]]
        value, ridge[nodes, end] = _inner_peak(
            run, j, {i: t[nodes] for i, t in fixed.items()}, member[nodes], z)
        # the end values seen so far only raise the peak, so an end that
        # passed once stays passed
        np.maximum.at(peak, nodes, value)
        moved = ~(value < peak[nodes] + _LOG_CUT)
        nodes, end = nodes[moved], end[moved]
        outside = at[nodes, end] == len(_SCAN_RADII) - 1
        if outside.any():
            raise DivergenceError(
                "the integrand over the inner variables has not decayed at "
                f"the end of {ends[end[outside][0]][1]}; the integral "
                "diverges on this contour")
        at[nodes, end] += 1
    return list(at.T), ridge


def _build_paths(run, j, fixed, member):
    count = len(member)
    entire = run.entire_along(j)
    # a Ray from 0 takes exp-sinh under a weight t^rho that is not entire
    # there, where every other factor that varies along it is entire and t
    # is the only multivalued one, so that no tracker runs along it
    rho = run.monomial_exponent(j)
    weighted = (rho is not None and not _is_int(rho)
                and run.entire_along(j, weight=False)
                and all(map(_is_int, run.power_v)))
    paths = []
    for index, leg in enumerate(run.contour.chains[j]):
        what = f"variable {j + 1}, leg {index + 1} ({type(leg).__name__})"
        mapped = weighted and isinstance(leg, Ray) and complex(leg.start) == 0
        cut = ()
        if isinstance(leg, (Ray, Line)):
            d = np.exp(1j * leg.angle)
            if isinstance(leg, Ray):
                anchor, ends = complex(leg.start), [(d, what)]
            else:
                anchor, ends = 0j, [(-d, what + " (negative end)"),
                                    (d, what + " (positive end)")]
            cut, step = _truncate_unbounded(run, j, fixed, member, anchor,
                                            ends, mapped)
        path = _make_path(leg, index, cut, count)
        if mapped:
            # the map squeezes a feature far out by dt/dx, so that GK15's
            # starting panels in x would step over a peak the scan saw:
            # only the trapezoid's own budget sends a node to GK15
            path.trapezoid = step
        elif entire and isinstance(leg, Line):
            # the fewest intervals whose step the scan allows
            need = (cut[0] + cut[1]) * step
            path.trapezoid = np.where(need <= _TRAP_MAX, need, np.inf)
        paths.append(path)
    return paths


def _build_trackers(run, j, paths, member):
    """Per-leg trackers for the multivalued factors that vary with
    variable j, each continuing the argument on every node's path; on a
    leg that exp-sinh maps, where t_j is the only one, the per-node
    argument of t_j instead."""
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
            if path.log_abs is not None:
                # arg t is constant on a Ray from 0: the winding of its
                # angle nearest the argument handed on, as a tracker takes
                # its start
                angle = path.leg.angle
                args = angle + TWO_PI * np.round((args - angle) / TWO_PI)
                per_leg.append(args)
                continue
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
            if not innermost:
                outer = {i: t[node] for i, t in fixed.items()}
                outer[j] = z
                outer_member = member[node]
                inner = np.empty_like(z, dtype=complex)
                for lo in range(0, z.size, _NODE_CAP):
                    chunk = slice(lo, lo + _NODE_CAP)
                    inner[chunk] = _level_value(
                        run, j + 1, {i: t[chunk] for i, t in outer.items()},
                        outer_member[chunk], rel_tol * 0.5)
            # past the double range the factors overflow, and t^rho of a
            # negative rho near 0 with them; the check below reports that
            # instead of a warning
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                val = np.ones_like(z, dtype=complex)
                if rho is not None:
                    key = ("t", j + 1)
                    if path.log_abs is not None:
                        # exp-sinh: t^rho dt = exp(u log t) dL, one
                        # exponential where t itself underflows
                        log_t = (path.log_abs(node, taus)
                                 + 1j * trackers[key][leg_idx][node])
                        val = np.exp((rho + 1.0) * log_t)
                    elif key in trackers:
                        val = val * _tracked_power(z, trackers[key][leg_idx],
                                                   node, taus, rho)
                    else:
                        val = val * z ** int(rho.real)
                if innermost:
                    val = val * np.exp(_eval_collapsed(kernel_coeffs, z,
                                                       node))
                    for i, (pc, v) in enumerate(zip(power_coeffs,
                                                    run.power_v)):
                        key = ("P", i + 1)
                        pvals = _eval_collapsed(pc, z, node)
                        if key in trackers:
                            val = val * _tracked_power(
                                pvals, trackers[key][leg_idx], node, taus, v)
                        else:
                            val = val * pvals ** int(v.real)
                else:
                    val = val * inner
                val = val * path.dmap(node, taus)
            if not np.isfinite(val).all():
                raise QuadratureError(
                    f"the integrand of variable {j + 1}, {path.describe()} "
                    "is not finite in double precision")
            return val

        value, err, floor = adaptive_quadrature(
            f, *(path.interval or (np.zeros(count), np.ones(count))), rel_tol,
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


# ----------------------------------------------------------------------
# products of Lines: one tensor trapezoid in a Laplace frame


def _frame_applies(run):
    """Whether the run goes on one grid: exp(P) alone, with no weight t^rho
    or P_i^v, on a product of two or more chains that are each one Line,
    with P of total degree at most 2, so that Re P has at most one peak
    and it lies at the centre of the frame."""
    return (run.n >= 2
            and all(len(chain) == 1 and isinstance(chain[0], Line)
                    for chain in run.contour.chains)
            and not run.powers
            and all(run.monomial_exponent(j) is None for j in range(run.n))
            and max(map(sum, run.kernel), default=0) <= 2)


def _quadratic(poly, contour):
    """P(d * s) = c + g.s + s.H s / 2, for P of total degree at most 2,
    d_j = exp(i angle_j) the direction of the Line of variable j and s
    real, as (c, g, H)."""
    angles = [chain[0].angle for chain in contour.chains]
    n = len(angles)
    c, g, h = 0j, np.zeros(n, dtype=complex), np.zeros((n, n), dtype=complex)
    for e, a in poly.terms.items():
        axes = [j for j, k in enumerate(e) for _ in range(k)]
        a = a * cmath.exp(1j * sum(angles[j] for j in axes))
        if len(axes) == 2:
            j, k = axes
            h[j, k] += a
            h[k, j] += a
        elif axes:
            g[axes[0]] += a
        else:
            c += a
    return c, g, h


def _form(c, g, h, x):
    """c + g.x + x.h x / 2, for a symmetric h, at the points x (n x N),
    term by term and with no matrix product (see _gk15)."""
    total = np.full(len(x[0]), c)
    for j, xj in enumerate(x):
        row = g[j] + 0.5 * h[j, j] * xj
        for k in range(j):
            row = row + h[j, k] * x[k]
        total += row * xj
    return total


class _Frame:
    """The Laplace frame of one batch member.

    On the real parameters s of the Lines (t_j = d_j s_j, d_j the Line's
    direction) P = c + g.s + s.H s / 2 is quadratic, and the frame is
    s = x0 + L z, where x0 maximises Re P, its one peak, and L = C^-T for
    the Cholesky factor C C^T of -Re H, so Re P falls like |z|^2 / 2
    around x0.  It holds Q(z) = P(x0 + L z) as ``q`` = (Q(0), its slope
    L^T (g + H x0) and its curvature L^T H L), whose terms are small where
    the integrand matters, the magnitudes (|c|, |g|, |H|) of P's terms
    for its rounding, and ``jac``: the orientations and the Jacobian
    d_j det L.  ``lo``, ``hi`` and ``need``, the box in z and the fewest
    intervals its axes take, are read off ``q`` in _laplace_frame.
    """

    def __init__(self, contour, c, g, h, chol):
        self.n = len(contour.chains)
        x0 = np.linalg.solve(-h.real, g.real)  # where grad Re P vanishes
        L = np.linalg.inv(chol).T
        self.q = c + g @ x0 + x0 @ h @ x0 / 2, L.T @ (g + h @ x0), L.T @ h @ L
        self.x0, self.L = x0.tolist(), L.tolist()
        self.p_abs = abs(c), np.abs(g), np.abs(h)
        orientation = math.prod(chain[0].orientation for chain in contour.chains)
        self.jac = (orientation / float(np.prod(np.diag(chol)))
                    * cmath.exp(1j * sum(chain[0].angle
                                         for chain in contour.chains)))

    def values(self, z):
        """The integrand at the points z (n x N) and its relative rounding:
        that of P, eps times the sum of the magnitudes of P's terms."""
        with np.errstate(over="ignore", invalid="ignore"):
            mag = np.exp(_form(*(part.real for part in self.q), z))
            im_q = _form(*(part.imag for part in self.q), z)
            val = np.empty(len(mag), dtype=complex)
            val.real = mag * np.cos(im_q)
            val.imag = mag * np.sin(im_q)
            val *= self.jac
        s = []
        for x0, row in zip(self.x0, self.L):
            sj = x0
            for lk, col in zip(row, z):
                if lk:
                    sj = sj + lk * col
            s.append(np.abs(sj))
        return val, np.finfo(float).eps * _form(*self.p_abs, s)


def _laplace_frame(spec, contour):
    """The frame of one member, with its box and resolution, or None where
    it takes the nested levels: a Hessian of -Re P that is not positive
    definite, or a grid whose budget has no room for two halvings past
    the resolution Q asks for."""
    n = len(contour.chains)
    c, g, h = _quadratic(spec.P, contour)
    # positive definite past the rounding of its entries, by the rank
    # tolerance of numpy's matrix_rank: exp(-(x - y)^2) has a zero
    # eigenvalue that rounds to +-4e-16
    hess = -h.real
    eig = np.linalg.eigvalsh(hess)
    if not eig[0] > n * np.finfo(float).eps * eig[-1]:
        return None
    frame = _Frame(contour, c, g, h, np.linalg.cholesky(hess))
    q0, slope, curv = frame.q

    # on |z| = r, Re Q <= Re Q(0) + beta r - mu r^2 / 2, with mu the least
    # eigenvalue of -Re curv and beta = |Re slope| (about 1 and 0, as
    # computed); the box [-R, R]^n holds the ball outside which that bound
    # lies below the cut at which _truncate_unbounded cuts a leg
    mu = float(np.linalg.eigvalsh(-curv.real)[0])
    if not mu > 0:
        return None
    beta = float(np.linalg.norm(slope.real))
    drop = max(q0.real - DECAY_RE_P, -_LOG_CUT)  # how far the bound falls
    r = (beta + math.sqrt(beta * beta + 2.0 * mu * drop)) / mu
    if not math.isfinite(r):
        return None
    r = float(_eight_bits(r))
    frame.lo, frame.hi = np.full(n, -r), np.full(n, r)

    # the step must resolve the largest slope of Q along each axis over
    # that ball: |dQ/dz_k| <= |slope_k| + r |curv_k|
    im = np.abs(slope.imag) + r * np.linalg.norm(curv.imag, axis=1)
    re = np.abs(slope.real) + r * np.linalg.norm(curv.real, axis=1)
    frame.need = 2.0 * r * float(
        np.maximum(im / _TRAP_ALIAS, re / _TRAP_STEEP).max())
    # the sums are accurate one halving past that resolution and agree
    # with the next one; a member whose budget does not reach that far
    # takes the nested levels before any point of its grid is evaluated
    if not 4 * frame.need <= _trapezoid_cap(_GRID_PANELS, n):
        return None
    return frame


def _grid_values(frames, tol):
    """(values, errs, floors, failures) of the members with ``frames`` on
    one tensor trapezoid in z each, in one adaptive_quadrature call; a
    member in ``failures`` needs more points than the grid's budget."""
    n = frames[0].n

    def f(x):
        node, z = x["node"], x["tau"]
        val = np.empty(len(z), dtype=complex)
        rounding = np.empty(len(z))
        # the points of each member are contiguous
        starts = [0] + (np.flatnonzero(node[1:] != node[:-1]) + 1).tolist()
        for lo, hi in zip(starts, starts[1:] + [len(z)]):
            val[lo:hi], rounding[lo:hi] = frames[node[lo]].values(
                np.ascontiguousarray(z[lo:hi].T))
        if not np.isfinite(val).all():
            raise QuadratureError(
                f"the integrand on the product of {n} lines is not finite "
                "in double precision")
        return val, rounding

    failures = {}
    values, errs, floors = adaptive_quadrature(
        f, [fr.lo for fr in frames], [fr.hi for fr in frames], tol * 0.5,
        ABS_FLOOR, max_intervals=_GRID_PANELS,
        what=f"the product of {n} lines", failures=failures,
        trapezoid=[fr.need for fr in frames])
    return values, errs, floors, failures


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
    u = getattr(first.alpha, "u", ())
    for j, (uj, chain) in enumerate(zip(u, contour.chains)):
        if uj.real <= 0 and any(end == 0 for leg in chain
                                for end in _leg_endpoints(leg)):
            raise ValueError(
                f"u[{j}] = {uj} has real part <= 0: the weight "
                f"t{j + 1}^(u{j + 1} - 1) is not integrable at the leg "
                f"endpoint t{j + 1} = 0"
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

    On a product of Lines whose integrand is exp(P) alone, each member
    with a Laplace frame goes on one tensor trapezoid; the others, and
    those whose grid runs past its budget, take the nested levels.  A
    member whose outermost integral fails, or whose result misses the
    tolerance, gets the error it raises alone, and the others run on.  Any other failure (an inner level's, a divergence, missing
    branch data) raises for the whole batch.
    """
    run = _Run(specs, contour)
    count = len(specs)
    outcome = [None] * count  # per member: value, err and roundoff floor
    nested = list(range(count))
    if _frame_applies(run):
        frames = [_laplace_frame(spec, contour) for spec in specs]
        on_grid = [k for k, frame in enumerate(frames) if frame is not None]
        if on_grid:
            values, errs, floors, failed = _grid_values(
                [frames[k] for k in on_grid], tol)
            for i, k in enumerate(on_grid):
                if i not in failed:
                    outcome[k] = values[i], float(errs[i]), float(floors[i])
            nested = [k for k in range(count) if outcome[k] is None]
            if nested:
                run = _Run([specs[k] for k in nested], contour)
    failures = {}
    if nested:
        try:
            values = _level_value(run, 0, {}, np.arange(len(nested)),
                                  tol * 0.5)
        except (QuadratureError, ValueError):
            if run.failures:  # failed first, so it is what the batch raises
                raise next(iter(run.failures.values())) from None
            raise
        for i, (k, value) in enumerate(zip(nested, values)):
            err = (float(run.outer_err[i])
                   + float(run.inner_rel[i]) * abs(value))
            outcome[k] = value, err, float(run.outer_floor[i])
        failures = {nested[i]: error for i, error in run.failures.items()}
    results = []
    misses = []
    for k, (value, err, floor) in enumerate(outcome):
        if k in failures:
            results.append(failures[k])
            continue
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
    first = next(iter(failures.values()), misses[0] if misses else None)
    return results, first


def integrate(spec, contour: ProductContour, tol: float = 1e-9):
    """Integrate exp(P) * alpha over the product contour.

    On a product of two or more Lines, with the integrand exp(P) alone
    and P of total degree at most 2 whose real part is strictly
    concave, the integral is one tensor-product trapezoid in the Laplace
    frame x = x0 + L z of the one peak of Re P, on a box and with a step
    read off the coefficients of the quadratic Q(z) = P(x0 + L z) (see
    the module docstring); its error estimate also counts the rounding of
    P, eps times the sum of the magnitudes of P's terms at each node
    weighted by |f|.  A weighted integrand, one without that frame or
    whose grid would not fit its budget, and every other one, goes
    through the iterated one-dimensional levels.

    ``spec`` is one IntegrandSpec, for which (value, err_estimate) is
    returned, or a sequence of specs that differ only in their polynomial
    coefficients (same dimension, alpha kind, u and v), for which a list
    of (value, err_estimate) pairs is returned.  The members of a
    sequence are integrated in one lockstep run per polynomial support,
    each with the result it gets alone.  Raises DivergenceError when an
    unbounded leg fails the decay check, QuadratureError when the
    integrand is not finite in double precision, AccuracyError when the
    tolerance cannot be met (for any member of a sequence), and
    ValueError for structural problems (dimension mismatches, members
    that differ in more than their coefficients, missing branch data,
    a power-product factor that vanishes at an end of a one-variable
    chain under an exponent of real part <= -1, and a weight
    t_j^(u_j - 1) with Re u_j <= 0 on a chain with a leg end at t_j = 0,
    neither of which is integrable there).

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
