"""Reference values computed without hypint.

Closed forms in mpmath (or numpy for the 2-D Gaussian), and an
independent sum of the Gamma-product series from the benchmark's own
exact solve.  Plain mpmath.quad is not used for endpoint-singular
weights: it returns 9.3919 for Gamma(0.1) = 9.5135.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 30


def gaussian_line(c1, c2) -> complex:
    """Integral over the real line of exp(c1 t + c2 t^2), Re c2 < 0."""
    c1, c2 = mp.mpc(c1), mp.mpc(c2)
    return complex(mp.sqrt(mp.pi / -c2) * mp.exp(-c1 * c1 / (4 * c2)))


def gamma_ray(c1, u) -> complex:
    """Integral over the positive ray of exp(c1 t) t^(u-1), Re c1 < 0."""
    c1, u = mp.mpc(c1), mp.mpc(u)
    return complex(mp.gamma(u) * mp.exp(-u * mp.log(-c1)))


def power_segment(a0, a1, v, u) -> complex:
    """Integral over [0, 1] of (a0 + a1 t)^v t^(u-1), a0 > 0, |a1| < a0."""
    a0, a1, v, u = mp.mpf(a0), mp.mpf(a1), mp.mpf(v), mp.mpf(u)
    return complex(a0 ** v / u * mp.hyp2f1(-v, u, u + 1, -a1 / a0))


def gaussian_plane(A, b) -> complex:
    """Integral over R^2 of exp(-x^T A x + b^T x), A positive definite."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=complex)
    return complex(math.pi / math.sqrt(np.linalg.det(A))
                   * np.exp(b @ np.linalg.solve(A, b) / 4))


def gamma_series_sums(terms, base_exps, series_exps, points):
    """Sums of prod_j Gamma(s_j)(-a_j)^(-s_j) * prod_w a_w^m_w / m!.

    ``terms`` is a list of (m, s) with s a tuple of (re, im) Fraction
    pairs; each point maps exponent tuples to complex values.  Returns one
    (sum, sum of term magnitudes) pair per point; the magnitude sum is the
    scale a comparison is relative to.
    """
    def exact(re, im):
        return mp.mpc(mp.mpf(re.numerator) / re.denominator,
                      mp.mpf(im.numerator) / im.denominator)

    prepared = []
    for m, s in terms:
        args = [exact(re, im) for re, im in s]
        gammas = mp.fprod(mp.gamma(a) for a in args)
        weight = mp.mpf(1) / mp.fprod(math.factorial(mw) for mw in m)
        prepared.append((m, args, gammas * weight))
    out = []
    for point in points:
        base_logs = [mp.log(-mp.mpc(point[w])) for w in base_exps]
        series_vals = [mp.mpc(point[w]) for w in series_exps]
        total = mp.mpc(0)
        scale = mp.mpf(0)
        for m, args, coeff in prepared:
            value = coeff
            for mw, a in zip(m, series_vals):
                value = value * a ** mw
            for sj, log_a in zip(args, base_logs):
                value = value * mp.exp(-sj * log_a)
            total += value
            scale += abs(value)
        out.append((complex(total), float(scale)))
    return out
