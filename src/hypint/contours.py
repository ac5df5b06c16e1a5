"""Contour legs, leg chains and product contours, and the numeric errors
of contour integration.

A leg is a ``Segment``, a ``Ray`` to infinity, an ``Arc`` or a full
rotated ``Line``; a chain is a connected sequence of legs for one
variable, and a ``ProductContour`` holds one chain per variable together
with the starting arguments of the multivalued factors.  These are plain
descriptions that need no numpy: problem files, the command line and the
finite-difference checks build and inspect them, and ``hypint.quadrature``
integrates over them.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Mapping, Sequence


class QuadratureError(Exception):
    """Base class for numeric contour-integration failures."""


class DivergenceError(QuadratureError):
    """An unbounded leg fails the decay check."""


class AccuracyError(QuadratureError):
    """The requested tolerance was not met; carries the best estimate."""

    def __init__(self, message, value, err_estimate):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


def _check_orientation(orientation):
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")


@dataclass(frozen=True)
class Segment:
    start: complex
    end: complex
    orientation: int = 1

    def __post_init__(self):
        _check_orientation(self.orientation)
        if complex(self.start) == complex(self.end):
            raise ValueError("segment endpoints must be distinct")


@dataclass(frozen=True)
class Ray:
    """From ``start`` to infinity along exp(i*angle)."""

    start: complex
    angle: float
    orientation: int = 1

    def __post_init__(self):
        _check_orientation(self.orientation)


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    angle_start: float
    angle_end: float
    orientation: int = 1

    def __post_init__(self):
        _check_orientation(self.orientation)
        if not self.radius > 0:
            raise ValueError("arc radius must be positive")
        if self.angle_start == self.angle_end:
            raise ValueError("arc must span a nonzero angle")


@dataclass(frozen=True)
class Line:
    """The full rotated line t = exp(i*angle) * x, x real."""

    angle: float
    orientation: int = 1

    def __post_init__(self):
        _check_orientation(self.orientation)


Leg = Segment | Ray | Arc | Line

_INF = object()  # marker for an endpoint at infinity


def _leg_endpoints(leg):
    """Effective (start, end) after applying the orientation."""
    if isinstance(leg, Segment):
        ends = (complex(leg.start), complex(leg.end))
    elif isinstance(leg, Ray):
        ends = (complex(leg.start), _INF)
    elif isinstance(leg, Arc):
        ends = (
            leg.center + leg.radius * cmath.exp(1j * leg.angle_start),
            leg.center + leg.radius * cmath.exp(1j * leg.angle_end),
        )
    else:
        ends = (_INF, _INF)
    return ends if leg.orientation == 1 else ends[::-1]


def _validate_chain(chain):
    if not chain:
        raise ValueError("empty contour chain")
    for leg in chain:
        if isinstance(leg, Line) and len(chain) > 1:
            raise ValueError("a full line must be the only leg of its chain")
    for a, b in zip(chain, chain[1:]):
        end = _leg_endpoints(a)[1]
        start = _leg_endpoints(b)[0]
        if end is _INF or start is _INF:
            raise ValueError("an unbounded end must terminate its chain")
        if abs(end - start) > 1e-9 * (1.0 + abs(end)):
            raise ValueError(
                f"chain is disconnected: leg ends at {end}, next starts at {start}"
            )


@dataclass(frozen=True)
class ProductContour:
    """One leg chain per variable plus starting arguments for the
    multivalued factors (keys ("t", j) and ("P", i), 1-based)."""

    chains: tuple
    branch_data: tuple = ()

    def __init__(self, chains: Sequence, branch_data: Mapping | None = None):
        chains = tuple(tuple(chain) for chain in chains)
        for chain in chains:
            _validate_chain(chain)
        items = tuple(sorted((branch_data or {}).items()))
        object.__setattr__(self, "chains", chains)
        object.__setattr__(self, "branch_data", items)

    def start_arg(self, key):
        for k, v in self.branch_data:
            if k == key:
                return float(v)
        return None
