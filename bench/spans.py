"""In-memory spans and counters recorded around calls into hypint.

A span holds a name, start, end, parent and the id of the operation it
belongs to; counters attach to the innermost open span.  Spans are only
recorded while an operation is open, so the harness's own reference
computations never appear.  Tracing hooks are installed from this file
(module attributes are replaced by recording wrappers); nothing under
src/ changes.  With tracing off the harness uses NULL_TRACER, whose
span() is a shared no-op context manager.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = None

    # -- recording ------------------------------------------------------
    def begin_op(self, op_id, label, kind):
        self.op_id = op_id
        span = self._open("op", label)
        span["kind"] = kind
        return span

    def end_op(self, span):
        self._close(span)
        self.op_id = None

    def _open(self, name, label=None):
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "op": self.op_id, "id": len(self.spans), "counts": {}}
        if label is not None:
            span["label"] = label
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        if self.op_id is None:
            yield None
            return
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def count(self, name, k=1):
        if self.op_id is not None and self.stack:
            counts = self.stack[-1]["counts"]
            counts[name] = counts.get(name, 0) + k

    def wrap(self, fn, name):
        """fn with a span around every call made while an op is open."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def absorb(self, child_spans, op_parent):
        """Graft spans recorded in a child process under an open span."""
        offset = len(self.spans)
        for s in child_spans:
            s = dict(s)
            s["id"] += offset
            s["parent"] = op_parent["id"] if s["parent"] is None \
                else s["parent"] + offset
            s["op"] = self.op_id
            self.spans.append(s)

    # -- analysis -------------------------------------------------------
    def self_times(self):
        covered = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) \
                    + (s["end"] - s["start"])
        return {s["id"]: (s["end"] - s["start"]) - covered.get(s["id"], 0.0)
                for s in self.spans}

    def per_op(self, name):
        """{op id: summed self time of spans called ``name``}."""
        selfs = self.self_times()
        out = {}
        for s in self.spans:
            if s["name"] == name:
                out[s["op"]] = out.get(s["op"], 0.0) + selfs[s["id"]]
        return out

    def spans_named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def count_per_op(self, name):
        """{op id: counter summed over the op's spans}."""
        out = {}
        for s in self.spans:
            if name in s["counts"]:
                out[s["op"]] = out.get(s["op"], 0) + s["counts"][name]
        return out

    def dump(self):
        return [{k: s[k] for k in ("id", "name", "label", "kind", "start",
                                   "end", "parent", "op", "counts") if k in s}
                for s in self.spans]


class _NullTracer:
    op_id = None
    _null = contextlib.nullcontext()

    def begin_op(self, op_id, label, kind):
        return None

    def end_op(self, span):
        pass

    def span(self, name):
        return self._null


NULL_TRACER = _NullTracer()


def median_or_zero(values):
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def install_hooks(tracer):
    """Record spans around integrate, count adaptive_quadrature calls and
    integrand nodes, and count CoeffFunction lookups and evaluations."""
    import hypint.quadrature as quadrature
    import hypint.verify as verify

    integrate = tracer.wrap(quadrature.integrate, "quadrature.integrate")
    quadrature.integrate = integrate
    verify.integrate = integrate

    adaptive = quadrature.adaptive_quadrature

    @functools.wraps(adaptive)
    def counted_adaptive(f, a, b, *args, **kwargs):
        tracer.count("adaptive_calls")

        def counted_f(x):
            tracer.count("nodes", len(x))
            return f(x)
        return adaptive(counted_f, a, b, *args, **kwargs)

    quadrature.adaptive_quadrature = counted_adaptive

    base = verify.CoeffFunction

    class CountedCoeffFunction(base):
        def __init__(self, variables, fn, name="f"):
            super().__init__(variables, tracer.wrap(fn, "verify.coeff_eval"),
                             name)

        def __call__(self, assignment):
            tracer.count("coeff_lookups")
            return super().__call__(assignment)

    verify.CoeffFunction = CountedCoeffFunction
