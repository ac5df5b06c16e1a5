"""Quick self-test of the benchmark: `python3 bench/selftest.py` from the
root of a checkout.

For each workload it runs one round with tracing on and checks that
  - every operation passes its checks, except the named known fault;
  - the traced run yields the per-layer metrics of the layers it works;
  - a deliberately wrong reference value makes the operation it belongs
    to fail, as an unexpected failure.
Prints one line per workload and exits 1 if anything is off.
"""

from __future__ import annotations

import os
import sys

# per-layer metrics that must be nonzero after one traced round
LAYERS = {
    "cli": ["problem_io.load_s", "cli.system_s", "cli.series_s", "cli.eval_s",
            "cli.verify_s"],
    "compute": ["lattice.kernel_basis_s", "lattice.enumerate_bases_s",
                "series.gg_series_s", "series.evaluate_s", "series.terms",
                "series.den_bits_max", "operators.apply_s",
                "operators.apply_calls"]
               + [f"quadrature.{kind}.{name}" for kind in ("eval", "verify")
                  for name in ("integrate_s", "integrate_calls",
                               "adaptive_calls", "nodes")]
               + ["verify.check_s", "verify.coeff_lookups",
                  "verify.coeff_evals", "verify.residuals"],
}


def corrupt(wl, workloads):
    """Make one reference value of each request type wrong by a relative
    1e-6; return the labels of the operations that must now fail."""
    if wl.name == "cli":
        wl.closed["gaussian"] *= 1 + 1e-6
        return ["eval:gaussian"]
    labels = []
    for part in wl.parts:
        if isinstance(part, workloads.QuadOps):
            part.refs[0] *= 1 + 1e-6
        elif isinstance(part, workloads.SeriesOps):
            own_terms, refs = part.own[0]
            (value, scale), *rest = refs
            part.own[0] = (own_terms, [(value + 1e-6 * scale, scale), *rest])
        else:
            index = next(i for i, c in enumerate(part.cases)
                         if not c.get("known_fault"))
            part.cases[index]["ref"] *= 1 + 1e-6
            labels.append(part.ops()[index].label)
            continue
        labels.append(part.ops()[0].label)
    return labels


def check_workload(root, name, tracer, workloads, run, spans):
    tracer.spans.clear()
    wl = workloads.WORKLOADS[name](root, 1, tracer)
    problems = []
    try:
        wl.prepare()
        ops = wl.round()
        for i, op in enumerate(ops):
            _, message = run.run_op(op, tracer, i)
            if bool(message) != op.known_fault:
                problems.append(f"{op.label}: {message or 'known fault passed'}")
        metrics = run.layer_metrics(tracer, [])
        problems += [f"{m} is 0 after a traced round" for m in LAYERS[name]
                     if not metrics[m]["value"]]
        for label in corrupt(wl, workloads):
            op = next(o for o in wl.round() if o.label == label)
            _, message = run.run_op(op, spans.NULL_TRACER, 0)
            if not message:
                problems.append(f"{label}: a wrong reference was not caught")
    finally:
        wl.close()
    known = sum(op.known_fault for op in ops)
    print(f"selftest {name}: {len(ops)} operations, {known} known fault, "
          f"{'ok' if not problems else 'FAILED'}")
    for p in problems:
        print(f"  {p}")
    return not problems


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hypint", "__init__.py")):
        print("selftest: run from the root of a hypint checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import run
    import spans
    import workloads
    tracer = spans.Tracer()
    spans.install_hooks(tracer)
    ok = True
    for name in workloads.WORKLOADS:
        ok &= check_workload(root, name, tracer, workloads, run, spans)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
