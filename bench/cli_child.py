"""One traced CLI operation: `python bench/cli_child.py CMD PROBLEM`.

Does what `python -m hypint CMD PROBLEM` does, with spans around
hypint.cli.main and the problem loader.  The spans go to stderr as the
last line, after the marker "BENCH_SPANS ", for the parent to collect.
"""

import json
import sys

from spans import Tracer


def main():
    tracer = Tracer()
    tracer.op_id = 0
    import hypint.cli as cli
    cli.load_problem = tracer.wrap(cli.load_problem, "problem_io.load")
    command = sys.argv[1]
    with tracer.span(f"cli.{command}"):
        rc = cli.main(sys.argv[1:])
    sys.stdout.flush()
    print("BENCH_SPANS " + json.dumps(tracer.dump()), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
