"""One `adaptpw` CLI invocation as a benchmark child process.

    python3 perfbench/child.py --marks FILE [--spans FILE --run-id ID] -- run CONFIG ...

Runs `adaptpw.cli.main` on the arguments after `--` and returns its exit
code. It writes to `--marks` the CLOCK_MONOTONIC time at which the
potential was built and verified, which the parent turns into setup time.
With `--spans` it first installs the tracer and writes the recorded spans
there when the run ends.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts = dict(zip(argv[:sep:2], argv[1:sep:2]))
    cli_args = argv[sep + 1 :]

    from adaptpw import cli

    tracer = None
    if "--spans" in opts:
        import spans

        tracer = spans.Tracer(opts["--run-id"])
        spans.install(tracer)

    marks = {}
    build = cli.build_potential

    def build_potential(*args, **kwargs):
        result = build(*args, **kwargs)
        marks["setup_done"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        return result

    cli.build_potential = build_potential
    code = cli.main(cli_args)
    with open(opts["--marks"], "w") as fh:
        json.dump(marks, fh)
    if tracer is not None:
        tracer.dump(opts["--spans"])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
