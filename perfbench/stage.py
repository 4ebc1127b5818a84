"""Run one pipeline stage in this process, optionally recording spans.

    stage.py [--trace FILE] --stage NAME -- <presim argv>
    stage.py [--trace FILE] --stage NAME -- --fit-at-truth CONFIG OUT

The first form calls `presim.cli.main` with the argv. The second writes a
fit report at the synthetic truth (see `workloads.write_fit_at_truth`).
With --trace, the spans of this process are written to FILE on exit.
"""

import argparse
import sys

import presim.cli

import tracing
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--stage", required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("rest", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest
    recorder = tracing.Recorder(args.stage).install() if args.trace else None
    try:
        if rest[:1] == ["--fit-at-truth"]:
            workloads.write_fit_at_truth(*rest[1:])
            code = 0
        else:
            code = presim.cli.main(rest)
    finally:
        if recorder is not None:
            recorder.dump(args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
