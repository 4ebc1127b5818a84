#!/usr/bin/env python3
"""Stage-level benchmark of the presim pipeline.

    python3 perfbench/run.py --workload month --seed 1 --seconds 40 --trace 0

Generates the workload's inputs from the seed (several times; the median is
`setup_s`), then runs its stages one at a time, each in its own child
process (`stage.py`), and checks every artifact. Untraced (`--trace 0`),
the stages run in rounds until they have run for `--seconds` (at most 3
rounds) and the end-to-end metrics are medians. Traced (`--trace 1`), the
stages run once untraced and once with per-layer spans, and the per-layer
metrics come from the spans.

Prints every metric with its unit, the output-check verdicts, the known
calibration and recovery figures, fingerprints and the environment. The
last line is one JSON object: correct, attempted, failed, metrics. Exits
with 2, printing no result, when presim does not import from src/ of this
checkout.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread per process: the stages' matrices are small, and a second
# thread spinning on a shared 2-core host measures the scheduler.
THREADS_PER_STAGE = 1


def import_program():
    """Import presim from this checkout's src/, or say why it cannot be."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import presim
    except ImportError as exc:
        return f"cannot import presim from {SRC}: {exc}"
    if Path(presim.__file__).resolve().parent.parent != SRC.resolve():
        return f"presim was imported from {presim.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS_PER_STAGE)  # before numpy loads a BLAS
    problem = import_program()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import driver

    return driver.main(argv)


if __name__ == "__main__":
    sys.exit(main())
