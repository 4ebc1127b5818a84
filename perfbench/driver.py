"""The benchmark process: set-up, stage processes, checks and metrics.

`run.py` imports this module once presim imports from the checkout's src/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

import checks
import run
import tracing
import workloads
from run import HERE, NPROC, ROOT, SRC, THREAD_VARS, THREADS_PER_STAGE

WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5
MAX_ROUNDS = 3
SHORT_STAGE_S = 4.0  # within a round, a stage runs again until it has lasted this long
MAX_SHORT_REPS = 3
RUN_DEADLINE_S = 175.0
MB = 1e6

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "simulate_s": "s",
    "evaluate_s": "s",
    "pipeline_s": "s",
    "fit_rss_mb": "MB",
    "simulate_rss_mb": "MB",
    "evaluate_rss_mb": "MB",
    "ensemble_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for name, _, stat in tracing.LAYER_METRICS:
        units[name] = "count" if stat == "calls" else "s"
    for name in tracing.COUNTER_METRICS:
        units[name] = "count"
    units["whittle.bfgs_iterations"] = "count"
    units["calib_chi2_max"] = "1"
    units["delta_err_max"] = "1"
    units["trace.overhead_s"] = "s"
    return units


@dataclass
class StageRun:
    seconds: float
    rss_mb: float


class Failed(Exception):
    pass


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    """Runs stages as child processes and counts operations and failures."""

    def __init__(self, workload, run_dir: Path, deadline: float):
        self.workload = workload
        self.run_dir = run_dir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.update({v: str(THREADS_PER_STAGE) for v in THREAD_VARS})

    def _check(self, name) -> list:
        w, d = self.workload, self.run_dir
        if name == "fit":
            return checks.check_fit(d / workloads.FIT_REPORT, fitted=not w.fit_at_truth)
        if name == "simulate":
            return checks.check_ensemble(d / workloads.ENSEMBLE_DIR)
        n_times = checks.expected_counts(d / workloads.FIT_REPORT, w.target_len)
        return checks.check_metrics(d / workloads.METRICS, w.config["held_out_ids"],
                                    w.config["ensemble_count"], n_times)

    def run(self, name, trace_file=None) -> StageRun:
        """One stage process; wall time from start to exit, peak RSS from wait4."""
        cmd = [sys.executable, str(HERE / "stage.py"), "--stage", name]
        if trace_file is not None:
            cmd += ["--trace", str(trace_file)]
        cmd += ["--"] + self.workload.argv(name)
        logs = self.run_dir / "logs"
        logs.mkdir(exist_ok=True)
        self.attempted += 1
        tag = f"{name}-{self.attempted}"
        with open(logs / f"{tag}.out", "wb") as so, open(logs / f"{tag}.err", "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.run_dir, env=self.env, stdout=so, stderr=se)
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            lines = (logs / f"{tag}.err").read_text(errors="replace").strip().splitlines()
            problems = [f"exit {proc.returncode}: {lines[-1] if lines else '(no stderr)'}"]
        else:
            problems = self._check(name)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check {name}: FAIL {p}")
            raise Failed(name)
        return StageRun(seconds, usage.ru_maxrss * 1024 / MB)


def setup_inputs(workload, seed: int, work: Path, reps: int, trace: bool):
    """Generate the inputs `reps` times; returns (run dir, seconds, sha256s, set-up trace).

    With `trace`, the last set-up records the `synth.*` spans.
    """
    times, hashes, trace_dict = [], [], None
    for i in range(reps):
        d = work / f"run-{i}"
        recorder = None
        if trace and i == reps - 1:
            recorder = tracing.Recorder("setup").install(
                [w for w in tracing.WRAPPED if w[0].startswith("synth.")]
            )
        t0 = time.perf_counter()
        try:
            workloads.setup(workload, d, seed)
        finally:
            times.append(time.perf_counter() - t0)
            if recorder is not None:
                recorder.uninstall()
                trace_dict = recorder.to_dict()
        hashes.append(workloads.inputs_sha256(d))
    for i in range(1, reps):
        shutil.rmtree(work / f"run-{i}")
    return work / "run-0", times, hashes, trace_dict


def untraced(runner, seconds: float) -> dict:
    """Rounds over the stages until they have run for `seconds`, at most MAX_ROUNDS.

    Each round runs the stages in order, so the repetitions of a stage are
    spread over the whole run and its median rides out a slow spell of the
    host. A stage shorter than SHORT_STAGE_S runs up to MAX_SHORT_REPS times
    in a round, as the host's jitter is large against its work. A stage
    that alone took more than half of `seconds` runs only in the first
    round, and no round starts that would end past the deadline.
    """
    out = {name: [] for name in workloads.STAGES}
    total = 0.0
    for i in range(MAX_ROUNDS):
        t0 = time.monotonic()
        for name in workloads.STAGES:
            if i and out[name][0].seconds > seconds / 2:
                continue
            spent = 0.0
            for _ in range(MAX_SHORT_REPS):
                out[name].append(runner.run(name))
                spent += out[name][-1].seconds
                if spent >= SHORT_STAGE_S:
                    break
            total += spent
        now = time.monotonic()
        if total >= seconds or now + (now - t0) > runner.deadline:
            break
    return out


def end_to_end(run_dir, setup_times, stage_runs) -> dict:
    m = {"setup_s": statistics.median(setup_times)}
    for name, runs in stage_runs.items():
        m[f"{name}_s"] = statistics.median(r.seconds for r in runs)
        m[f"{name}_rss_mb"] = statistics.median(r.rss_mb for r in runs)
    m["pipeline_s"] = m["fit_s"] + m["simulate_s"] + m["evaluate_s"]
    m["ensemble_mb"] = checks.dir_bytes(run_dir / workloads.ENSEMBLE_DIR) / MB
    return {k: m[k] for k in END_TO_END_UNITS}


def per_layer(workload, run_dir, runner, setup_trace) -> dict:
    """Per-layer metrics from one untraced and one traced pass over the stages."""
    plain = sum(runner.run(name).seconds for name in workloads.STAGES)
    traces, traced = [setup_trace], 0.0
    for name in workloads.STAGES:
        path = run_dir / f"trace-{name}.json"
        traced += runner.run(name, trace_file=path).seconds
        traces.append(json.loads(path.read_text()))
    absent = sorted({a for t in traces for a in t["absent"]})
    if absent:
        print("absent (not in this version of presim, reported as 0): " + ", ".join(absent))
    m = tracing.layer_metrics(traces)
    report = json.loads((run_dir / workloads.FIT_REPORT).read_text())
    m["whittle.bfgs_iterations"] = int(report["fit"]["convergence"].get("iterations", 0))
    m["calib_chi2_max"] = max(checks.chi_squares(run_dir / workloads.METRICS).values())
    m["delta_err_max"] = float(
        checks.delta_errors(run_dir / workloads.FIT_REPORT,
                            run_dir / "synthetic" / "truth.json").max()
    )
    m["trace.overhead_s"] = traced - plain
    return m


def print_quality(workload, run_dir):
    """Known-defect figures and fingerprints, printed as measured and never gated."""
    for key, chi2 in checks.chi_squares(run_dir / workloads.METRICS).items():
        verdict = "PASS" if chi2 <= checks.CHI2_99_POINT else "FAIL"
        print(f"calibration {key}: chi2 = {chi2:.1f} vs 99% point {checks.CHI2_99_POINT} {verdict}")
    if not workload.fit_at_truth:
        err = checks.delta_errors(run_dir / workloads.FIT_REPORT, run_dir / "synthetic" / "truth.json")
        verdict = "PASS" if err.max() < checks.DELTA_ERR_LIMIT else "FAIL"
        print(f"recovery |delta| relative error max = {err.max():.4f} vs {checks.DELTA_ERR_LIMIT} "
              f"{verdict} (probes omega0/16..omega0/2: {', '.join(f'{e:.4f}' for e in err)})")
    fp = checks.fingerprint(run_dir / workloads.FIT_REPORT, run_dir / workloads.METRICS)
    for key, digest in fp.items():
        print(f"fingerprint {key} = {digest}")


def print_environment():
    print(f"environment: nproc={NPROC} threads_per_stage={THREADS_PER_STAGE} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} commit={git_commit()}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=run.__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.monotonic()
    workload = workloads.WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workload.why}")
    print_environment()

    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    metrics, attempted, failed = {}, 0, 0
    try:
        run_dir, setup_times, hashes, setup_trace = setup_inputs(
            workload, args.seed, work, SETUP_REPS, bool(args.trace))
        attempted += SETUP_REPS
        print(f"fingerprint inputs_sha256 = {hashes[0]}")
        if len(set(hashes)) != 1:
            failed += 1
            print("check setup: FAIL repeated set-ups wrote different inputs")
            raise Failed("setup")
        runner = Runner(workload, run_dir, start + RUN_DEADLINE_S)
        try:
            if args.trace:
                metrics = per_layer(workload, run_dir, runner, setup_trace)
            else:
                stage_runs = untraced(runner, args.seconds)
                metrics = end_to_end(run_dir, setup_times, stage_runs)
                print("set-up: seconds " + ", ".join(f"{t:.3f}" for t in setup_times))
                for name, runs in stage_runs.items():
                    print(f"stage {name}: {len(runs)} run(s), seconds "
                          + ", ".join(f"{r.seconds:.3f}" for r in runs))
        finally:
            attempted += runner.attempted
            failed += runner.failed
        print("checks: PASS (fit report, ensemble directory, metrics.json)")
        print_quality(workload, run_dir)
    except Failed:
        pass
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1
