"""The benchmark's workloads: their generated inputs and their stages.

Both workloads draw the same synthetic realization of the 13-station
network, at data seed 11, the ROADMAP north-star run. The run's `--seed`
becomes the pipeline seed in the config (parameter draws, ensemble draws,
mean-field draws, rank-tie randomization) and, on `resim-1min`, places the
gaps in the 1-minute record. The realization itself stays fixed because
the fit's BFGS iteration count and the calibration chi-square depend on it
far more than on the pipeline seed: across data seeds 11-13 at T = 2880
the fit took 152, 180 and 169 iterations and the largest chi-square was
340, 567 and 244, which no run-to-run bound could hold.
"""

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from presim import condsim, synth
from presim.config import RunConfig
from presim.geometry import SiteGeometry
from presim.ingest import load_stations
from presim.preprocess import TransformStack
from presim.spectrum import KnotSet, SpectralModel, SpectralParams
from presim.whittle import FitResult

DATA_SEED = 11
# 10 days of 5-minute differences, a third of the north-star month
# (T = 8640): at full length one `month` run takes about 125 s, and a
# comparison of two commits (about fifty runs) would not fit in an hour.
TARGET_LEN = 2880
CONFIG = "config.yaml"
FIT_REPORT = "out/fit_report.json"
ENSEMBLE_DIR = "out/ensemble"
METRICS = "out/metrics.json"
STAGES = ("fit", "simulate", "evaluate")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # RunConfig fields; paths and seed are added per run
    minute_input: bool  # write 1-minute observations whose 5-minute means are the series
    fit_at_truth: bool  # the fit stage writes the report at the synthetic truth

    @property
    def target_len(self) -> int:
        return self.config["target_len"]

    def argv(self, stage: str) -> list:
        """Arguments of stage.py for one of STAGES."""
        if stage == "fit":
            if self.fit_at_truth:
                return ["--fit-at-truth", CONFIG, FIT_REPORT]
            return ["--config", CONFIG, "fit"]
        if stage == "simulate":
            return ["--config", CONFIG, "simulate", "--fit-report", FIT_REPORT]
        return ["--config", CONFIG, "evaluate", "--fit-report", FIT_REPORT,
                "--ensemble-dir", ENSEMBLE_DIR]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="month",
            why="fit, simulate with 99 parameter draws, evaluate: the fit and the "
                "per-draw sampler builds dominate",
            config={
                "block": 1,
                "target_len": TARGET_LEN,
                "held_out_ids": ["E12", "E13"],
                "ensemble_count": 99,
                "vary_params": True,
            },
            minute_input=False,
            fit_at_truth=False,
        ),
        Workload(
            name="resim-1min",
            why="simulate and evaluate from a fit at the truth on 1-minute input: "
                "ingest and ensemble I/O dominate, no likelihood work",
            config={
                "block": 5,
                "target_len": TARGET_LEN,
                "held_out_ids": ["E10", "E11", "E12", "E13"],
                "ensemble_count": 99,
                "vary_params": False,
            },
            minute_input=True,
            fit_at_truth=True,
        ),
    )
}


def _minute_series(pressure: np.ndarray, block: int, max_gap: int, seed: int) -> np.ndarray:
    """1-minute values whose block means are `pressure`, with short gaps.

    Inside each block the values follow the local slope of the 5-minute
    series around the block mean, so the block mean is exact. Gaps of 1 to
    max_gap // 2 values, one per 40 minutes at most, are blanked at
    positions drawn from `seed`; the gap filler must interpolate them.
    """
    n, n_blocks = pressure.shape
    slope = np.gradient(pressure, axis=1) / block
    offsets = np.arange(block) - (block - 1) / 2.0
    values = (pressure[:, :, None] + slope[:, :, None] * offsets).reshape(n, n_blocks * block)
    rng = np.random.default_rng([seed, DATA_SEED])
    spacing = 40
    slots = values.shape[1] // spacing - 2
    for i in range(n):
        starts = spacing * (1 + rng.choice(slots, size=slots // 25, replace=False))
        lengths = rng.integers(1, max_gap // 2 + 1, size=len(starts))
        for s, k in zip(starts, lengths):
            values[i, s : s + k] = np.nan
    return values


def setup(workload: Workload, run_dir: Path, seed: int) -> None:
    """Write the workload's inputs (station and observation CSVs, truth, config)."""
    config = dict(
        workload.config,
        stations_path="synthetic/stations.csv",
        observations_path="synthetic/observations.csv",
        output_dir="out",
        seed=seed,
    )
    cfg = RunConfig(**config)
    model = SpectralModel(cfg.knots())
    stations = synth.default_stations()
    stack = synth.default_stack(cfg.target_len, [s.elevation for s in stations], seed=DATA_SEED)
    truth = synth.generate(model, synth.default_true_params(model), stations, stack,
                           cfg.target_len, DATA_SEED)
    step = 300.0
    if workload.minute_input:
        truth = replace(truth, pressure=_minute_series(truth.pressure, cfg.block, cfg.max_gap, seed))
        step = 300.0 / cfg.block
    run_dir.mkdir(parents=True, exist_ok=True)
    synth.write_dataset(truth, run_dir / "synthetic", step_seconds=step)
    (run_dir / CONFIG).write_text(yaml.safe_dump(config, sort_keys=True))


def input_files(run_dir: Path):
    return [run_dir / CONFIG] + sorted((run_dir / "synthetic").iterdir())


def inputs_sha256(run_dir: Path) -> str:
    h = hashlib.sha256()
    for path in input_files(run_dir):
        h.update(path.relative_to(run_dir).as_posix().encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def write_fit_at_truth(config_path, out_path) -> Path:
    """Fit report at the synthetic truth, in the layout `presim fit` writes.

    True parameters and the true transform stack restricted to the
    observed sites: an estimated stack has other scales than the true
    parameters expect. No likelihood is evaluated, so `loglik` and the
    Hessian are NaN; with `vary_params: false` simulate reads neither.
    """
    cfg = RunConfig.from_yaml(config_path)
    truth = json.loads((Path(cfg.stations_path).parent / "truth.json").read_text())
    model = SpectralModel(KnotSet.from_dict(truth["knots"]))
    held = set(cfg.held_out_ids)
    stations = [s for s in load_stations(cfg.stations_path) if s.id not in held]
    full = TransformStack.from_dict(truth["stack"])
    keep = [i for i, sid in enumerate(full.station_ids) if sid not in held]
    stack = replace(
        full,
        site_means=full.site_means[keep],
        station_ids=[full.station_ids[i] for i in keep],
    )
    fit = FitResult(
        params_hat=SpectralParams.from_dict(truth["params"]),
        loglik=float("nan"),
        hessian=np.full((model.n_params, model.n_params), np.nan),
        convergence={"status": "truth", "iterations": 0, "grad_inf_norm": float("nan"),
                     "message": "synthetic truth; no likelihood evaluated"},
        knots=model.knots,
    )
    geometry = SiteGeometry(np.array([s.latitude for s in stations]),
                            np.array([s.longitude for s in stations]))
    report = {
        "stack": stack.to_dict(),
        "fit": fit.to_dict(),
        "n_params": model.n_params,
        "basis_dimensions": model.dimensions,
        "geometry_hash": condsim.geometry_hash(geometry),
        "station_ids": [s.id for s in stations],
        "start_time": truth["start"],
        "step_seconds": truth["step_seconds"] * cfg.block,
    }
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True))
    return out_path
