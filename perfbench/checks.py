"""Output checks, fingerprints and quality figures of a run's artifacts.

Artifacts are read only through `fit_report.json`, `metrics.json` and the
size of the ensemble directory, never through the member-file layout, so
the checks hold when the ensemble format changes.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from presim.spectrum import KnotSet, SpectralModel, SpectralParams
from presim.verify import aggregate_diffs, top_volatility_selector

N_PARAMS = 28
CHI2_99_POINT = 134.6  # 99% point of chi-square with 99 degrees of freedom
DELTA_ERR_LIMIT = 0.25  # acceptance #7 bound on the |delta| relative error


def check_fit(report_path, fitted: bool) -> list:
    """Problems with a fit report; an empty list means it passed."""
    report = json.loads(Path(report_path).read_text())
    params = SpectralParams.from_dict(report["fit"]["params"])
    problems = []
    if report["n_params"] != N_PARAMS or len(params.pack()) != N_PARAMS:
        problems.append(f"fit report has {len(params.pack())} parameters, expected {N_PARAMS}")
    if fitted and not math.isfinite(report["fit"]["loglik"]):
        problems.append("fit report log-likelihood is not finite")
    return problems


def dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def check_ensemble(ensemble_dir) -> list:
    path = Path(ensemble_dir)
    if not path.is_dir() or dir_bytes(path) == 0:
        return [f"ensemble directory {path} is missing or empty"]
    return []


def expected_counts(report_path, target_len: int) -> dict:
    """Number of ranked times in each histogram `presim evaluate` writes."""
    report = json.loads(Path(report_path).read_text())
    width = max(1, int(round(3600.0 / report["step_seconds"])))
    return {
        "all": target_len,
        "hourly": len(aggregate_diffs(np.zeros(target_len + 1), width)),
        "top_decile_volatility": int(
            top_volatility_selector(report["stack"]["volatility"]["values"]).sum()
        ),
    }


def check_metrics(metrics_path, held_out, members: int, n_times: dict) -> list:
    metrics = json.loads(Path(metrics_path).read_text())
    problems = []
    if metrics.get("n_members") != members:
        problems.append(f"metrics report {metrics.get('n_members')} members, expected {members}")
    for tid in held_out:
        hists = metrics.get("targets", {}).get(tid, {}).get("rank_histograms", {})
        if set(hists) != set(n_times):
            problems.append(f"{tid}: histograms {sorted(hists)}, expected {sorted(n_times)}")
            continue
        for label, h in hists.items():
            if len(h["counts"]) != members + 1 or sum(h["counts"]) != n_times[label]:
                problems.append(
                    f"{tid}/{label}: {len(h['counts'])} bins summing to {sum(h['counts'])}, "
                    f"expected {members + 1} bins summing to {n_times[label]}"
                )
    rows = metrics.get("score_table", [])
    if not rows:
        problems.append("score table is empty")
    for row in rows:
        if not all(math.isfinite(row[k]) for k in ("mean_error", "error_sd", "rmse")):
            problems.append(f"score row {row['target']}/{row['method']} is not finite")
    return problems


def chi_squares(metrics_path) -> dict:
    """{"target/histogram": chi-square} from metrics.json."""
    metrics = json.loads(Path(metrics_path).read_text())
    return {
        f"{tid}/{label}": h["chi_square"]
        for tid, t in sorted(metrics["targets"].items())
        for label, h in sorted(t["rank_histograms"].items())
    }


def delta_errors(report_path, truth_path) -> np.ndarray:
    """Relative error of fitted |delta| against truth at omega0/16 ... omega0/2."""
    report = json.loads(Path(report_path).read_text())
    truth = json.loads(Path(truth_path).read_text())
    model = SpectralModel(KnotSet.from_dict(report["fit"]["knots"]))
    om0 = model.knots.omega0
    probes = np.array([om0 / 16, om0 / 8, om0 / 4, om0 / 2])
    fitted = np.abs(model.eval_delta(SpectralParams.from_dict(report["fit"]["params"]), probes))
    true = np.abs(model.eval_delta(SpectralParams.from_dict(truth["params"]), probes))
    return np.abs(fitted / true - 1.0)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def fingerprint(report_path, metrics_path) -> dict:
    """Hashes of the fixed-seed outputs: fitted parameters, histogram counts, scores."""
    report = json.loads(Path(report_path).read_text())
    metrics = json.loads(Path(metrics_path).read_text())
    counts = {
        tid: {label: h["counts"] for label, h in t["rank_histograms"].items()}
        for tid, t in metrics["targets"].items()
    }
    return {
        "fit_params": _digest(report["fit"]["params"]),
        "rank_counts": _digest(counts),
        "score_table": _digest(metrics["score_table"]),
    }
