#!/usr/bin/env python3
"""End-to-end demo on synthetic data: synth -> fit -> simulate -> evaluate.

Generates a 13-station synthetic network, fits the spectral model on 11
stations, builds a conditional-simulation ensemble at the 2 held-out
sites, and writes verification metrics. Everything is driven through the
same entry point as the installed `presim` command.
"""

import argparse
import json
import sys
from pathlib import Path

import yaml

from presim.cli import main as presim


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/synthetic_demo", help="output directory")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--target-len", type=int, default=2880,
                    help="number of 5-minute differences (8640 = one month)")
    ap.add_argument("--members", type=int, default=99)
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = {
        "stations_path": str(out / "synthetic" / "stations.csv"),
        "observations_path": str(out / "synthetic" / "observations.csv"),
        "output_dir": str(out),
        "block": 1,
        "target_len": args.target_len,
        "ensemble_count": args.members,
        "held_out_ids": ["E12", "E13"],
        "seed": args.seed,
    }
    cfg = out / "config.yaml"
    cfg.write_text(yaml.safe_dump(config))

    for step in (
        ["--config", str(cfg), "synth"],
        ["--config", str(cfg), "fit"],
        ["--config", str(cfg), "simulate", "--fit-report", str(out / "fit_report.json")],
        ["--config", str(cfg), "evaluate", "--fit-report", str(out / "fit_report.json"),
         "--ensemble-dir", str(out / "ensemble")],
    ):
        print(f"$ presim {' '.join(step)}")
        code = presim(step)
        if code != 0:
            return code

    metrics = json.loads((out / "metrics.json").read_text())
    print(f"\nrank-histogram chi-square and coverage rank (of {args.members + 1}; "
          f"high: ensemble too wide, low: too narrow)")
    for tid, t in metrics["targets"].items():
        for label, v in [("levels", t["levels"]), *t["rank_histograms"].items()]:
            print(f"  {tid} {label:>24}: {v['chi_square']:8.1f}  {v['coverage_rank']:4d}")
    print("\nRMSE (kPa)")
    for row in metrics["score_table"]:
        print(f"  {row['target']} {row['method']:>18}: {row['rmse']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
