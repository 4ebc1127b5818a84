#!/usr/bin/env python3
"""Calibration experiment: rank-histogram uniformity at held-out sites.

Repeatedly draws a synthetic truth over the full 13-station network,
conditions on 11 stations using the true parameters, and checks whether
the truth's rank among 99 conditional members is uniform (chi-square
below the 0.99 quantile), for both 5-minute and hourly differences.
"""

import argparse
import sys
import time

import numpy as np
from scipy.stats import chi2

from presim import synth, verify
from presim.condsim import ConditionalSampler, PredictionSetup
from presim.geometry import SiteGeometry
from presim.rng import STAGE_SYNTH
from presim.spectrum import KnotSet, SpectralModel
from presim.whittle import SpectralField, forward_dft, inverse_dft


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--members", type=int, default=99)
    ap.add_argument("--target-len", type=int, default=8640)
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args(argv)

    model = SpectralModel(KnotSet.default())
    params = synth.default_true_params(model)
    stations = synth.default_stations()
    lats = np.array([s.latitude for s in stations])
    lons = np.array([s.longitude for s in stations])
    setup = PredictionSetup(
        observed=SiteGeometry(lats[:11], lons[:11]),
        target_lats=lats[11:], target_lons=lons[11:],
        target_elevations=np.array([s.elevation for s in stations[11:]]),
    )
    # the full network, conditioned on zero sites
    full_setup = PredictionSetup(
        observed=SiteGeometry(np.array([]), np.array([])),
        target_lats=lats, target_lons=lons,
        target_elevations=np.array([s.elevation for s in stations]),
    )
    full = ConditionalSampler(model, params, full_setup,
                              SpectralField(np.zeros((args.target_len, 0))))
    q99 = chi2.ppf(0.99, args.members)

    t0 = time.monotonic()
    pass_diff = pass_hourly = 0
    for rep in range(args.reps):
        seed = args.seed + rep
        A = inverse_dft(full.draw(seed, 0, stage=STAGE_SYNTH))
        sampler = ConditionalSampler(model, params, setup, forward_dft(A[:11]))
        members = np.stack(
            [inverse_dft(sampler.draw(seed, k)) for k in range(args.members)]
        )
        ok_diff = ok_hourly = True
        for i in range(len(setup.target_lats)):
            h = verify.rank_histogram(
                np.diff(A[11 + i]), np.diff(members[:, i, :], axis=1), seed=seed
            )
            ok_diff &= h.chi_square() < q99
            hh = verify.rank_histogram(
                verify.aggregate_diffs(A[11 + i], 12),
                np.array([verify.aggregate_diffs(p, 12) for p in members[:, i, :]]),
                selector_label="hourly", seed=seed,
            )
            ok_hourly &= hh.chi_square() < q99
        pass_diff += ok_diff
        pass_hourly += ok_hourly
        print(f"rep {rep:2d}: 5-min {'ok' if ok_diff else 'MISS'}, "
              f"hourly {'ok' if ok_hourly else 'MISS'} "
              f"({time.monotonic() - t0:.0f} s)", flush=True)
    print(f"\npassed: 5-min {pass_diff}/{args.reps}, hourly {pass_hourly}/{args.reps}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
