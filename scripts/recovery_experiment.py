#!/usr/bin/env python3
"""Parameter-recovery experiment on a synthetic network.

For each data seed, simulates one month of 5-minute data at 11 stations
from known spectral parameters, refits by frequency-domain maximum
likelihood, and prints one row of relative errors of the marginal
spectrum S and the coherence range |delta| at probe frequencies. The last
row holds the medians over the seeds, the statistic acceptance #7 bounds.
"""

import argparse
import sys

import numpy as np

from presim import synth
from presim.geometry import SiteGeometry
from presim.spectrum import KnotSet, SpectralModel
from presim.whittle import WhittleObjective, fit_mle, forward_dft, initial_params


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[11], help="data seeds")
    ap.add_argument("--stations", type=int, default=11)
    ap.add_argument("--target-len", type=int, default=8640)
    args = ap.parse_args(argv)

    T = args.target_len
    model = SpectralModel(KnotSet.default())
    true_params = synth.default_true_params(model)
    stations = synth.default_stations()[: args.stations]
    geo = SiteGeometry.of(stations)
    om0 = model.knots.omega0
    probes = np.array([om0 / 8, om0 / 2, 2 * om0, np.pi / 2])
    dgrid = np.array([om0 / 16, om0 / 8, om0 / 4, om0 / 2])

    print("S errors at om0/8, om0/2, 2 om0, pi/2; |delta| errors at om0/16, om0/8, "
          "om0/4, om0/2; each group's maximum; trust-region iterations")
    print("seed   " + " ".join(f"S{i}   " for i in range(4)) + " S_max "
          + " ".join(f"d{i}   " for i in range(4)) + " d_max  iters", flush=True)
    rows = []
    for seed in args.seeds:
        stack = synth.default_stack(T, [s.elevation for s in stations], seed=seed)
        truth = synth.generate(model, true_params, stations, stack, T, seed=seed)
        obj = WhittleObjective(model, forward_dft(truth.adjusted), geo)
        fit = fit_mle(obj, initial_params(obj))
        err_S = np.abs(model.eval_S(fit.params_hat, probes) / model.eval_S(true_params, probes)
                       - 1)
        err_d = np.abs(np.abs(model.eval_delta(fit.params_hat, dgrid))
                       / np.abs(model.eval_delta(true_params, dgrid)) - 1)
        rows.append(np.concatenate([err_S, [err_S.max()], err_d, [err_d.max()]]))
        print(f"{seed:<6d} " + " ".join(f"{v:.3f}" for v in rows[-1])
              + f"  {fit.convergence['iterations']}", flush=True)
    print("median " + " ".join(f"{v:.3f}" for v in np.median(rows, axis=0)))
    return 0


if __name__ == "__main__":
    sys.exit(run())
