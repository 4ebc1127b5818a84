"""Per-frequency conditional simulation of the adjusted field at new sites.

At each one-sided Fourier frequency the joint cross-spectral matrix over
(observed + prediction) sites is partitioned and the prediction-site DFT
coefficients are drawn from the conditional (circularly symmetric)
complex normal; the real-coefficient frequencies (0 and Nyquist) use the
real-normal analog. Beyond the coherence cutoff the prediction sites are
independent of the observations and are drawn unconditionally from the
diagonal model. Negative frequencies are filled by conjugate symmetry so
the inverse DFT is real. With zero observed sites every draw is
unconditional, which is how synthetic truths are drawn.
"""

import csv
import hashlib
import json
import warnings
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .geometry import SiteGeometry, combine
from .preprocess import TransformStack, difference, invert_stack
from .rng import STAGE_CONDSIM, STAGE_CONDSIM_HIGH, substream
from .spectrum import SpectralModel, SpectralParams
from .whittle import (
    TWO_PI,
    FitResult,
    FrequencyPlan,
    SpectralField,
    inverse_dft,
    sample_params,
)

RIDGE_REL = 1e-10


@dataclass(frozen=True)
class PredictionSetup:
    """Observed network plus target prediction sites."""

    observed: SiteGeometry
    target_lats: np.ndarray
    target_lons: np.ndarray
    target_elevations: np.ndarray
    target_ids: tuple = ()

    def __post_init__(self):
        for name in ("target_lats", "target_lons", "target_elevations"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        if not (len(self.target_lats) == len(self.target_lons) == len(self.target_elevations)):
            raise ValidationError("target coordinate arrays must have equal length")
        if not self.target_ids:
            object.__setattr__(
                self, "target_ids", tuple(f"target{i}" for i in range(len(self.target_lats)))
            )
        for i, (la, lo) in enumerate(zip(self.target_lats, self.target_lons)):
            same = (np.abs(self.observed.lats - la) < 1e-12) & (
                np.abs(self.observed.lons - lo) < 1e-12
            )
            if same.any():
                warnings.warn(
                    f"target {self.target_ids[i]} coincides with an observed site; "
                    "the simulation will reproduce that observation"
                )

    @property
    def n_observed(self) -> int:
        return self.observed.n_sites

    @property
    def n_targets(self) -> int:
        return len(self.target_lats)

    @property
    def targets(self) -> SiteGeometry:
        return SiteGeometry(self.target_lats, self.target_lons)

    @property
    def combined(self) -> SiteGeometry:
        return combine(self.observed, self.targets)


class ConditionalSampler:
    """Precomputed per-frequency conditional laws for one parameter vector.

    With zero observed sites (an empty observed geometry and a (T, 0)
    observed field) the conditional laws are the unconditional ones, so
    the same sampler draws synthetic truths.
    """

    def __init__(self, model: SpectralModel, params: SpectralParams,
                 setup: PredictionSetup, observed_field: SpectralField):
        n = setup.n_observed
        if observed_field.n_sites != n:
            raise ValidationError("observed field does not match setup geometry")
        self.setup = setup
        self.T = observed_field.n_times
        self.m = setup.n_targets
        self.plan = plan = FrequencyPlan(self.T, model.knots.omega0)
        self.ridge_frequencies = []

        scale = TWO_PI * self.T
        f = model.cross_spectrum_stack(params, setup.combined, plan.omega_low)
        foo, fpo, fpp = f[:, :n, :n], f[:, n:, :n], f[:, n:, n:]
        try:
            np.linalg.cholesky(foo)
        except np.linalg.LinAlgError:
            for k in range(len(foo)):
                try:
                    np.linalg.cholesky(foo[k])
                except np.linalg.LinAlgError:
                    foo[k] = foo[k] + np.eye(n) * (RIDGE_REL * np.trace(foo[k]).real / n)
                    self.ridge_frequencies.append(int(plan.idx_low[k]))
        B = _mT(np.linalg.solve(_mT(foo), _mT(fpo)))
        J_o = observed_field.coeffs[plan.idx_low]
        self.means = (B @ J_o[..., None])[..., 0]
        cond = fpp - B @ _mT(fpo).conj()
        cond = 0.5 * (cond + _mT(cond).conj())
        self.chols = _psd_factor(scale * cond)

        # diagonal block: unconditional marginal SDs per frequency
        self.sd_high = np.sqrt(scale * model.eval_S(params, plan.omega_high))

    def draw(self, seed: int, member: int, stage: int = STAGE_CONDSIM) -> SpectralField:
        """One draw of the target-site spectral field.

        Low-band frequencies use substreams keyed by (stage, member,
        Fourier index). The diagonal high band is drawn in fixed frequency
        order from one per-member substream, keyed (STAGE_CONDSIM_HIGH,
        member) when conditioning and (STAGE_CONDSIM_HIGH, stage, member)
        with zero observed sites; these keys fix every seeded ensemble and
        synthetic dataset.
        """
        T, m, plan = self.T, self.m, self.plan
        coeffs = np.zeros((T, m), dtype=complex)

        for k, j in enumerate(plan.idx_low):
            rng = substream(seed, stage, member, int(j))
            L = self.chols[k]
            if plan.real_low[k]:
                z = rng.standard_normal(m)
                coeffs[j] = self.means[k].real + L.real @ z
            else:
                z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                coeffs[j] = self.means[k] + L @ z / np.sqrt(2.0)

        high_key = (member,) if self.setup.n_observed else (stage, member)
        rng_hi = substream(seed, STAGE_CONDSIM_HIGH, *high_key)
        kh = len(plan.idx_high)
        if kh:
            zr = rng_hi.standard_normal((kh, m))
            zi = rng_hi.standard_normal((kh, m))
            vals = self.sd_high[:, None] * (zr + 1j * zi) / np.sqrt(2.0)
            vals[plan.real_high] = self.sd_high[plan.real_high, None] * zr[plan.real_high]
            coeffs[plan.idx_high] = vals

        # conjugate symmetry for the negative frequencies
        j_all = np.arange(1, (T + 1) // 2)
        coeffs[T - j_all] = np.conj(coeffs[j_all])
        return SpectralField(coeffs=coeffs)


def _mT(a: np.ndarray) -> np.ndarray:
    """Transpose the last two axes of a matrix stack."""
    return np.swapaxes(a, -1, -2)


def _psd_factor(mats: np.ndarray) -> np.ndarray:
    """Cholesky-like factors of a stack of Hermitian PSD matrices.

    Tolerant of zero eigenvalues: when the stacked Cholesky fails, each
    matrix is factored on its own, by eigh where Cholesky fails.
    """
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        if mats.ndim > 2:
            return np.stack([_psd_factor(mat) for mat in mats])
        vals, vecs = np.linalg.eigh(mats)
        return vecs * np.sqrt(np.maximum(vals, 0.0))[None, :]


# -- ensembles -----------------------------------------------------------


@dataclass
class EnsembleMember:
    param_draw_id: int  # -1 means the MLE was used
    mean_field_draw: np.ndarray  # per-target kPa
    pressure: np.ndarray  # m x (T+1)
    diffs: np.ndarray  # m x T


@dataclass
class Ensemble:
    members: list
    seed: int
    target_ids: tuple
    provenance: dict

    @property
    def n_members(self) -> int:
        return len(self.members)

    def pressure_stack(self) -> np.ndarray:
        """(n_members, m, T+1) array of simulated pressure."""
        return np.stack([mem.pressure for mem in self.members])

    def diff_stack(self) -> np.ndarray:
        return np.stack([mem.diffs for mem in self.members])


def fit_hash(fit: FitResult) -> str:
    return hashlib.sha256(fit.to_json().encode()).hexdigest()[:16]


def geometry_hash(geometry: SiteGeometry) -> str:
    payload = np.round(np.concatenate([geometry.lats, geometry.lons]), 9).tobytes()
    return hashlib.sha256(payload).hexdigest()[:16]


def run_ensemble(model: SpectralModel, fit: FitResult, stack: TransformStack,
                 setup: PredictionSetup, observed_field: SpectralField,
                 mean_draws: np.ndarray, count: int, vary_params: bool,
                 seed: int) -> Ensemble:
    """Generate `count` ensemble members at the prediction sites.

    mean_draws is a (count, m) array of simulated monthly mean pressures
    (kPa at target elevations) from the mean-field module, one row per
    member. With vary_params off, every member reuses the MLE.
    """
    mean_draws = np.atleast_2d(np.asarray(mean_draws, dtype=float))
    if mean_draws.shape != (count, setup.n_targets):
        raise ValidationError("mean_draws must be (count, n_targets)")

    if vary_params:
        draws = sample_params(model, fit, count, seed)
    else:
        sampler = ConditionalSampler(model, fit.params_hat, setup, observed_field)

    members = []
    for k in range(count):
        if vary_params:
            sampler = ConditionalSampler(model, draws[k], setup, observed_field)
        field = sampler.draw(seed, k)
        sim_A = inverse_dft(field)
        pressure = invert_stack(sim_A, stack, setup.target_elevations, mean_draws[k])
        members.append(
            EnsembleMember(
                param_draw_id=k if vary_params else -1,
                mean_field_draw=mean_draws[k],
                pressure=pressure,
                diffs=difference(pressure),
            )
        )
    return Ensemble(
        members=members,
        seed=seed,
        target_ids=setup.target_ids,
        provenance={
            "fit_hash": fit_hash(fit),
            "observed_geometry_hash": geometry_hash(setup.observed),
            "vary_params": vary_params,
        },
    )


def write_ensemble(ensemble: Ensemble, out_dir, start_time=None, step_seconds=300.0):
    """One CSV per member (`timestamp,site_id,pressure_kPa`) plus a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_times = ensemble.members[0].pressure.shape[1]
    for k, mem in enumerate(ensemble.members):
        path = out / f"member_{k:03d}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "site_id", "pressure_kPa"])
            for t in range(n_times):
                if start_time is not None:
                    ts = (start_time + timedelta(seconds=step_seconds * t)).isoformat()
                else:
                    ts = str(t)
                for s, sid in enumerate(ensemble.target_ids):
                    writer.writerow([ts, sid, f"{mem.pressure[s, t]:.6f}"])
    manifest = {
        "seed": ensemble.seed,
        "n_members": ensemble.n_members,
        "target_ids": list(ensemble.target_ids),
        "provenance": ensemble.provenance,
        "mean_field_draws": [m.mean_field_draw.tolist() for m in ensemble.members],
        "param_draw_ids": [m.param_draw_id for m in ensemble.members],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return out / "manifest.json"
