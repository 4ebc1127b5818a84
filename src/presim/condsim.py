"""Per-frequency conditional simulation of the adjusted field at new sites.

At each one-sided Fourier frequency the prediction-site DFT coefficients
are drawn from their conditional (circularly symmetric) complex normal
given the observed sites; the real-coefficient frequencies (0 and
Nyquist) use the real-normal analog. The law is taken on the real R of
f = D R D* (see `spectrum`) in the Cholesky form of a Gaussian
conditional (Rasmussen & Williams 2006, Alg. 2.1), with the factor and
substitution of the Whittle likelihood, and rotated by the phase factors
D. Beyond the coherence cutoff the prediction sites are drawn
unconditionally from the diagonal model. A draw holds the one-sided
frequencies only. With zero observed sites every draw is
unconditional, which is how synthetic truths are drawn.
"""

import hashlib
import json
import os
import warnings
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .geometry import SiteGeometry, combine
from .preprocess import TransformStack, invert_stack
from .records import json_text, replacing
from .rng import RNG_LAYOUT, STAGE_CONDSIM, substream
from .spectrum import SpectralModel, SpectralParams
from .whittle import (
    TWO_PI,
    FitResult,
    FrequencyPlan,
    SpectralField,
    cholesky_factor,
    forward_substitute,
    inverse_dft,
    require_frequencies,
    sample_params,
)

RIDGE_REL = 1e-10


class ConditionalSampler:
    """Precomputed per-frequency conditional laws for one parameter vector.

    With f = D R D* partitioned into observed (o) and prediction (p)
    sites, z_o = D_o* J_o, R_oo = L L^T and W = L^{-1} R_op (one
    substitution of [Re z_o | Im z_o | R_op]), the conditional mean is
    D_p W^T L^{-1} z_o and the covariance D_p (R_pp - W^T W) D_p*, whose
    Cholesky factor is D_p F D_p* for the real factor F of R_pp - W^T W.
    R_oo is ridged by RIDGE_REL times its mean diagonal where its factor
    fails (`ridge_frequencies`); a law still not finite raises a
    ValidationError naming its first frequency.

    `plan` is the `FrequencyPlan` of the observed field's length; callers
    that build samplers for many parameter vectors build it once, and
    likewise the geometry `sites`: the observed sites, then the targets.
    The first `observed_field.n_sites` of them are observed. With zero
    observed sites (a (floor(T/2)+1, 0) observed field) the conditional
    laws are the unconditional ones, so the same sampler draws synthetic
    truths.
    """

    def __init__(self, plan: FrequencyPlan, params: SpectralParams,
                 sites: SiteGeometry, observed_field: SpectralField):
        n = observed_field.n_sites
        if n >= sites.n_sites:
            raise ValidationError(f"observed field has {n} sites, leaving no target "
                                  f"among the {sites.n_sites} sites")
        if observed_field.n_times != plan.T:
            raise ValidationError(f"frequency plan is for T = {plan.T}, "
                                  f"the observed field for T = {observed_field.n_times}")
        self.T = plan.T
        self.m = sites.n_sites - n
        self.plan = plan

        scale = TWO_PI * self.T
        t = plan.terms(params, sites)
        Roo, Rop, Rpp = t.R[:, :n, :n], t.R[:, :n, n:], t.R[:, n:, n:]
        D_o, D_p = t.D[:, :n], t.D[:, n:]
        del t  # frees C and r, (K, n + m, n + m) each, before the factorization
        L, inv_piv, good = cholesky_factor(Roo)
        self.ridge_frequencies = np.flatnonzero(~good).tolist()  # row k is frequency k
        if self.ridge_frequencies:
            diag = np.einsum("kii->ki", Roo)
            diag[~good] += RIDGE_REL * diag[~good].sum(axis=1, keepdims=True) / n
            L, inv_piv, good = cholesky_factor(Roo)
        require_frequencies(good, plan.omega_low, "conditional law not finite")
        z = np.conj(D_o) * observed_field.coeffs[plan.low]
        X = forward_substitute(L, inv_piv, np.dstack([z.real, z.imag, Rop]))
        Wt = np.swapaxes(X[..., 2:], 1, 2)  # W^T = R_po L^{-T}
        mean = Wt @ X[..., :2]  # R_po R_oo^{-1} z: real and imaginary parts
        self.means = D_p * (mean[..., 0] + 1j * mean[..., 1])
        # psd_factor reads only the lower triangle, so cov need not be exactly symmetric
        cov = scale * (Rpp - Wt @ X[..., 2:])
        # diagonal block: unconditional marginal SDs per frequency
        self.sd_high = np.sqrt(scale * plan.S_high(params))
        finite = np.isfinite(cov).all(axis=(1, 2)) & np.isfinite(self.means).all(axis=1)
        require_frequencies(np.concatenate([finite, np.isfinite(self.sd_high)]), plan.omegas,
                            "conditional law not finite")
        # D_p F D_p* is lower triangular with F's diagonal: the Cholesky
        # factor of the complex conditional covariance D_p cov D_p*
        self.chols = D_p[:, :, None] * psd_factor(cov) * np.conj(D_p)[:, None, :]

    def draw(self, rng) -> SpectralField:
        """One draw of the target-site one-sided spectral field from the generator `rng`.

        The caller names the stream (the layout of `presim.rng`). The
        generator gives the high band and then the low band, each a (2, K, m) block of real
        parts then imaginary parts in frequency order; a real-coefficient
        frequency uses its real part only. The low-band normals are mapped
        through the conditional laws in one stacked product, and the field
        is the low-band rows followed by the high-band rows.
        """
        m, plan = self.m, self.plan
        zr, zi = rng.standard_normal((2, len(plan.omega_high), m))
        high = self.sd_high[:, None] * (zr + 1j * zi) / np.sqrt(2.0)
        high[plan.real_high] = self.sd_high[plan.real_high, None] * zr[plan.real_high]

        real = plan.real_low
        zr, zi = rng.standard_normal((2, len(plan.omega_low), m))
        low = self.means + (self.chols @ (zr + 1j * zi)[..., None])[..., 0] / np.sqrt(2.0)
        low[real] = self.means[real].real + (self.chols[real].real @ zr[real, :, None])[..., 0]
        return SpectralField(coeffs=np.concatenate([low, high]), n_times=self.T)


def psd_factor(mats: np.ndarray) -> np.ndarray:
    """Cholesky-like factors of a symmetric PSD matrix or a stack of them.

    Tolerant of zero eigenvalues: a matrix whose `cholesky_factor` fails
    is factored by eigh. The sampler and `meanfield` factor covariances
    with it.
    """
    stack = np.reshape(mats, (-1,) + np.shape(mats)[-2:])
    L, _, good = cholesky_factor(stack)
    if not good.all():
        vals, vecs = np.linalg.eigh(stack[~good])
        L[~good] = vecs * np.sqrt(np.maximum(vals, 0.0))[:, None, :]
    return L.reshape(np.shape(mats))


# -- ensembles -----------------------------------------------------------


def fit_hash(fit: FitResult) -> str:
    return hashlib.sha256(fit.to_json().encode()).hexdigest()[:16]


def geometry_hash(geometry: SiteGeometry) -> str:
    payload = np.round(np.concatenate([geometry.lats, geometry.lons]), 9).tobytes()
    return hashlib.sha256(payload).hexdigest()[:16]


# the one layout of `pressure.npy`: a version 1.0 header, then (members,
# targets, T+1) little-endian float64 in C order, and nothing after
PRESSURE_DTYPE = np.dtype("<f8")


def run_ensemble(fit: FitResult, stack: TransformStack, observed: SiteGeometry, targets: list,
                 observed_field: SpectralField, mean_draws: np.ndarray, vary_params: bool,
                 seed: int, out_dir, start_time, step_seconds: float, mean_field: dict) -> dict:
    """Simulate one member per row of `mean_draws` at `targets` into the directory `out_dir`.

    `targets` are station records (`ingest.StationMeta`) and `observed`
    the geometry of the observed field's sites. mean_draws is a
    (members, m) array of simulated monthly mean pressures (kPa at target
    elevations) from the mean-field module, one row per member. A sampler
    is built at member 0 and, with vary_params on, at every member from its
    parameter draw; with it off, every member reuses the MLE's. Member k is
    drawn from the substream (STAGE_CONDSIM, k). A target at an observed
    site is simulated, with a warning, as a copy of that observation.

    Writes `pressure.npy`, the (members, targets, T+1) float64 array, and
    `manifest.json` as one pair (`records.replacing`), and returns the
    manifest. Members are streamed: each is drawn, inverted and appended
    to the partial `pressure.npy`, so memory holds one member, not the
    ensemble. Both files are put in place once the manifest is written
    too, and neither is if anything fails, which leaves an earlier
    ensemble in `out_dir` as it was.

    The manifest records the seed, the target and parameter-draw order of
    the array's first two axes, the mean-field draws and the `mean_field`
    model, the time axis (`start_time`, the datetime of column 0, and
    `step_seconds` between columns) and the provenance: whether the Hessian
    was floored for the parameter draws, and the number of ridged
    frequencies summed over all sampler builds.
    """
    if observed_field.n_sites != observed.n_sites:
        raise ValidationError(f"observed field has {observed_field.n_sites} sites, "
                              f"the observed geometry {observed.n_sites}")
    mean_draws = np.atleast_2d(np.asarray(mean_draws, dtype=float))
    count = len(mean_draws)
    if mean_draws.shape != (count, len(targets)):
        raise ValidationError("mean_draws must be (members, n_targets)")
    for s in targets:
        same = (np.abs(observed.lats - s.latitude) < 1e-12) & (
            np.abs(observed.lons - s.longitude) < 1e-12
        )
        if same.any():
            warnings.warn(f"target {s.id} coincides with an observed site; "
                          "the simulation will reproduce that observation")
    sites = combine(observed, SiteGeometry.of(targets))  # shared by every sampler build
    elevations = np.array([s.elevation for s in targets], dtype=float)

    model = SpectralModel(fit.knots)
    plan = FrequencyPlan(observed_field.n_times, model)
    draws, floored = sample_params(fit, count, seed) if vary_params else (None, False)
    ridged = 0
    T = observed_field.n_times
    diurnal = stack.diurnal.predict(T)
    header = {"descr": PRESSURE_DTYPE.str, "fortran_order": False,
              "shape": (count, len(targets), T + 1)}
    with replacing(out_dir, "pressure.npy", "manifest.json") as (pressure_path, manifest_path):
        with open(pressure_path, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, header)
            for k in range(count):
                if k == 0 or vary_params:
                    params = model.unpack(draws[k]) if vary_params else fit.params_hat
                    sampler = ConditionalSampler(plan, params, sites, observed_field)
                    ridged += len(sampler.ridge_frequencies)
                A = inverse_dft(sampler.draw(substream(seed, STAGE_CONDSIM, k)))
                pressure = invert_stack(A, stack, elevations, mean_draws[k], diurnal)
                fh.write(np.ascontiguousarray(pressure, dtype=PRESSURE_DTYPE))
        manifest = {
            "seed": seed,
            "rng_layout": RNG_LAYOUT,
            "n_members": count,
            "target_ids": [s.id for s in targets],
            "provenance": {
                "fit_hash": fit_hash(fit),
                "observed_geometry_hash": geometry_hash(observed),
                "vary_params": vary_params,
                "hessian_floored": floored,
                "ridge_frequencies": ridged,
            },
            "mean_field_draws": mean_draws.tolist(),
            "param_draw_ids": list(range(count)) if vary_params else [-1] * count,
            "start_time": start_time.isoformat(),
            "step_seconds": step_seconds,
            "mean_field": mean_field,
        }
        manifest_path.write_text(json_text(manifest), encoding="utf-8")
    return manifest


def open_ensemble(ensemble_dir, fit: FitResult):
    """The target ids, the (members, targets, T+1) shape and a reader of an ensemble.

    The ensemble must have been simulated from `fit` (its manifest's
    `fit_hash`), and `pressure.npy` must have the layout `run_ensemble`
    writes (`PRESSURE_DTYPE`) and the manifest's member and target counts.
    All of that is checked from the manifest and the `.npy` header and
    length, without reading the data. `read_target(id)` then reads that
    target's (members, T+1) block, one member's row per file read, and
    checks that each row is finite, so memory holds one target, never the
    whole array.
    """
    out = Path(ensemble_dir)
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        simulated_from = manifest["provenance"]["fit_hash"]
        ids, n_members = manifest["target_ids"], manifest["n_members"]
    except (ValueError, KeyError, TypeError) as exc:  # truncated, or a key missing
        raise FormatError(f"{out / 'manifest.json'}: not a readable ensemble manifest "
                          f"({exc!r})") from exc
    given = fit_hash(fit)
    if simulated_from != given:
        raise ValidationError(
            f"{out / 'manifest.json'}: ensemble was simulated from another fit "
            f"(fit_hash {simulated_from}, the fit report's {given})"
        )
    path = out / "pressure.npy"
    with open(path, "rb") as fh:
        try:
            version = np.lib.format.read_magic(fh)
            if version != (1, 0):
                raise ValueError(f"version {version}, not (1, 0)")
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        except (ValueError, EOFError) as exc:  # truncated, corrupt or pickled
            raise FormatError(f"{path}: not a readable .npy array ({exc})") from exc
        offset, size = fh.tell(), os.fstat(fh.fileno()).st_size
    if dtype.str != PRESSURE_DTYPE.str or fortran_order:
        raise FormatError(f"{path}: dtype {dtype.str}"
                          f"{' in Fortran order' if fortran_order else ''} is not "
                          f"little-endian float64 in C order")
    if len(shape) != 3:
        raise FormatError(f"{path}: shape {shape} is not (members, targets, times)")
    row_bytes = shape[2] * PRESSURE_DTYPE.itemsize
    if size != offset + shape[0] * shape[1] * row_bytes:
        raise FormatError(f"{path}: {size} bytes, not the {offset}-byte header and the "
                          f"data of shape {shape}")
    if shape[:2] != (n_members, len(ids)):
        raise ValidationError(
            f"{path}: shape {shape} does not match the manifest's "
            f"{n_members} members and {len(ids)} targets"
        )

    def read_target(t):
        j = ids.index(t)
        block = np.empty((shape[0], shape[2]), dtype=PRESSURE_DTYPE)
        with open(path, "rb") as fh:
            for m, row in enumerate(block):
                fh.seek(offset + (m * shape[1] + j) * row_bytes)
                if fh.readinto(row) != row_bytes:
                    raise FormatError(f"{path}: target {j}, member {m} is cut short")
        # a member's row is finite if its min and max are: no mask of the whole block
        finite = np.isfinite(block.min(axis=1)) & np.isfinite(block.max(axis=1))
        if not finite.all():
            raise ValidationError(f"{path}: target {t}, member {np.argmin(finite)} is not finite")
        return block

    return ids, shape, read_target
