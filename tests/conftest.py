"""Shared fixtures for the test suite."""

import csv
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from presim.condsim import ConditionalSampler
from presim.errors import AlignmentError, FormatError
from presim.geometry import EARTH_RADIUS_KM, SiteGeometry
from presim.ingest import RawSeries
from presim.rng import STAGE_CONDSIM, STAGE_FIELD_UNCOND, substream
from presim.spectrum import KnotSet, SpectralModel
from presim.whittle import TWO_PI, FrequencyPlan, SpectralField


@pytest.fixture(scope="session")
def model():
    """Spectral model with the default knots (hourly cutoff)."""
    return SpectralModel(KnotSet.default())


@pytest.fixture(scope="session")
def geometry3():
    """Three irregularly spaced sites, ~20-60 km apart."""
    return SiteGeometry(
        np.array([36.10, 36.45, 36.80]), np.array([-97.20, -96.90, -97.45])
    )


def great_circle(p, q) -> float:
    """Haversine distance in km between (lat, lon) pairs in degrees.

    One pair at a time: the oracle for `distance_matrix`.
    """
    lat1, lon1 = np.radians(p)
    lat2, lon2 = np.radians(q)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return float(2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0))))


def random_params(model, rng, scale=0.4):
    """A random parameter vector with moderate coefficient sizes."""
    return model.unpack(rng.normal(scale=scale, size=model.n_params))


@pytest.fixture
def rand_params():
    return random_params


def cross_spectrum_stack(model, params, geometry, omegas) -> np.ndarray:
    """Stack of n x n Hermitian cross-spectral matrices f = D R D*, one per frequency.

    The complex f that the likelihood and the sampler never form: the
    oracle for their real-R algebra. Above the cutoff omega0 the sites
    have no cross-site coherence, f = S I, decided here apart from the
    frequency plan's split.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    t = model.cross_spectrum_terms(params, geometry, model.designs(omegas))
    f = t.D[:, :, None] * t.R * np.conj(t.D)[:, None, :]
    high = np.abs(omegas) > model.knots.omega0
    f[high] = model.eval_S(params, omegas[high])[:, None, None] * np.eye(geometry.n_sites)
    return f


def cross_spectrum(model, params, geometry, omega) -> np.ndarray:
    """Single-frequency n x n cross-spectral matrix: one row of the stack."""
    return cross_spectrum_stack(model, params, geometry, [omega])[0]


def coherence(model, params, geometry, omega, j, k) -> complex:
    """Complex coherence f_jk / sqrt(f_jj f_kk) between two sites."""
    f = cross_spectrum(model, params, geometry, omega)
    return f[j, k] / np.sqrt(f[j, j].real * f[k, k].real)


def numeric_gradient(fun, x) -> np.ndarray:
    """Central differences of `fun` at `x` with a per-coordinate step 1e-5 max(1, |x_i|).

    For a scalar `fun` this is its gradient; for a vector-valued one, row
    i holds the derivatives of every output with respect to x[i]. The
    oracle for the analytic score and, applied to the score, for the
    analytic Hessian.
    """
    x = np.asarray(x, dtype=float)
    rows = []
    for i in range(len(x)):
        h = 1e-5 * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        rows.append((np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2.0 * h))
    return np.array(rows)


def numeric_hessian(fun, x, rel_step: float = 1e-4) -> np.ndarray:
    """Second central differences of a scalar `fun`: the oracle for Hessians."""
    x = np.asarray(x, dtype=float)
    p = len(x)
    h = rel_step * np.maximum(1.0, np.abs(x))
    H = np.empty((p, p))
    f0 = fun(x)
    for i in range(p):
        ei = np.zeros(p)
        ei[i] = h[i]
        H[i, i] = (fun(x + ei) - 2.0 * f0 + fun(x - ei)) / h[i] ** 2
        for jj in range(i + 1, p):
            ej = np.zeros(p)
            ej[jj] = h[jj]
            H[i, jj] = (
                fun(x + ei + ej) - fun(x + ei - ej) - fun(x - ei + ej) + fun(x - ei - ej)
            ) / (4.0 * h[i] * h[jj])
    H = np.triu(H) + np.triu(H, 1).T
    return 0.5 * (H + H.T)


def reference_loglik(obj, params):
    """(log-likelihood, score) of a `WhittleObjective` in the complex form.

    The oracle for `loglik`: f from `cross_spectrum_stack`, complex
    Cholesky and solve, and the traces Re tr(G d_a f) with
    G = f^{-1} - x x^* / (2 pi T), x = f^{-1} J, taken through
    conj(G) o phase, the phase exp(i theta u.(x_j - x_k)) built from the
    differences of the geometry's planar positions.
    """
    model, geo, plan, n = obj.plan.model, obj.geometry, obj.plan, obj.n
    scale = TWO_PI * obj.T
    t = model.cross_spectrum_terms(params, geo, model.designs(plan.omega_low))
    f = cross_spectrum_stack(model, params, geo, plan.omega_low)
    J = obj.spec.coeffs[plan.low]
    L = np.linalg.cholesky(f)
    logdet = 2.0 * np.sum(np.log(np.einsum("kii->ki", L).real), axis=1)
    x = np.linalg.solve(f, J[..., None])[..., 0]
    quad = np.einsum("ki,ki->k", np.conj(J), x).real
    S_high = model.eval_S(params, plan.omega_high)
    Q_high = np.sum(np.abs(obj.spec.coeffs[plan.high]) ** 2, axis=1)
    ll = -np.sum(plan.w_low * (logdet + quad / scale))
    ll -= np.sum(plan.w_high * (n * np.log(S_high) + Q_high / (scale * S_high)))

    G = np.linalg.inv(f) - x[:, :, None] * np.conj(x)[:, None, :] / scale
    disp = geo.positions[:, None, :] - geo.positions[None, :, :]
    U = disp @ params.u
    U_perp = disp @ np.array([-np.sin(params.u_angle), np.cos(params.u_angle)])
    phase = np.exp(1j * U[None, :, :] * t.theta[:, None, None])
    M = np.conj(G) * phase  # Re tr(G E) = Re sum(conj(G) o E) for Hermitian E
    CMi = t.C * M.imag
    S1 = t.S * t.sig
    d = geo.distances
    inv_d = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
    dC = (t.r * np.exp(-t.r / 3.0)) ** 3 * inv_d

    tr_S = n - quad / scale
    tr_high = n - Q_high / (scale * S_high)
    tr_beta = S1 * (1.0 - t.sig) * (
        np.sum(t.C * M.real, axis=(1, 2)) - np.einsum("kii->k", G).real
    )
    tr_delta = S1 * np.sign(t.delta) * np.sum(dC * M.real, axis=(1, 2))
    tr_theta = -S1 * np.sum(U * CMi, axis=(1, 2))
    tr_u = -t.theta * S1 * np.sum(U_perp * CMi, axis=(1, 2))

    w = plan.w_low
    B_S, B_beta, B_delta, B_theta = model.designs(plan.omega_low)
    grad = -np.concatenate([
        B_S.T @ (w * tr_S) + model.basis_S.design(plan.omega_high).T @ (plan.w_high * tr_high),
        B_beta.T @ (w * tr_beta),
        B_delta.T @ (w * tr_delta),
        B_theta.T @ (w * tr_theta),
        [np.sum(w * tr_u)],
    ])
    return float(ll), grad


def unconditional_sampler(model, params, geometry, T):
    """Sampler of the full field at `geometry`, conditioned on zero sites."""
    return ConditionalSampler(FrequencyPlan(T, model), params, geometry,
                              SpectralField(np.zeros((T // 2 + 1, 0)), n_times=T))


def zero_site_stream(seed, member=0):
    """The generator of a test's zero-site draw, keyed (STAGE_FIELD_UNCOND,
    STAGE_CONDSIM, member): a key no stage of the pipeline owns, which fixes
    each test's realization."""
    return substream(seed, STAGE_FIELD_UNCOND, STAGE_CONDSIM, member)


def reference_low_band(sampler, z):
    """Low-band draws one frequency at a time: the oracle for the stacked draw.

    Row k is means[k] + chols[k] @ z[k] for the circular complex normals
    z[k]; the real-coefficient frequencies keep the real part.
    """
    out = np.array([sampler.means[k] + sampler.chols[k] @ z[k] for k in range(len(z))])
    out[sampler.plan.real_low] = out[sampler.plan.real_low].real
    return out


def reference_load_observations(path, stations) -> list:
    """Row-by-row observation parser: the oracle for `ingest.load_observations`.

    One dict and one timezone-aware datetime per row; each station's rows
    must be evenly spaced (no omitted rows).
    """
    def parse_time(text, lineno):
        try:
            ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad timestamp {text!r}") from exc
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        return ts.astimezone(timezone.utc)

    by_id = {s.id: s for s in stations}
    rows = {s.id: [] for s in stations}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        expected = ["timestamp", "station_id", "pressure_kPa"]
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != expected:
            raise FormatError(f"{path}: expected header {','.join(expected)}")
        for lineno, row in enumerate(reader, start=2):
            sid = row["station_id"].strip()
            if sid not in by_id:
                continue
            ts = parse_time(row["timestamp"].strip(), lineno)
            raw = row["pressure_kPa"].strip()
            if raw == "":
                value = np.nan
            else:
                try:
                    value = float(raw)
                    if np.isinf(value):
                        raise ValueError(raw)
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: bad pressure {raw!r}") from exc
            rows[sid].append((ts, value))

    series = []
    for sid, recs in rows.items():
        if not recs:
            continue
        recs.sort(key=lambda r: r[0])
        times = [r[0] for r in recs]
        if len(times) > 1:
            step = (times[1] - times[0]).total_seconds()
            for a, b in zip(times[:-1], times[1:]):
                if abs((b - a).total_seconds() - step) > 1e-6:
                    raise AlignmentError(f"{path}: station {sid}: uneven time step near {a.isoformat()}")
        else:
            step = 60.0
        series.append(
            RawSeries(
                station=by_id[sid],
                start_time=times[0],
                step_seconds=step,
                values=np.array([r[1] for r in recs]),
            )
        )
    return series


def reference_write_observations(path, truth, start, step_seconds):
    """One csv.writer row per observation: the oracle for `synth.write_dataset`."""
    n, n_times = truth.pressure.shape
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "station_id", "pressure_kPa"])
        for t in range(n_times):
            ts = (start + timedelta(seconds=step_seconds * t)).isoformat()
            for i, s in enumerate(truth.stations):
                w.writerow([ts, s.id, f"{truth.pressure[i, t]:.8f}"])
