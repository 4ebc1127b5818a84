"""Substream keys: every seeded draw of the pipeline has a stream of its own."""

import numpy as np
import pytest

from presim import condsim, meanfield, synth, verify, whittle
from presim.geometry import SiteGeometry
from presim.ingest import StationMeta
from presim.preprocess import SeaLevelModel
from presim.rng import STAGE_CONDSIM, STAGE_SYNTH, substream
from presim.whittle import FitResult, SpectralField

from conftest import random_params


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("key", [(), (STAGE_SYNTH, 0), (STAGE_CONDSIM, 3, 2**32 - 1)])
def test_substream_is_the_seed_sequence_of_the_key(seed, key):
    reference = np.random.default_rng(np.random.SeedSequence([seed, *key]))
    assert np.array_equal(substream(seed, *key).standard_normal(5),
                          reference.standard_normal(5))


def test_substream_pads_short_keys_with_zeros():
    # why the collision test below compares stream states, not key tuples
    assert np.array_equal(substream(3, STAGE_SYNTH).standard_normal(4),
                          substream(3, STAGE_SYNTH, 0).standard_normal(4))


def test_substream_keys_are_pairwise_distinct(model, geometry3, monkeypatch, tmp_path):
    # every owner of a stream, run for several seeds: each call below makes
    # draws of its own, so no two keys may share a stream; keys are
    # compared by the state SeedSequence derives from them
    keys = []
    for module in (condsim, whittle, meanfield, verify, synth):
        def recording(seed, *key, _module=module.__name__):
            keys.append((_module, seed, *key))
            return substream(seed, *key)
        monkeypatch.setattr(module, "substream", recording)

    T, count = 16, 6
    params = random_params(model, np.random.default_rng(50), scale=0.3)
    stations = [StationMeta(f"S{i}", lat, lon, 300.0)
                for i, (lat, lon) in enumerate(zip(geometry3.lats, geometry3.lons))]
    # the first two sites observed, the third the target
    observed = SiteGeometry(geometry3.lats[:2], geometry3.lons[:2])
    field = SpectralField(np.zeros((T // 2 + 1, 2)), n_times=T)
    fit = FitResult(params_hat=params, loglik=0.0, hessian=np.eye(model.n_params),
                    convergence={}, knots=model.knots)
    mf = meanfield.reml_fit(101.0 + 0.05 * np.arange(5.0), SiteGeometry(
        36.0 + 0.1 * np.arange(5), -97.0 - 0.07 * np.arange(5) ** 2), "nugget")
    sea = SeaLevelModel(log_p0=np.log(101.0), scale_height=8310.0)

    for seed in range(4):
        stack = synth.default_stack(T, [300.0] * 3, seed=seed)
        synth.generate(model, params, stations, stack, T, seed)
        whittle.sample_params(fit, count, seed)
        condsim.run_ensemble(fit, stack, observed, stations[2:], field,
                             np.full((count, 1), 97.0), False, seed, tmp_path / str(seed),
                             synth.DEFAULT_START, 300.0, {})
        meanfield.sample_means(mf, stations[2:], sea, count, seed)
        verify.verdicts(np.zeros(T), np.ones((3, T)), seed=seed)

    assert {k[0] for k in keys} == {"presim.condsim", "presim.whittle", "presim.meanfield",
                                    "presim.verify", "presim.synth"}
    by_state = {}
    for name, seed, *key in keys:
        state = tuple(np.random.SeedSequence([seed, *key]).generate_state(4))
        by_state.setdefault(state, []).append((name, seed, *key))
    collisions = [uses for uses in by_state.values() if len(uses) > 1]
    assert not collisions, f"keys sharing a stream: {collisions[:5]}"
