"""The JSON codec of the artifact records (`presim.records.Record`) and the
writer that puts every artifact in place (`presim.records.replacing`)."""

import json
from dataclasses import MISSING, fields, replace
from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import random_params
from presim import condsim, meanfield, synth
from presim.geometry import SiteGeometry
from presim.ingest import DataGrid
from presim.preprocess import apply_stack, fit_stack
from presim.records import Record, replacing
from presim.spectrum import KnotSet, SpectralModel
from presim.whittle import FitResult, WhittleObjective, fit_mle, forward_dft, initial_params

T = 576


def _cases():
    """Every record kind.

    The synthetic truth's stack (no `variance_removed`); a stack, a fit (with
    eigenvalues) and both mean-field models from its data; and a fit at the
    truth as the benchmark writes one (NaN likelihood and Hessian, no
    eigenvalues).
    """
    model = SpectralModel(KnotSet.default())
    stations = synth.default_stations()
    truth_params = synth.default_true_params(model)
    given = synth.default_stack(T, [s.elevation for s in stations], seed=3)
    truth = synth.generate(model, truth_params, stations, given, T, seed=3)
    grid = DataGrid(stations, datetime(2005, 10, 1, tzinfo=timezone.utc), 300.0, truth.pressure)
    fitted = fit_stack(grid, n_harmonics=3, volatility_df=12.0)
    geometry = SiteGeometry.of(stations)
    obj = WhittleObjective(model, forward_dft(apply_stack(grid, fitted)), geometry)
    _, mean_fields = meanfield.select_model(
        fitted.site_means * fitted.sea_level.ratio(grid.elevations), geometry)

    cases = {"knots_720": KnotSet.default(720), "knots_4320": KnotSet.default(4320),
             "params": random_params(model, np.random.default_rng(5))}
    for name, stack in (("truth", given), ("fitted", fitted)):
        cases[f"{name}_stack"] = stack
        for part in ("sea_level", "diurnal", "volatility"):
            cases[f"{name}_{part}"] = getattr(stack, part)
    cases["fit"] = fit_mle(obj, initial_params(obj), max_iter=2)
    cases["fit_at_truth"] = FitResult(
        knots=model.knots, params_hat=truth_params, loglik=float("nan"),
        hessian=np.full((model.n_params, model.n_params), np.nan),
        convergence={"status": "truth", "iterations": 0, "grad_inf_norm": float("nan")},
    )
    for kind, fit in mean_fields.items():
        cases[f"mean_field_{kind}"] = fit
    return cases


CASES = _cases()


def _json(record: Record) -> str:
    return json.dumps(record.to_dict())  # NaN reads equal to NaN here


@pytest.mark.parametrize("record", CASES.values(), ids=CASES.keys())
def test_record_json_codec(record):
    kind = type(record)
    d = record.to_dict()
    back = kind.from_dict(json.loads(json.dumps(d)))
    assert type(back) is kind and _json(back) == _json(record)
    keys = {f.name: f.metadata.get("key", f.name) for f in fields(record)}
    assert list(d) == [keys[f.name] for f in fields(record)
                       if getattr(record, f.name) is not None]
    # each key without a default is required: `fit` without `params` is KeyError('params')
    for f in fields(record):
        if keys[f.name] not in d:
            continue
        rest = {k: v for k, v in d.items() if k != keys[f.name]}
        if f.default is MISSING:
            with pytest.raises(KeyError) as exc:
                kind.from_dict(rest)
            assert exc.value.args == (keys[f.name],)
        else:  # r_squared, coefficients, variance_removed, hessian_eigenvalues
            assert _json(kind.from_dict(rest)) == _json(replace(record, **{f.name: f.default}))


def test_every_record_is_a_case():
    kinds = {type(r) for r in CASES.values()}
    assert kinds == set(Record.__subclasses__())
    assert {k.__name__ for k in kinds} == {
        "KnotSet", "SpectralParams", "SeaLevelModel", "DiurnalModel", "VolatilitySeries",
        "TransformStack", "FitResult", "MeanFieldModel"}
    assert CASES["truth_diurnal"].variance_removed is None
    assert CASES["fitted_diurnal"].variance_removed is not None
    assert len(CASES["fit"].hessian_eigenvalues) == len(CASES["fit"].hessian)
    assert CASES["fit_at_truth"].hessian_eigenvalues is None
    assert CASES["mean_field_nugget"].variogram == "nugget"
    assert CASES["mean_field_linear"].variogram == "linear"


_FIT_KEYS = ["knots", "params", "loglik", "hessian", "convergence"]
_MEAN_FIELD_KEYS = ["variogram", "theta_hat", "reml_loglik", "n_fit", "values", "lats", "lons"]
KEY_ORDERS = {"fit": [*_FIT_KEYS, "hessian_eigenvalues"], "fit_at_truth": _FIT_KEYS,
              "mean_field_nugget": _MEAN_FIELD_KEYS, "mean_field_linear": _MEAN_FIELD_KEYS}


@pytest.mark.parametrize("name", KEY_ORDERS)
def test_key_order_is_pinned(name):
    # `condsim.fit_hash` hashes a fit's JSON unsorted: its key order is part of every manifest
    assert list(CASES[name].to_dict()) == KEY_ORDERS[name]


def test_fit_hash_of_a_fixed_fit_is_pinned():
    model = SpectralModel(KnotSet.default())
    vals = np.arange(1.0, model.n_params + 1)
    fit = FitResult(knots=model.knots, params_hat=model.unpack(np.arange(model.n_params) / 8 - 1),
                    loglik=-1234.5, hessian=np.diag(vals),
                    convergence={"status": "converged", "iterations": 7, "trace": [[-1.5, 0.25]]},
                    hessian_eigenvalues=vals)
    assert condsim.fit_hash(fit) == "8708a4058868defb"


def test_int_knot_is_written_as_an_int():
    knots = KnotSet.default()
    with_int = replace(knots, s_knots=(0, *knots.s_knots[1:]))
    d = with_int.to_dict()
    assert type(d["s_knots"][0]) is int and type(d["s_knots"][1]) is float
    assert json.dumps(d).startswith('{"s_knots": [0, ')
    assert KnotSet.from_dict(d) == with_int


# -- the writer ----------------------------------------------------------


def test_replacing_puts_every_file_in_place_at_the_end(tmp_path):
    out = tmp_path / "new" / "dir"
    with replacing(out, "a.json", "b.npy") as (a, b):
        assert out.is_dir() and a.parent == out
        a.write_text("A", encoding="utf-8")
        b.write_bytes(b"B")
        assert sorted(p.name for p in out.iterdir()) == sorted([a.name, b.name])
    assert sorted(p.name for p in out.iterdir()) == ["a.json", "b.npy"]
    assert (out / "a.json").read_text(encoding="utf-8") == "A"
    assert (out / "b.npy").read_bytes() == b"B"


@pytest.mark.parametrize("failure", [OSError, KeyboardInterrupt])
def test_replacing_leaves_earlier_files_when_the_block_fails(tmp_path, failure):
    (tmp_path / "a.json").write_text("earlier", encoding="utf-8")
    with pytest.raises(failure):
        with replacing(tmp_path, "a.json", "b.npy") as (a, b):
            a.write_text("later", encoding="utf-8")
            raise failure("the block failed before b was written")
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]
    assert (tmp_path / "a.json").read_text(encoding="utf-8") == "earlier"
