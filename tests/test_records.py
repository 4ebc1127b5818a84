"""The JSON codec of the artifact records (`presim.records.Record`)."""

import json
from dataclasses import MISSING, fields, replace
from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import random_params
from presim import synth
from presim.ingest import DataGrid
from presim.preprocess import fit_stack
from presim.records import Record
from presim.spectrum import KnotSet, SpectralModel

T = 576


def _stacks():
    """The synthetic truth's stack (no `variance_removed`) and one fitted to its data."""
    model = SpectralModel(KnotSet.default())
    stations = synth.default_stations()
    given = synth.default_stack(T, [s.elevation for s in stations], seed=3)
    truth = synth.generate(model, synth.default_true_params(model), stations, given, T, seed=3)
    grid = DataGrid(stations, datetime(2005, 10, 1, tzinfo=timezone.utc), 300.0, truth.pressure)
    return {"truth": given, "fitted": fit_stack(grid, n_harmonics=3, volatility_df=12.0)}


def _cases():
    cases = {"knots_720": KnotSet.default(720), "knots_4320": KnotSet.default(4320),
             "params": random_params(SpectralModel(KnotSet.default()), np.random.default_rng(5))}
    for name, stack in _stacks().items():
        cases[f"{name}_stack"] = stack
        for part in ("sea_level", "diurnal", "volatility"):
            cases[f"{name}_{part}"] = getattr(stack, part)
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
    assert list(d) == [f.name for f in fields(record) if getattr(record, f.name) is not None]
    for f in fields(record):
        if f.name not in d:
            continue
        rest = {k: v for k, v in d.items() if k != f.name}
        if f.default is MISSING:
            with pytest.raises(KeyError) as exc:
                kind.from_dict(rest)
            assert exc.value.args == (f.name,)
        else:  # r_squared, coefficients, variance_removed
            assert _json(kind.from_dict(rest)) == _json(replace(record, **{f.name: f.default}))


def test_the_six_records_are_cases():
    kinds = {type(r).__name__ for r in CASES.values()}
    assert kinds == {"KnotSet", "SpectralParams", "SeaLevelModel", "DiurnalModel",
                     "VolatilitySeries", "TransformStack"}
    assert CASES["truth_diurnal"].variance_removed is None
    assert CASES["fitted_diurnal"].variance_removed is not None


def test_int_knot_is_written_as_an_int():
    knots = KnotSet.default()
    with_int = replace(knots, s_knots=(0, *knots.s_knots[1:]))
    d = with_int.to_dict()
    assert type(d["s_knots"][0]) is int and type(d["s_knots"][1]) is float
    assert json.dumps(d).startswith('{"s_knots": [0, ')
    assert KnotSet.from_dict(d) == with_int
