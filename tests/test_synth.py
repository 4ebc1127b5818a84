"""The synthetic dataset writer: bytes against the row-by-row csv.writer oracle,
its digits against %.8f, its step and value checks, UTF-8 output, whole-file
writes and memory."""

import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from presim import synth
from presim.errors import ValidationError
from presim.ingest import load_observations, load_stations

from conftest import reference_load_observations, reference_write_observations


def test_write_dataset_matches_csv_writer_bytes(model, tmp_path):
    stations = synth.default_stations()
    stack = synth.default_stack(24, [s.elevation for s in stations], seed=5)
    truth = synth.generate(model, synth.default_true_params(model), stations, stack, 24, 5)
    ids = ["E,01", 'E"02', "E%03", "E 04", ""]  # quoted, doubled quote, %, space, empty
    pressure = truth.pressure.copy()
    pressure[0, 3] = pressure[4, 0] = np.nan
    pressure[1] *= -1.0
    pressure[2, 5] = -0.0
    truth = replace(
        truth,
        stations=[replace(s, id=ids[i]) if i < len(ids) else s for i, s in enumerate(stations)],
        pressure=pressure,
    )
    start = datetime(2005, 10, 1, 6, tzinfo=timezone.utc)
    _, written, _ = synth.write_dataset(truth, tmp_path / "out", start=start, step_seconds=90.0)
    oracle = tmp_path / "oracle.csv"
    reference_write_observations(oracle, truth, start, 90.0)
    assert written.read_bytes() == oracle.read_bytes()
    assert b'"E,01"' in oracle.read_bytes() and b'"E""02"' in oracle.read_bytes()

    # and the reader takes the quoted ids back
    fast = load_observations(written, truth.stations[:3])
    slow = reference_load_observations(written, truth.stations[:3])
    assert [s.station.id for s in fast] == ids[:3]
    for a, b in zip(fast, slow):
        assert a.values.tobytes() == b.values.tobytes()


def _truth(model, n_times: int, seed: int = 0):
    """The default network's truth with `n_times` made-up pressure columns."""
    stations = synth.default_stations()
    stack = synth.default_stack(24, [s.elevation for s in stations], seed=5)
    truth = synth.generate(model, synth.default_true_params(model), stations, stack, 24, 5)
    rng = np.random.default_rng(seed)
    return replace(truth, pressure=98.0 + rng.standard_normal((len(stations), n_times)))


UTC = timezone.utc


@pytest.mark.parametrize("start, step_seconds, n_times", [
    pytest.param(datetime(2005, 10, 1, tzinfo=UTC), 90.0, 2 * synth.BLOCK_STEPS + 22,
                 id="longer_than_a_block"),
    pytest.param(datetime(2005, 10, 1, tzinfo=UTC), 0.5, 150,  # .500000 every other stamp
                 id="half_second_step"),
    pytest.param(datetime(2005, 10, 1, 6, 0, 0, 250_000,
                          tzinfo=timezone(timedelta(hours=5, minutes=30))), 300.0, 70,
                 id="microseconds_and_offset"),
    pytest.param(datetime(2005, 10, 1, 6), 60.0, 70, id="naive_start"),
])
def test_write_dataset_matches_csv_writer_bytes_on_every_time_axis(
        model, tmp_path, start, step_seconds, n_times):
    truth = _truth(model, n_times)
    _, written, _ = synth.write_dataset(truth, tmp_path / "out", start=start,
                                        step_seconds=step_seconds)
    oracle = tmp_path / "oracle.csv"
    reference_write_observations(oracle, truth, start, step_seconds)
    assert written.read_bytes() == oracle.read_bytes()


@pytest.mark.parametrize("step_seconds", [1 / 3, 0.0, -60.0, float("nan")])
def test_write_dataset_rejects_a_step_that_is_not_whole_microseconds(
        model, tmp_path, step_seconds):
    # 1/3 s would be written as 0.333333 s steps that the reader rejects as uneven;
    # a step <= 0 would write repeated or backward stamps
    with pytest.raises(ValidationError, match="positive whole number of microseconds"):
        synth.write_dataset(_truth(model, 4), tmp_path / "out", step_seconds=step_seconds)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("start", [datetime(9999, 12, 31, 22, tzinfo=UTC),
                                   datetime(9999, 12, 31, 22)])
def test_write_dataset_rejects_a_stamp_after_year_9999(model, tmp_path, start):
    # the third hourly stamp would be written as 10000-01-01T00:00:00, which ingest rejects
    with pytest.raises(ValidationError, match="after year 9999"):
        synth.write_dataset(_truth(model, 3), tmp_path / "out", start=start, step_seconds=3600)
    assert not (tmp_path / "out").exists()
    # one step fewer ends at 23:00 and reads back
    truth = _truth(model, 2)
    _, written, _ = synth.write_dataset(truth, tmp_path / "out", start=start, step_seconds=3600)
    series = load_observations(written, truth.stations)
    assert [len(s.values) for s in series] == [2] * len(truth.stations)


def test_a_failed_write_leaves_no_partial_file_and_the_earlier_dataset(model, tmp_path):
    out = tmp_path / "out"
    synth.write_dataset(_truth(model, 100, seed=1), out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # an object array, which the writer cannot read as float64, with a None in the
    # second block of time steps (one that %.8f cannot format either)
    failing = _truth(model, synth.BLOCK_STEPS + 36, seed=2)
    failing = replace(failing, pressure=failing.pressure.astype(object))
    failing.pressure[3, synth.BLOCK_STEPS + 5] = None
    with pytest.raises(TypeError):
        synth.write_dataset(failing, out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    with pytest.raises(TypeError):
        synth.write_dataset(failing, tmp_path / "fresh")
    assert list((tmp_path / "fresh").iterdir()) == []


def test_write_dataset_holds_one_block_of_rows(model, tmp_path):
    # the resim-1min record: 13 stations x 14,401 one-minute steps, an 8.1 MB file
    truth = _truth(model, 14_401)
    tracemalloc.start()
    try:
        synth.write_dataset(truth, tmp_path, step_seconds=60.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "observations.csv").stat().st_size > 8_000_000
    assert peak < 2_000_000


def formatted(values) -> list:
    """The writer's text of each value."""
    rows, lengths = synth._format_values(np.asarray(values, dtype=float))
    return [bytes(row[len(row) - k:]).decode() for row, k in zip(rows, lengths)]


@pytest.mark.parametrize("values", [
    pytest.param([0.0, -0.0, -1e-10, 5e-9, 1.5e-8, 2.5e-8, 99.999999995, 99.9999999999],
                 id="zeros_and_rounding"),
    # x 1e8 exactly k + 1/2: %.8f rounds the exact tie to even
    pytest.param([m / 512 * s for m in (1, 3, 5, 1001, 2**20 + 1) for s in (1, -1)],
                 id="exact_half_integers"),
    pytest.param([9999.99999999, 10000.0, -10000.0, 99999999.0, 12345678.87654321],
                 id="second_whole_group"),
    pytest.param([4.5e7, -4.5e7, 1e12, -1e12, 2.0**52, 1e300], id="fallback"),
    pytest.param([np.nan, 98.0, np.nan], id="nan"),
])
def test_values_are_formatted_as_percent_8f(values):
    assert formatted(values) == ["%.8f" % v for v in values]


def test_random_values_are_formatted_as_percent_8f():
    rng = np.random.default_rng(7)
    n = 300_000
    values = rng.standard_normal(n) * 10.0 ** rng.uniform(-10.0, 7.5, n)
    values[: n // 3] = 98.0 + rng.standard_normal(n // 3)  # pressures in kPa
    assert formatted(values) == ["%.8f" % v for v in values.tolist()]


def test_a_minute_record_with_gaps_reads_back(model, tmp_path):
    truth = _truth(model, 3 * synth.BLOCK_STEPS + 7, seed=3)
    pressure = truth.pressure.copy()
    pressure[0, :5] = pressure[2, 100:140] = pressure[12, -3:] = np.nan
    pressure[4] = -pressure[4]
    truth = replace(truth, pressure=pressure)
    _, written, _ = synth.write_dataset(truth, tmp_path, step_seconds=60.0)
    series = load_observations(written, truth.stations)
    assert [s.step_seconds for s in series] == [60.0] * len(truth.stations)
    values = np.array([s.values for s in series])
    assert np.array_equal(np.isnan(values), np.isnan(pressure))
    assert np.nanmax(np.abs(values - pressure)) <= 5e-9


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_write_dataset_rejects_an_infinite_pressure(model, tmp_path, bad):
    truth = _truth(model, synth.BLOCK_STEPS + 10)
    truth.pressure[7, synth.BLOCK_STEPS + 3] = bad
    with pytest.raises(ValidationError, match="infinite"):
        synth.write_dataset(truth, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_write_dataset_writes_utf8_under_a_c_locale(model, tmp_path):
    truth = _truth(model, 5)
    truth = replace(truth, stations=[replace(truth.stations[0], id="Ö1"), *truth.stations[1:]])
    (tmp_path / "truth.pkl").write_bytes(pickle.dumps(truth))
    code = ("import pickle, sys\n"
            "from presim import synth\n"
            "with open(sys.argv[1], 'rb') as fh:\n"
            "    synth.write_dataset(pickle.load(fh), sys.argv[2])\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    # an ASCII locale encoding: no UTF-8 mode and no coercion of the C locale
    env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    res = subprocess.run([sys.executable, "-c", code, tmp_path / "truth.pkl", tmp_path / "out"],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    stations = load_stations(tmp_path / "out" / "stations.csv")
    assert [s.id for s in stations] == [s.id for s in truth.stations]
    (first,) = load_observations(tmp_path / "out" / "observations.csv", stations[:1])
    assert np.abs(first.values - truth.pressure[0]).max() <= 5e-9
