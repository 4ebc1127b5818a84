"""The synthetic dataset writer: bytes against the row-by-row csv.writer oracle,
its step check, whole-file writes and memory."""

import tracemalloc
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from presim import synth
from presim.errors import ValidationError
from presim.ingest import load_observations

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


def test_a_failed_write_leaves_no_partial_file_and_the_earlier_dataset(model, tmp_path):
    out = tmp_path / "out"
    synth.write_dataset(_truth(model, 100, seed=1), out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # a value that %.8f cannot format, in the second block of time steps
    failing = _truth(model, 100, seed=2)
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
