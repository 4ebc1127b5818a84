"""The synthetic dataset writer against the row-by-row csv.writer oracle."""

from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from presim import synth
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
