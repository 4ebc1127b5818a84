"""Station/observation ingest, gap filling, block averaging, grid assembly."""

import re
import sys
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presim import ingest
from presim.errors import (
    AlignmentError,
    DataQualityError,
    FormatError,
    ValidationError,
)
from presim.ingest import (
    RawSeries,
    StationMeta,
    assemble_grid,
    block_average,
    fill_missing,
    load_observations,
    load_stations,
)

from conftest import reference_load_observations

T0 = datetime(2005, 10, 1, tzinfo=timezone.utc)


def make_series(values, step=300.0, station=None):
    station = station or StationMeta("X01", 36.0, -97.0, 300.0)
    return RawSeries(station=station, start_time=T0, step_seconds=step,
                     values=np.array(values, dtype=float))


# -- station CSV ----------------------------------------------------------


def write_station_csv(path, rows):
    lines = ["id,latitude_deg,longitude_deg,elevation_m"] + rows
    path.write_text("\n".join(lines) + "\n")


def test_load_stations_parses_rows(tmp_path):
    p = tmp_path / "stations.csv"
    write_station_csv(p, ["E01,36.605,-97.485,318.0", "E02,36.841,-96.427,513.0"])
    stations = load_stations(p)
    assert [s.id for s in stations] == ["E01", "E02"]
    assert stations[0].elevation == 318.0
    assert stations[1].elevation == 513.0


def test_load_stations_header_only_gives_empty_list(tmp_path):
    p = tmp_path / "stations.csv"
    write_station_csv(p, [])
    assert load_stations(p) == []


def test_load_stations_duplicate_id_rejected(tmp_path):
    p = tmp_path / "stations.csv"
    write_station_csv(p, ["E01,36.0,-97.0,300", "E01,36.5,-97.5,400"])
    with pytest.raises(ValidationError, match="duplicate"):
        load_stations(p)


def test_load_stations_bad_row_names_line(tmp_path):
    p = tmp_path / "stations.csv"
    write_station_csv(p, ["E01,36.0,-97.0,300", "E02,not_a_number,-97.5,400"])
    with pytest.raises(FormatError, match=":3"):
        load_stations(p)


@pytest.mark.parametrize("row, message", [
    ("E02,91.0,-97.5,400", "station E02: latitude 91.0 out of range"),
    ("E02,36.5,-181.0,400", "station E02: longitude -181.0 out of range"),
])
def test_load_stations_coordinate_out_of_range_names_line(tmp_path, row, message):
    p = tmp_path / "stations.csv"
    write_station_csv(p, ["E01,36.0,-97.0,300", row])
    with pytest.raises(ValidationError, match=f"stations.csv:3: {message}"):
        load_stations(p)


def test_load_stations_wrong_header_rejected(tmp_path):
    p = tmp_path / "stations.csv"
    p.write_text("name,lat,lon,elev\nE01,36,-97,300\n")
    with pytest.raises(FormatError, match="header"):
        load_stations(p)


def test_station_meta_coordinate_range_checks():
    with pytest.raises(ValidationError):
        StationMeta("B", 91.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        StationMeta("B", 0.0, -181.0, 0.0)
    with pytest.raises(ValidationError):
        StationMeta("B", 0.0, 0.0, float("nan"))


# -- observation CSV ------------------------------------------------------


def write_obs_csv(path, stations, values, step=300.0, start=T0):
    lines = ["timestamp,station_id,pressure_kPa"]
    for t in range(values.shape[1]):
        ts = (start + timedelta(seconds=step * t)).isoformat()
        for i, sid in enumerate(stations):
            v = values[i, t]
            lines.append(f"{ts},{sid},{'' if np.isnan(v) else f'{v:.4f}'}")
    path.write_text("\n".join(lines) + "\n")


def test_load_observations_long_format(tmp_path):
    p = tmp_path / "obs.csv"
    vals = np.array([[97.10, 97.12, np.nan, 97.15], [98.00, 98.01, 98.02, 98.03]])
    stations = [StationMeta("E01", 36.0, -97.0, 300.0), StationMeta("E02", 36.5, -97.5, 400.0)]
    write_obs_csv(p, ["E01", "E02"], vals)
    series = load_observations(p, stations)
    by_id = {s.station.id: s for s in series}
    assert np.allclose(by_id["E02"].values, vals[1])
    assert np.isnan(by_id["E01"].values[2])
    assert by_id["E01"].step_seconds == 300.0


def test_load_observations_skips_unrequested_stations(tmp_path):
    p = tmp_path / "obs.csv"
    write_obs_csv(p, ["E01", "E99"], np.array([[97.0, 97.1], [98.0, 98.1]]))
    series = load_observations(p, [StationMeta("E01", 36.0, -97.0, 300.0)])
    assert [s.station.id for s in series] == ["E01"]


def test_load_observations_uneven_step_rejected(tmp_path):
    p = tmp_path / "obs.csv"
    lines = ["timestamp,station_id,pressure_kPa"]
    for ts in ["2005-10-01T00:00:00+00:00", "2005-10-01T00:05:00+00:00",
               "2005-10-01T00:11:00+00:00"]:
        lines.append(f"{ts},E01,97.0")
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(AlignmentError, match="E01"):
        load_observations(p, [StationMeta("E01", 36.0, -97.0, 300.0)])


E01 = StationMeta("E01", 36.0, -97.0, 300.0)
E02 = StationMeta("E02", 36.5, -97.5, 400.0)
HEADER = "timestamp,station_id,pressure_kPa"


def write_lines(path, lines, header=HEADER):
    path.write_text("\n".join([header] + lines) + "\n")


def stamp(minutes, offset_hours=0):
    tz = timezone(timedelta(hours=offset_hours))
    return (T0 + timedelta(minutes=minutes)).astimezone(tz).isoformat()


def test_load_observations_omitted_row_is_missing(tmp_path):
    p = tmp_path / "obs.csv"
    write_lines(p, [f"{stamp(m)},E01,{97.0 + m / 100}" for m in (0, 5, 15, 20)])
    (series,) = load_observations(p, [E01])
    assert series.step_seconds == 300.0
    assert series.start_time == T0
    assert np.array_equal(series.values, [97.0, 97.05, np.nan, 97.15, 97.2], equal_nan=True)
    assert np.array_equal(fill_missing(series, max_gap=1).values[2], 97.1)


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "csv-reader"])
@pytest.mark.parametrize("raw", ["inf", "-inf", "1e400", "-1E999", "Infinity"])
def test_load_observations_rejects_an_infinite_pressure(tmp_path, raw, quoted):
    # csv.reader unquotes a quoted station field before its id is looked up
    sid = '"E02"' if quoted else "E02"
    p = tmp_path / "obs.csv"
    write_lines(p, [f"{stamp(0)},E01,97.0", f"{stamp(0)},{sid},97.0",
                    f"{stamp(5)},E01,97.1", f"{stamp(5)},E02,{raw}"])
    for parse in (load_observations, reference_load_observations):
        with pytest.raises(FormatError, match=re.escape(f"{p}:5: bad pressure {raw!r}")):
            parse(p, [E01, E02])
    # a station not asked for is never parsed
    assert load_observations(p, [E01])[0].values.tolist() == [97.0, 97.1]


@pytest.mark.parametrize("second", [stamp(5), stamp(5, offset_hours=2)])
def test_load_observations_repeated_timestamp_rejected(tmp_path, second):
    p = tmp_path / "obs.csv"
    write_lines(p, [f"{stamp(0)},E01,97.0", f"{stamp(5)},E01,97.1", f"{second},E01,97.2"])
    with pytest.raises(AlignmentError, match=re.escape(f"E01: repeated timestamp {stamp(5)}")):
        load_observations(p, [E01])


def test_load_observations_mostly_omitted_rejected(tmp_path):
    # two rows a second apart make the step 1 s: a day of slots for five rows
    p = tmp_path / "obs.csv"
    lines = [f"{stamp(0)},E01,97.0"] + [f"{stamp(m)},E01,97.0" for m in (1 / 60, 5, 10, 1440)]
    write_lines(p, lines)
    with pytest.raises(AlignmentError, match="E01: 5 rows at a 1 s step"):
        load_observations(p, [E01])


@pytest.mark.parametrize("row", [f"{stamp(5)},E01", f"{stamp(5)},E01,97.1,extra", "97.1"])
def test_load_observations_wrong_field_count_names_line(tmp_path, row):
    p = tmp_path / "obs.csv"
    write_lines(p, [f"{stamp(0)},E01,97.0", row, f"{stamp(10)},E01,97.2"])
    with pytest.raises(FormatError, match=re.escape(f"{p}:3: expected 3 fields")):
        load_observations(p, [E01])


def test_load_observations_skips_blank_lines_and_counts_them(tmp_path):
    p = tmp_path / "obs.csv"
    write_lines(p, ["", f"{stamp(0)},E01,97.0", "", f"{stamp(5)},E01,97.1"])
    (series,) = load_observations(p, [E01])
    assert np.array_equal(series.values, [97.0, 97.1])
    write_lines(p, ["", f"{stamp(0)},E01,97.0", "", f"{stamp(5)},E01,abc"])
    with pytest.raises(FormatError, match=re.escape(f"{p}:5: bad pressure 'abc'")):
        load_observations(p, [E01])


def write_station_and_obs(tmp_path):
    stations = tmp_path / "stations.csv"
    write_station_csv(stations, ["E01,36.0,-97.0,300", "E02,36.5,-97.5,400"])
    obs = tmp_path / "obs.csv"
    write_lines(obs, [f"{stamp(0)},E01,97.0", f"{stamp(5)},E01,97.1"])
    return stations, obs


def load_both(stations, obs):
    return load_observations(obs, load_stations(stations))


@pytest.mark.parametrize("which", [0, 1])
def test_undecodable_input_is_format_error(tmp_path, which):
    paths = write_station_and_obs(tmp_path)
    paths[which].write_bytes(paths[which].read_bytes() + b"E0\xff,1,2,3\n")
    with pytest.raises(FormatError, match=re.escape(f"{paths[which]}: not UTF-8")):
        load_both(*paths)


@pytest.mark.parametrize("which", [0, 1])
def test_csv_syntax_error_is_format_error(tmp_path, which):
    paths = write_station_and_obs(tmp_path)
    with open(paths[which], "a") as fh:
        fh.write("9" * 200_000 + "\n")  # over the csv module's field size limit
    with pytest.raises(FormatError, match=re.escape(f"{paths[which]}:4: field larger")):
        load_both(*paths)


def test_load_stations_wrong_field_count_names_line(tmp_path):
    p = tmp_path / "stations.csv"
    write_station_csv(p, ["E01,36.0,-97.0,300", "E02,36.5,-97.5,400,extra"])
    with pytest.raises(FormatError, match=re.escape(f"{p}:3: expected 4 fields, got 5")):
        load_stations(p)
    write_station_csv(p, ["E01,36.0,-97.0,300", "", "E02,36.5,-97.5"])
    with pytest.raises(FormatError, match=re.escape(f"{p}:4: expected 4 fields, got 3")):
        load_stations(p)


# -- the streaming parser against the row-by-row oracle ------------------


def generated_observations(path, seed, step_minutes):
    """Shuffled rows with blanks, padding, mixed offsets and unrequested stations."""
    rng = np.random.default_rng(seed)
    n_times = 40
    lines = []
    for t in range(n_times):
        minutes = step_minutes * t
        for sid in ("E01", "E02", "X01"):
            v = 97.0 + rng.normal(scale=0.3)
            value = rng.choice(["", f"{v:.8f}", repr(v), "nan"], p=[0.1, 0.55, 0.3, 0.05])
            ts = rng.choice([
                stamp(minutes),
                stamp(minutes, offset_hours=2),
                stamp(minutes).replace("+00:00", "Z"),
                stamp(minutes)[:-6],  # no offset: UTC
            ])
            pad = " " * int(rng.integers(0, 3))
            lines.append(f"{pad}{ts}{pad},{pad}{sid}{pad},{pad}{value}{pad}")
    lines.append("not-a-time,X02,97.0")  # unrequested: never parsed
    lines = [lines[i] for i in rng.permutation(len(lines))]
    write_lines(path, lines)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("step_minutes", [1, 5])
def test_load_observations_matches_row_by_row_oracle(tmp_path, seed, step_minutes):
    p = tmp_path / "obs.csv"
    generated_observations(p, seed, step_minutes)
    stations = [E02, E01]
    fast = load_observations(p, stations)
    slow = reference_load_observations(p, stations)
    assert [s.station for s in fast] == [s.station for s in slow] == stations
    for a, b in zip(fast, slow):
        assert a.start_time == b.start_time == T0
        assert a.start_time.tzinfo is b.start_time.tzinfo is timezone.utc
        assert type(a.step_seconds) is type(b.step_seconds)
        assert a.step_seconds == b.step_seconds == 60.0 * step_minutes
        assert a.values.dtype == b.values.dtype
        assert a.values.tobytes() == b.values.tobytes()
        assert np.isnan(a.values).any()


@pytest.mark.parametrize("bad_row, error, fragment", [
    ("2005-10-01T00:99:00,E01,97.0", FormatError, ":6: bad timestamp"),
    (f"{stamp(10)},E01,9 7.0", FormatError, ":6: bad pressure"),
    (f"{stamp(11)},E01,97.0", AlignmentError, "station E01: uneven time step"),
])
def test_load_observations_errors_match_oracle(tmp_path, bad_row, error, fragment):
    p = tmp_path / "obs.csv"
    lines = [f"{stamp(5 * t)},{sid},97.0" for t in range(2) for sid in ("E01", "E02")]
    write_lines(p, lines + [bad_row, f"{stamp(10)},E02,97.0"])
    for parse in (load_observations, reference_load_observations):
        with pytest.raises(error, match=re.escape(fragment)):
            parse(p, [E01, E02])


# -- the row reader with rows straddling its reads ------------------------

SMALL_BLOCK = 29  # bytes: rows, CRLF pairs and multibyte characters straddle reads
BLOCK_SIZES = pytest.mark.parametrize(
    "block", [SMALL_BLOCK, None], ids=["small-blocks", "one-block"]
)


def read_in_blocks(monkeypatch, block):
    """Have the text files ingest opens read `block` bytes at a time.

    None keeps the default read size, in which a test's file is one read.
    """
    if block is not None:
        def small_reads(*args, **kwargs):
            fh = open(*args, **kwargs)
            fh._CHUNK_SIZE = block  # the text layer's read size
            return fh

        monkeypatch.setattr(ingest, "open", small_reads, raising=False)


def assert_same_series(fast, slow):
    assert [s.station for s in fast] == [s.station for s in slow]
    for a, b in zip(fast, slow):
        assert a.start_time == b.start_time
        assert a.step_seconds == b.step_seconds
        assert a.values.tobytes() == b.values.tobytes()


def crlf(data):
    return data.replace(b"\n", b"\r\n")


def quoted(data):
    """Every third row's fields quoted, and a station id holding a comma,
    a doubled quote and a newline."""
    lines = data.split(b"\n")
    for i in range(1, len(lines), 3):
        if lines[i]:
            lines[i] = b",".join(b'"' + f + b'"' for f in lines[i].split(b","))
    lines.insert(len(lines) // 2, b'"2005-10-01T00:00:00","X,""1\n\n2",97.0')
    return b"\n".join(lines)


def blank_lines(data):
    lines = data.split(b"\n")
    for i in range(len(lines) - 1, 0, -7):
        lines[i:i] = [b"", b""]
    return b"\n".join(lines)


def bare_cr(data):
    return data.replace(b"\n", b"\r")


def no_final_newline(data):
    return data.rstrip(b"\n")


def multibyte(data):
    return data.replace(b"X01", "X\u20ac\u26031".encode())


def header_only(data):
    return data[: data.index(b"\n") + 1]


@BLOCK_SIZES
@pytest.mark.parametrize("edits", [
    (), (crlf,), (quoted,), (quoted, crlf), (blank_lines,), (blank_lines, crlf), (bare_cr,),
    (no_final_newline,), (multibyte,), (header_only,), (header_only, no_final_newline),
], ids=lambda edits: "+".join(e.__name__ for e in edits) or "lf")
def test_block_reader_matches_row_by_row_oracle(tmp_path, monkeypatch, edits, block):
    read_in_blocks(monkeypatch, block)
    p = tmp_path / "obs.csv"
    generated_observations(p, seed=3, step_minutes=1)
    data = p.read_bytes()
    for edit in edits:
        data = edit(data)
    p.write_bytes(data)
    stations = [E02, E01]
    fast = load_observations(p, stations)
    assert_same_series(fast, reference_load_observations(p, stations))
    assert [s.station for s in fast] == ([] if header_only in edits else stations)


@BLOCK_SIZES
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_block_reader_counts_physical_lines(tmp_path, monkeypatch, block, newline):
    read_in_blocks(monkeypatch, block)
    p = tmp_path / "obs.csv"
    lines = [HEADER, "", f"{stamp(0)},E01,97.0", f'{stamp(0)},"X\n01",97.0', "",
             f"{stamp(5)},E01,9 7.1"]
    p.write_bytes(newline.join(lines).encode() + b"\n")
    with pytest.raises(FormatError, match=re.escape(f"{p}:7: bad pressure '9 7.1'")):
        load_observations(p, [E01])


@BLOCK_SIZES
def test_block_reader_ends_a_line_at_a_bare_cr(tmp_path, monkeypatch, block):
    # as csv.reader does: CR CR LF is a line and a blank line
    read_in_blocks(monkeypatch, block)
    p = tmp_path / "obs.csv"
    p.write_bytes(f"{HEADER}\n{stamp(0)},E01,97.0\r\r\n{stamp(5)},E01,9 7.1\n".encode())
    with pytest.raises(FormatError, match=re.escape(f"{p}:4: bad pressure '9 7.1'")):
        load_observations(p, [E01])


BAD_TIME = "2005-10-01T00:99:00,E01,97.0"
BAD_PRESSURE = f"{stamp(10)},E01,9 7.0"
SHORT_ROW = f"{stamp(15)},E01"


@BLOCK_SIZES
@pytest.mark.parametrize("first, second, message", [
    (BAD_TIME, SHORT_ROW, "bad timestamp '2005-10-01T00:99:00'"),
    (SHORT_ROW, BAD_TIME, "expected 3 fields, got 2"),
    (BAD_PRESSURE, BAD_TIME, "bad pressure '9 7.0'"),
    (BAD_TIME, BAD_PRESSURE, "bad timestamp '2005-10-01T00:99:00'"),
])
def test_block_reader_reports_the_first_fault_in_file_order(tmp_path, monkeypatch, block,
                                                            first, second, message):
    read_in_blocks(monkeypatch, block)
    p = tmp_path / "obs.csv"
    write_lines(p, [f"{stamp(0)},E01,97.0", first, f"{stamp(20)},E01,97.2", second,
                    f"{stamp(25)},E01,97.3"])
    with pytest.raises(FormatError, match=re.escape(f"{p}:3: {message}")):
        load_observations(p, [E01])


@BLOCK_SIZES
@pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
def test_block_reader_parses_values_float_takes_only_as_text(tmp_path, monkeypatch, block,
                                                              quote):
    # float() reads these as str but not as bytes
    read_in_blocks(monkeypatch, block)
    p = tmp_path / "obs.csv"
    values = ["\u0661", "\u0669\u0667.\u0661", "\xa097.2\xa0", "\xa0", "97.4"]
    write_lines(p, [f"{stamp(5 * t)},E01,{quote}{v}{quote}" for t, v in enumerate(values)])
    (series,) = load_observations(p, [E01])
    assert_same_series([series], reference_load_observations(p, [E01]))
    assert np.array_equal(series.values, [1.0, 97.1, 97.2, np.nan, 97.4], equal_nan=True)


def test_block_reader_memory_does_not_grow_with_the_file(tmp_path):
    # the read's peak less the row arrays it returns grows by at most 64 KiB
    # when the file is four times longer: nothing parsed outlives its row
    def working_peak(n_times):
        p = tmp_path / f"obs{n_times}.csv"
        values = 97.0 + np.random.default_rng(n_times).normal(size=(2, n_times))
        write_obs_csv(p, ["E01", "E02"], values, step=60.0)
        tracemalloc.start()
        rows = ingest._read_rows(p, {"E01": 0, "E02": 1})
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(rows[0]) == 2 * n_times
        return peak - sum(map(sys.getsizeof, rows))

    working_peak(6000)  # a first call also counts what numpy loads lazily
    assert working_peak(24000) - working_peak(6000) <= 1 << 16


# -- fill_missing ---------------------------------------------------------


def test_fill_missing_midpoint():
    out = fill_missing(make_series([1.0, np.nan, 3.0]), max_gap=8)
    assert np.allclose(out.values, [1.0, 2.0, 3.0])


def test_fill_missing_identity_when_complete():
    s = make_series([1.0, 2.0, 3.0])
    out = fill_missing(s, max_gap=8)
    assert np.array_equal(out.values, s.values)


def test_fill_missing_long_gap_errors():
    vals = [1.0] + [np.nan] * 9 + [2.0]
    with pytest.raises(DataQualityError, match="X01"):
        fill_missing(make_series(vals), max_gap=8)


def test_fill_missing_interior_interpolation_is_linear():
    vals = [0.0, np.nan, np.nan, np.nan, 4.0]
    out = fill_missing(make_series(vals), max_gap=8)
    assert np.allclose(out.values, [0.0, 1.0, 2.0, 3.0, 4.0])


def test_fill_missing_edge_gaps_copy_nearest():
    out = fill_missing(make_series([np.nan, np.nan, 5.0, 6.0, np.nan]), max_gap=2)
    assert np.allclose(out.values, [5.0, 5.0, 5.0, 6.0, 6.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.one_of(st.floats(90.0, 110.0), st.none()), min_size=3, max_size=40))
def test_fill_missing_idempotent(raw):
    if raw[0] is None or all(v is None for v in raw):
        raw[0] = 100.0
    vals = [np.nan if v is None else v for v in raw]
    try:
        once = fill_missing(make_series(vals), max_gap=8)
    except DataQualityError:
        return
    twice = fill_missing(once, max_gap=8)
    assert np.array_equal(once.values, twice.values)


# -- block_average --------------------------------------------------------


def test_block_average_means():
    out = block_average(make_series([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), block=5)
    assert np.allclose(out.values, [3.0, 8.0])
    assert out.step_seconds == 1500.0


def test_block_average_identity_at_block_one():
    s = make_series([1.5, 2.5, 3.5])
    out = block_average(s, block=1)
    assert np.array_equal(out.values, s.values)


def test_block_average_discards_partial_block():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=43205)
    out = block_average(make_series(vals, step=60.0), block=5)
    assert len(out.values) == 8641
    assert np.isclose(out.values[0], vals[:5].mean())


def test_block_average_rejects_bad_block():
    with pytest.raises(ValueError):
        block_average(make_series([1.0, 2.0]), block=0)


@pytest.mark.parametrize("values, message", [
    ([1.0, np.nan, 3.0], "station X01: block_average requires a complete series"),
    ([1.0], "station X01: 1 values, shorter than one block of 5"),
])
def test_block_average_errors_name_the_station(values, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        block_average(make_series(values), block=5)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=5, max_size=60),
    st.floats(-5, 5),
    st.integers(1, 5),
)
def test_block_average_commutes_with_constant_shift(vals, c, block):
    if len(vals) < block:
        return
    a = block_average(make_series(vals), block=block).values
    b = block_average(make_series(np.array(vals) + c), block=block).values
    assert np.allclose(b, a + c, atol=1e-9)


# -- assemble_grid --------------------------------------------------------


def test_assemble_grid_shape_and_order():
    rng = np.random.default_rng(1)
    stations = [StationMeta(f"E{i:02d}", 36.0 + 0.1 * i, -97.0, 300.0) for i in range(3)]
    series = [make_series(rng.normal(size=12), station=s) for s in stations]
    grid = assemble_grid(series, target_len=10)
    assert grid.values.shape == (3, 11)
    for i, s in enumerate(series):
        assert np.array_equal(grid.values[i], s.values[:11])
    assert [s.id for s in grid.stations] == ["E00", "E01", "E02"]


def test_assemble_grid_single_series():
    grid = assemble_grid([make_series(np.arange(6.0))], target_len=5)
    assert grid.values.shape == (1, 6)


def test_assemble_grid_start_time_mismatch():
    a = make_series(np.arange(6.0))
    b = RawSeries(
        station=StationMeta("Y01", 36.2, -97.1, 310.0),
        start_time=T0 + timedelta(seconds=300),
        step_seconds=300.0,
        values=np.arange(6.0),
    )
    with pytest.raises(AlignmentError, match="start times"):
        assemble_grid([a, b], target_len=5)


@pytest.mark.parametrize("values, step, error, message", [
    (np.arange(6.0), 60.0, AlignmentError, "differing time steps: Y01 at 60 s vs X01 at 300 s"),
    # a one-row station's series has one value and an arbitrary step: the
    # error is its length, checked before the steps
    ([1.0], 60.0, ValidationError, "station Y01: 1 averages < required 6"),
], ids=["step_mismatch", "one_value_series"])
def test_assemble_grid_errors_name_the_station(values, step, error, message):
    other = make_series(values, step=step, station=StationMeta("Y01", 36.2, -97.1, 310.0))
    with pytest.raises(error, match=message):
        assemble_grid([make_series(np.arange(6.0)), other], target_len=5)


def test_assemble_grid_too_short_errors():
    with pytest.raises(ValidationError, match="averages"):
        assemble_grid([make_series(np.arange(5.0))], target_len=5)
