"""Station metadata and raw observation ingest.

Reads the station CSV (`id,latitude_deg,longitude_deg,elevation_m`) and
long-format observation CSV (`timestamp,station_id,pressure_kPa`, missing
encoded as an empty field or `nan`; a field reading ±inf is an error),
fills short gaps by linear interpolation, block-averages, and assembles
the aligned data grid. Timestamps are ISO-8601 in files, normalized to
UTC; internally time is an integer index plus (start, step).

The observation file is read in blocks of whole lines, `BLOCK_BYTES` at a
time. A plain block (no quote character, blank line or line over the csv
field size limit, three fields on every line, and all lines ending in LF
or all in CRLF) is split on commas and newlines into column lists;
csv.reader tokenizes any other block, so quoted fields keep working and
every error names its physical line. The station file is small and always
goes through csv.reader.
"""

import csv
import io
import math
from array import array
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from itertools import chain, compress

import numpy as np

from .errors import AlignmentError, DataQualityError, FormatError, ValidationError


@dataclass(frozen=True)
class StationMeta:
    id: str
    latitude: float
    longitude: float
    elevation: float

    def __post_init__(self):
        if not (-90.0 <= self.latitude <= 90.0):
            raise ValidationError(f"station {self.id}: latitude {self.latitude} out of range")
        if not (-180.0 <= self.longitude <= 180.0):
            raise ValidationError(f"station {self.id}: longitude {self.longitude} out of range")
        if not math.isfinite(self.elevation):
            raise ValidationError(f"station {self.id}: elevation not finite")


@dataclass(frozen=True)
class RawSeries:
    """One station's series; missing values are NaN."""

    station: StationMeta
    start_time: datetime
    step_seconds: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.step_seconds <= 0:
            raise ValidationError("step must be positive")
        if len(values) == 0:
            raise ValidationError("empty series")


@dataclass(frozen=True)
class DataGrid:
    """Complete n x T matrix of kPa on a shared time axis."""

    stations: list
    start_time: datetime
    step_seconds: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] != len(self.stations):
            raise ValidationError("grid shape inconsistent with station list")
        if values.shape[1] < 2:
            raise ValidationError("grid needs at least 2 time steps")
        if np.isnan(values).any():
            raise ValidationError("grid contains missing values")

    @property
    def n_stations(self) -> int:
        return self.values.shape[0]

    @property
    def n_times(self) -> int:
        return self.values.shape[1]

    @property
    def elevations(self) -> np.ndarray:
        return np.array([s.elevation for s in self.stations])


def _header(reader, path, expected):
    """Read the header row of a csv reader; it must match `expected`."""
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise FormatError(f"{path}:{reader.line_num}: {exc}") from exc
    if header is None or [c.strip() for c in header] != expected:
        raise FormatError(f"{path}: expected header {','.join(expected)}")


def _csv_rows(reader, path, width, line=0):
    """Yield (line number, fields) of each non-blank row a csv reader reads.

    Every row must have `width` fields; a wrong field count and a csv syntax
    error are FormatErrors naming the path and the physical line, which is
    `line` plus the lines the reader has read.
    """
    try:
        for row in reader:
            if len(row) != width:
                if not row:
                    continue  # blank line
                raise FormatError(
                    f"{path}:{line + reader.line_num}: expected {width} fields, got {len(row)}"
                )
            yield line + reader.line_num, row
    except csv.Error as exc:
        raise FormatError(f"{path}:{line + reader.line_num}: {exc}") from exc


def _rows(path, expected):
    """Yield (line number, fields) of each non-blank data row of a CSV.

    The header must match `expected` and every row must have as many fields;
    undecodable text and csv syntax errors are FormatErrors naming the path.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            _header(reader, path, expected)
            yield from _csv_rows(reader, path, len(expected))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def load_stations(path) -> list:
    """Parse the station CSV; duplicate ids are rejected."""
    stations = []
    seen = set()
    for lineno, (sid, lat, lon, elev) in _rows(
        path, ["id", "latitude_deg", "longitude_deg", "elevation_m"]
    ):
        try:
            meta = StationMeta(id=sid.strip(), latitude=float(lat), longitude=float(lon),
                               elevation=float(elev))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad station row ({exc})") from exc
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        if meta.id in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate station id {meta.id!r}")
        seen.add(meta.id)
        stations.append(meta)
    return stations


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
_OBSERVATION_HEADER = ["timestamp", "station_id", "pressure_kPa"]
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\r\n")))  # translate() deletes these

BLOCK_BYTES = 1 << 16  # the observation reader's read size


def _micros(text: str) -> int:
    """Microseconds since the epoch of an ISO-8601 field; no offset reads as UTC."""
    ts = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return (ts - _EPOCH) // _MICROSECOND


def _pressure(text: str) -> float:
    """The value of a pressure field; a blank one is missing (NaN), and ±inf is an error."""
    try:
        value = float(text)
    except ValueError:
        if text.strip():
            raise
        return math.nan
    if math.isinf(value):
        raise ValueError(f"infinite pressure {text!r}")
    return value


def _instant(micros) -> datetime:
    """UTC datetime of integer microseconds since the epoch."""
    return _EPOCH + timedelta(microseconds=int(micros))


def _blocks(fh):
    """Blocks of whole lines of a binary file, read BLOCK_BYTES at a time.

    A block ends at a newline outside any quoted field (an even number of
    quote characters before it) or at the end of the file.
    """
    rest = b""
    while chunk := fh.read(BLOCK_BYTES):
        rest += chunk
        cut = rest.rfind(b"\n") + 1
        if cut and rest.count(b'"', 0, cut) % 2 == 0:
            yield rest[:cut]
            rest = rest[cut:]
    if rest:
        yield rest


def _tokens(block: bytes, path, line: int):
    """Tokenize a block whose first line follows physical line `line`.

    Returns the block's rows as columns (line numbers, timestamps, station
    ids, pressures), its number of physical lines, and the FormatError at
    which tokenizing stopped, or None. A plain block, with no quote
    character, blank line or line over the csv field size limit, three
    fields on every line and all lines ending in LF or all in CRLF, is
    split on commas and newlines; csv.reader tokenizes any other.
    """
    plain = block if block.endswith(b"\n") else block + b"\n"
    if b'"' not in plain and len(plain) <= csv.field_size_limit():
        separators = plain.translate(None, _NOT_SEPARATORS)
        pattern = b",,\r\n" if separators.endswith(b"\r\n") else b",,\n"
        n = len(separators) // len(pattern)
        if separators == pattern * n:  # all LF or all CRLF lines of three fields
            # a CRLF line's CR stays on its pressure field, which float() strips
            fields = plain.decode("utf-8").replace("\n", ",").split(",")
            fields.pop()  # after the last newline
            return (range(line + 1, line + n + 1), fields[0::3], fields[1::3], fields[2::3]), n, None
    reader = csv.reader(io.StringIO(block.decode("utf-8"), newline=""))
    rows, fault = [], None
    try:
        for lineno, row in _csv_rows(reader, path, 3, line):
            rows.append((lineno, *row))
    except FormatError as exc:
        fault = exc
    return [list(c) for c in zip(*rows)] or [[], [], [], []], reader.line_num, fault


def _raise_first_fault(path, lines, times, raws):
    """Raise the FormatError of the first row whose timestamp or pressure does not parse."""
    for lineno, text, raw in zip(lines, times, raws):
        try:
            _micros(text)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad timestamp {text.strip()!r}") from exc
        try:
            _pressure(raw)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad pressure {raw.strip()!r}") from exc


def _append(path, columns, rows, index):
    """Parse a block's columns and append each requested row to `rows`.

    `rows` holds the lane, time and value arrays; `index` maps a requested
    station id to its lane. Rows of other stations are never parsed. Each
    distinct timestamp field is parsed once. A row that does not parse
    raises for the first such row in file order.
    """
    lines, times, sids, raws = columns
    slots = {sid: index.get(sid.strip(), -1) for sid in set(sids)}  # -1: not requested
    picks = np.fromiter(map(slots.__getitem__, sids), dtype=rows[0].typecode, count=len(sids))
    if (picks < 0).any():
        keep = picks >= 0
        kept = keep.tolist()
        picks = picks[keep]
        lines, times, raws = (list(compress(c, kept)) for c in (lines, times, raws))
    try:
        instants = dict.fromkeys(times)
        for text in instants:
            instants[text] = _micros(text)
        micros = np.fromiter(map(instants.__getitem__, times), dtype=np.int64, count=len(times))
        try:
            values = np.fromiter(map(float, raws), dtype=float, count=len(raws))
        except ValueError:  # blank fields, or a bad one
            values = np.fromiter(map(_pressure, raws), dtype=float, count=len(raws))
        if np.isinf(values).any():
            raise ValueError("an infinite pressure")
    except ValueError:
        _raise_first_fault(path, lines, times, raws)
        raise  # not reached: some row above failed
    for column, parsed in zip(rows, (picks, micros, values)):
        column.frombytes(parsed.tobytes())


def _read_rows(path, index):
    """The lane, time and value arrays of the requested rows, in file order.

    `index` maps each requested station id to its lane; a time is in
    microseconds since the epoch and a blank value is NaN. The file is read
    in blocks of whole lines (`_blocks`); each is tokenized (`_tokens`) and
    its columns parsed (`_append`) before the next is read.
    """
    rows = (array("h" if len(index) < 2**15 else "i"), array("q"), array("d"))
    try:
        with open(path, "rb") as fh:
            blocks = _blocks(fh)
            first = io.StringIO(next(blocks, b"").decode("utf-8"), newline="")
            reader = csv.reader(first)
            _header(reader, path, _OBSERVATION_HEADER)
            line = reader.line_num
            for block in chain([first.read().encode("utf-8")], blocks):
                columns, n_lines, fault = _tokens(block, path, line)
                _append(path, columns, rows, index)
                if fault is not None:
                    raise fault
                line += n_lines
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return rows


def load_observations(path, stations) -> list:
    """Parse the long-format observation CSV into one RawSeries per station.

    Rows may come in any order; each station's rows are sorted by time. The
    step is the smallest interval between a station's timestamps and every
    interval must be a whole multiple of it: a blank or `nan` pressure
    field or an omitted row is a missing value (NaN). A pressure that reads
    as ±inf (`inf`, `1e400`) is a FormatError.

    The file is read in blocks of whole lines (`BLOCK_BYTES` at a time).
    A plain block is split into three column lists and csv.reader
    tokenizes any other (`_tokens`); either way the columns are parsed
    together, each distinct timestamp of a block once, into three compact
    arrays (station, time, value) that one stable sort by station splits
    at the end. Nothing parsed outlives its block, and every error names
    the first faulty row in file order.
    """
    by_id = {s.id: s for s in stations}
    lanes, times, values = _read_rows(path, {sid: k for k, sid in enumerate(by_id)})
    lane = np.frombuffer(lanes, dtype=lanes.typecode)
    order = np.argsort(lane, kind="stable")  # file order within each station
    ends = np.cumsum(np.bincount(lane, minlength=len(by_id))).tolist()
    del lane, lanes
    times = np.frombuffer(times, dtype=np.int64)[order]  # frees each column once sorted
    values = np.frombuffer(values, dtype=float)[order]
    del order
    return [
        _station_series(path, station, times[start:end], values[start:end])
        for station, start, end in zip(by_id.values(), [0, *ends], ends)
        if end > start
    ]


def _station_series(path, station: StationMeta, times, values) -> RawSeries:
    """Sort one station's rows and lay them on a regular grid, NaN where omitted."""
    t = np.frombuffer(times, dtype=np.int64)
    v = np.frombuffer(values, dtype=float)
    order = np.argsort(t, kind="stable")
    t, v = t[order], v[order]
    if len(t) == 1:
        return RawSeries(station=station, start_time=_instant(t[0]), step_seconds=60.0, values=v)
    gaps = np.diff(t)
    if not gaps.all():
        at = t[np.argmin(gaps)]
        raise AlignmentError(
            f"{path}: station {station.id}: repeated timestamp {_instant(at).isoformat()}"
        )
    step = gaps.min()
    uneven = gaps % step != 0
    if uneven.any():
        at = t[np.argmax(uneven)]
        raise AlignmentError(
            f"{path}: station {station.id}: uneven time step near {_instant(at).isoformat()}"
        )
    step_seconds = int(step) / 1_000_000
    slots = (t - t[0]) // step
    n_slots = int(slots[-1]) + 1
    if n_slots > 2 * len(t):
        raise AlignmentError(
            f"{path}: station {station.id}: {len(t)} rows at a {step_seconds:g} s step "
            f"leave {n_slots - len(t)} of {n_slots} slots omitted"
        )
    if n_slots != len(v):
        full = np.full(n_slots, np.nan)
        full[slots] = v
        v = full
    return RawSeries(station=station, start_time=_instant(t[0]), step_seconds=step_seconds,
                     values=v)


def fill_missing(series: RawSeries, max_gap: int) -> RawSeries:
    """Linearly interpolate interior gaps of at most max_gap missing values.

    Leading/trailing gaps up to max_gap are filled by copying the nearest
    present value (no extrapolation). Longer gaps raise DataQualityError.
    """
    v = series.values.copy()
    missing = np.isnan(v)
    if not missing.any():
        return series
    if missing.all():
        raise DataQualityError(f"station {series.station.id}: series entirely missing")

    idx = np.flatnonzero(missing)
    # group consecutive indices into gaps
    splits = np.flatnonzero(np.diff(idx) > 1) + 1
    for gap in np.split(idx, splits):
        lo, hi = gap[0], gap[-1]
        if len(gap) > max_gap:
            t0 = series.start_time
            raise DataQualityError(
                f"station {series.station.id}: gap of {len(gap)} > {max_gap} "
                f"missing values at steps {lo}..{hi} after {t0.isoformat()}"
            )
        left = lo - 1
        right = hi + 1
        if left < 0:
            v[lo : hi + 1] = v[right]
        elif right >= len(v):
            v[lo : hi + 1] = v[left]
        else:
            frac = (np.arange(lo, hi + 1) - left) / (right - left)
            v[lo : hi + 1] = v[left] + frac * (v[right] - v[left])
    return replace(series, values=v)


def block_average(series: RawSeries, block: int) -> RawSeries:
    """Non-overlapping block means; a trailing partial block is discarded."""
    if block <= 0:
        raise ValueError("block must be >= 1")
    v = series.values
    if np.isnan(v).any():
        raise ValidationError("block_average requires a complete series")
    if len(v) < block:
        raise ValidationError("series shorter than one block")
    nblocks = len(v) // block
    avg = v[: nblocks * block].reshape(nblocks, block).mean(axis=1)
    return replace(series, values=avg, step_seconds=series.step_seconds * block)


def assemble_grid(series_list, target_len: int) -> DataGrid:
    """Align complete series into an n x (target_len + 1) grid.

    One extra block average is kept so the differenced series has length
    target_len.
    """
    if not series_list:
        raise ValidationError("no series to assemble")
    first = series_list[0]
    for s in series_list[1:]:
        if abs(s.step_seconds - first.step_seconds) > 1e-9:
            raise AlignmentError("series have differing time steps")
        if s.start_time != first.start_time:
            raise AlignmentError(
                f"series start times differ: {s.station.id} at {s.start_time} "
                f"vs {first.station.id} at {first.start_time}"
            )
    need = target_len + 1
    for s in series_list:
        if len(s.values) < need:
            raise ValidationError(
                f"station {s.station.id}: {len(s.values)} averages < required {need}"
            )
        if np.isnan(s.values).any():
            raise ValidationError(f"station {s.station.id}: series incomplete")
    values = np.vstack([s.values[:need] for s in series_list])
    return DataGrid(
        stations=[s.station for s in series_list],
        start_time=first.start_time,
        step_seconds=first.step_seconds,
        values=values,
    )
