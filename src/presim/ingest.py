"""Station metadata and raw observation ingest.

Reads the station CSV (`id,latitude_deg,longitude_deg,elevation_m`) and
long-format observation CSV (`timestamp,station_id,pressure_kPa`, missing
encoded as an empty field or `nan`; a field reading ±inf is an error),
fills short gaps by linear interpolation, block-averages, and assembles
the aligned data grid. Timestamps are ISO-8601 in files, normalized to
UTC; internally time is an integer index plus (start, step).

Both CSVs are read by one csv.reader row loop (`_rows`), so quoted fields
keep working and every error names its physical line. The observation
file is parsed once per output directory (the CLI keeps the parse in
`observations.npz`), so its cost is paid by the first stage that reads it.
"""

import csv
import math
from array import array
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone

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


def _rows(path, expected):
    """Yield (line number, fields) of each non-blank data row of a CSV.

    The header must match `expected` and every row must have as many fields.
    A wrong field count, a csv syntax error and undecodable text are
    FormatErrors naming the path and, for the first two, the physical line.
    """
    width = len(expected)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header] != expected:
                raise FormatError(f"{path}: expected header {','.join(expected)}")
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue  # blank line
                    raise FormatError(
                        f"{path}:{reader.line_num}: expected {width} fields, got {len(row)}"
                    )
                yield reader.line_num, row
    except csv.Error as exc:
        raise FormatError(f"{path}:{reader.line_num}: {exc}") from exc
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


def _read_rows(path, index):
    """The lane, time and value arrays of the requested rows, in file order.

    `index` maps each requested station id to its lane; a time is in
    microseconds since the epoch and a blank value is NaN. One csv.reader
    loop (`_rows`) reads the file a row at a time. A row of a station not
    in `index` is never parsed, and a timestamp is parsed only when its
    text differs from that of the row parsed before. The first row that
    does not parse is a FormatError naming its physical line.
    """
    lanes, times, values = rows = (array("h" if len(index) < 2**15 else "i"), array("q"),
                                   array("d"))
    last, micros = None, 0
    for lineno, (text, sid, raw) in _rows(path, _OBSERVATION_HEADER):
        lane = index.get(sid.strip())
        if lane is None:
            continue
        if text != last:
            try:
                micros = _micros(text)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad timestamp {text.strip()!r}") from exc
            last = text
        try:
            value = _pressure(raw)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad pressure {raw.strip()!r}") from exc
        lanes.append(lane)
        times.append(micros)
        values.append(value)
    return rows


def load_observations(path, stations) -> list:
    """Parse the long-format observation CSV into one RawSeries per station.

    Rows may come in any order; each station's rows are sorted by time. The
    step is the smallest interval between a station's timestamps and every
    interval must be a whole multiple of it: a blank or `nan` pressure
    field or an omitted row is a missing value (NaN). A pressure that reads
    as ±inf (`inf`, `1e400`) is a FormatError.

    The file is read one row at a time (`_read_rows`) into three compact
    arrays (station, time, value) that one stable sort by station splits at
    the end. Every error names the first faulty row in file order.
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
    order = np.argsort(times, kind="stable")
    t, v = times[order], values[order]
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
    v, sid = series.values, series.station.id
    if np.isnan(v).any():
        raise ValidationError(f"station {sid}: block_average requires a complete series")
    if len(v) < block:
        raise ValidationError(f"station {sid}: {len(v)} values, shorter than one "
                              f"block of {block}")
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
    need = target_len + 1
    for s in series_list:
        if len(s.values) < need:
            raise ValidationError(
                f"station {s.station.id}: {len(s.values)} averages < required {need}"
            )
        if np.isnan(s.values).any():
            raise ValidationError(f"station {s.station.id}: series incomplete")
    first = series_list[0]
    for s in series_list[1:]:
        if abs(s.step_seconds - first.step_seconds) > 1e-9:
            raise AlignmentError(
                f"series have differing time steps: {s.station.id} at "
                f"{s.step_seconds:g} s vs {first.station.id} at {first.step_seconds:g} s"
            )
        if s.start_time != first.start_time:
            raise AlignmentError(
                f"series start times differ: {s.station.id} at {s.start_time} "
                f"vs {first.station.id} at {first.start_time}"
            )
    values = np.vstack([s.values[:need] for s in series_list])
    return DataGrid(
        stations=[s.station for s in series_list],
        start_time=first.start_time,
        step_seconds=first.step_seconds,
        values=values,
    )
