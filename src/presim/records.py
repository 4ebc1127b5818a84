"""One JSON codec and one JSON text for the records the stages hand each
other, and one writer that puts every artifact in place whole or not at all."""

import json
import os
from contextlib import contextmanager
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

_ARRAY_TYPES = (np.ndarray, np.ndarray | None)


class Record:
    """Base of a dataclass written to JSON as one key per field, in field order.

    The order matters: `condsim.fit_hash` hashes a fit's JSON unsorted. A
    field's key is its name, or `field(metadata={"key": ...})`. Writing: an
    array becomes a list, a tuple a list of its items (an int knot stays an
    int), a nested record its own object; a None field is left out. Reading
    converts each key by its field's annotation, which must be a real type:
    a record reads its object, `np.ndarray` (or `| None`) reads a float
    array, `tuple` and `float` apply themselves, anything else is taken as
    is. A missing key takes the field's default and, without one, raises
    `KeyError(key)`; keys of no field are ignored.
    """

    def to_dict(self) -> dict:
        d = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, np.ndarray):
                value = value.tolist()
            elif isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, Record):
                value = value.to_dict()
            d[f.metadata.get("key", f.name)] = value
        return d

    @classmethod
    def from_dict(cls, d: dict):
        kwargs = {}
        for f in fields(cls):
            key = f.metadata.get("key", f.name)
            if key not in d:
                if f.default is MISSING and f.default_factory is MISSING:
                    raise KeyError(key)
                continue
            value, kind = d[key], f.type
            if isinstance(kind, type) and issubclass(kind, Record):
                value = kind.from_dict(value)
            elif kind in _ARRAY_TYPES:
                value = np.array(value, dtype=float)
            elif kind in (tuple, float):
                value = kind(value)
            kwargs[f.name] = value
        return cls(**kwargs)


def json_text(record) -> str:
    """A JSON artifact's text, keys sorted and indented; its writer writes it as UTF-8."""
    return json.dumps(record, indent=2, sort_keys=True)


@contextmanager
def replacing(directory, *names):
    """Write the files `names` of `directory` together, whole or not at all.

    Makes the directory and yields one `<name>.<pid>.partial` path in it
    per name, for the block to write. When the block ends normally each
    partial replaces its file, in the order of `names`; when it raises,
    every partial is removed and the exception goes on, so the files an
    earlier run left in `directory` stay as they were.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    partials = [directory / f"{name}.{os.getpid()}.partial" for name in names]
    try:
        yield partials
        for partial, name in zip(partials, names):
            os.replace(partial, directory / name)
    except BaseException:
        for partial in partials:
            partial.unlink(missing_ok=True)
        raise
