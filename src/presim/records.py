"""One JSON codec for the dataclasses the stages hand each other."""

from dataclasses import MISSING, fields

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
