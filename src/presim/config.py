"""Run configuration: one YAML file drives every pipeline stage."""

from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import yaml

from .errors import ConfigurationError
from .spectrum import OMEGA0_J, KnotSet
from .whittle import FIT_MAX_ITER


@dataclass
class RunConfig:
    stations_path: str = "stations.csv"
    observations_path: str = "observations.csv"
    output_dir: str = "out"
    block: int = 5
    target_len: int = 8640
    max_gap: int = 8
    diurnal_harmonics: int = 15
    volatility_df: float = 72.0
    omega0_j: int = OMEGA0_J  # cutoff as a multiple of pi/4320; 4320 = pi
    ensemble_count: int = 99
    vary_params: bool = True
    held_out_ids: list = field(default_factory=list)
    seed: int | None = None
    fit_max_iter: int = FIT_MAX_ITER

    def __post_init__(self):
        # each value has its default's type, an int standing for a float and
        # no bool for a number; `require_seed` checks the seed
        for f in fields(self):
            kind = type(f.default_factory() if f.default is MISSING else f.default)
            value = getattr(self, f.name)
            if f.name != "seed" and (not isinstance(value, (int, float) if kind is float else kind)
                                     or isinstance(value, bool) and kind is not bool):
                raise ConfigurationError(f"{f.name} must be of type {kind.__name__}; got {value!r}")
        # station ids are strings; a number among them cannot be sorted with them
        for sid in self.held_out_ids:
            if not isinstance(sid, str):
                raise ConfigurationError(f"held_out_ids must hold station ids (str); got {sid!r}")
        # block 0 or below would run as block 1, a negative target_len
        # would drop series ends, ensemble_count 0 or below would write an
        # empty ensemble or fail inside `simulate`, fit_max_iter 0 or
        # below would end `fit` before its first iterate, and a negative
        # max_gap would run as 0
        for name, low in (("block", 1), ("target_len", 1), ("ensemble_count", 1),
                          ("fit_max_iter", 1), ("max_gap", 0)):
            value = getattr(self, name)
            if value < low:
                sign = "positive" if low else "non-negative"
                raise ConfigurationError(f"{name} must be a {sign} integer; got {value!r}")

    def knots(self) -> KnotSet:
        return KnotSet.default(self.omega0_j)

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigurationError("a seed is required for stochastic stages")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer; got {self.seed!r}")
        return self.seed

    @classmethod
    def from_yaml(cls, path) -> "RunConfig":
        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"{path}: not readable YAML ({exc})") from exc
        raw = {} if raw is None else raw  # an empty file
        if not isinstance(raw, dict):
            raise ConfigurationError(f"{path}: not a mapping of config keys to values; got {raw!r}")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown, key=str)}")
        return cls(**raw)
