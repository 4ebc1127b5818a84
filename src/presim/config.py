"""Run configuration: one YAML file drives every pipeline stage."""

from dataclasses import dataclass, field
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
        # block 0 or below would run as block 1, a negative target_len
        # would drop series ends, ensemble_count 0 or below would write an
        # empty ensemble or fail inside `simulate`, and fit_max_iter 0 or
        # below would end `fit` before its first iterate
        for name in ("block", "target_len", "ensemble_count", "fit_max_iter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigurationError(f"{name} must be a positive integer; got {value!r}")

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
        raw = yaml.safe_load(Path(path).read_text()) or {}
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)
