"""Run configuration: one YAML file drives every pipeline stage."""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigurationError
from .spectrum import KNOT_UNIT, KnotSet


@dataclass
class RunConfig:
    stations_path: str = "stations.csv"
    observations_path: str = "observations.csv"
    output_dir: str = "out"
    block: int = 5
    target_len: int = 8640
    max_gap: int = 8
    diurnal_period: int = 288
    diurnal_harmonics: int = 15
    volatility_df: float = 72.0
    omega0_j: int = 720  # cutoff as a multiple of pi/4320; 4320 = pi
    knot_j: dict = field(default_factory=dict)  # optional overrides per function
    ensemble_count: int = 99
    vary_params: bool = True
    variogram_policy: str = "auto"  # auto | nugget | linear
    held_out_ids: list = field(default_factory=list)
    seed: int | None = None
    fit_max_iter: int = 500
    fit_gtol: float = 1e-3

    def knots(self) -> KnotSet:
        if not self.knot_j:
            return KnotSet.default(self.omega0_j)
        base = KnotSet.default(self.omega0_j).to_dict()
        for name in ("s", "beta", "delta", "theta"):
            js = self.knot_j.get(name)
            if js is not None:
                base[f"{name}_knots"] = [j * KNOT_UNIT for j in js]
        return KnotSet.from_dict(base)

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigurationError("a seed is required for stochastic stages")
        return int(self.seed)

    @classmethod
    def from_yaml(cls, path) -> "RunConfig":
        raw = yaml.safe_load(Path(path).read_text()) or {}
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def to_yaml(self) -> str:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        return yaml.safe_dump(d, sort_keys=True)
