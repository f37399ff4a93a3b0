"""Run configuration: strict JSON round-trip plus a canonical hash.

Complex scalars serialize as two-element [re, im] arrays; plain numbers are
accepted on input for convenience.  Unknown keys are rejected by name, and
every value has a default, so a config file only needs to state what it
changes.  The canonical serialization prints floats with 17 significant
digits, making hash and round-trip exact.  The hash leaves out ``threads``,
which changes how a run executes but not what it writes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .model import Model, build_model
from .trajectories import SeedSpec

__all__ = ["RunConfig", "config_hash", "format_float", "TOOL_VERSION"]

TOOL_VERSION = "resfluor 0.1.0"


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def _to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _from_pair(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ValueError(v)


# key groups, converter and what a value must be, for from_dict's messages
_CONVERSIONS = (
    (("kappa_f", "kappa_s", "z"), _from_pair, "a number or an [re, im] pair"),
    (("n_max", "quad_order", "master_seed", "n_traj", "grid_num", "threads"), int,
     "an integer"),
    (("horizon", "grid_start", "grid_stop"), float, "a number"),
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a batch run needs; defaults give the symmetric driven atom."""

    kappa_f: complex = 2.0 ** -0.5
    kappa_s: complex = 2.0 ** -0.5
    z: complex = 1.0
    n_max: int = 6
    quad_order: int = 24
    master_seed: int = 20250809
    n_traj: int = 10000
    horizon: float = 50.0
    mode: str = "side-only"
    initial_state: str = "ground"
    grid_start: float = 0.0
    grid_stop: float = 12.0
    grid_num: int = 241
    threads: int = 1

    def __post_init__(self):
        if self.mode not in ("side-only", "two-channel"):
            raise ValueError(f"config key 'mode' must be side-only or two-channel")
        if self.initial_state not in ("ground", "excited", "mixed"):
            raise ValueError(
                "config key 'initial_state' must be ground, excited or mixed"
            )
        for key in ("n_max", "quad_order", "n_traj", "grid_num", "threads"):
            if getattr(self, key) < 0:
                raise ValueError(f"config key {key!r} must be >= 0")
        for key in ("kappa_f", "kappa_s", "z", "horizon", "grid_start", "grid_stop"):
            if not np.isfinite(getattr(self, key)):
                raise ValueError(f"config key {key!r} must be finite")
        if self.horizon < 0:
            raise ValueError("config key 'horizon' must be >= 0")
        SeedSpec(self.master_seed)

    def model(self) -> Model:
        return build_model(self.kappa_f, self.kappa_s, self.z)

    def rho0(self) -> np.ndarray:
        from .linalg import excited_state, ground_state, maximally_mixed

        return {
            "ground": ground_state,
            "excited": excited_state,
            "mixed": maximally_mixed,
        }[self.initial_state]()

    def grid(self) -> np.ndarray:
        return np.linspace(self.grid_start, self.grid_stop, self.grid_num)

    def to_dict(self) -> dict:
        return {
            "kappa_f": _to_pair(self.kappa_f),
            "kappa_s": _to_pair(self.kappa_s),
            "z": _to_pair(self.z),
            "n_max": self.n_max,
            "quad_order": self.quad_order,
            "master_seed": self.master_seed,
            "n_traj": self.n_traj,
            "horizon": self.horizon,
            "mode": self.mode,
            "initial_state": self.initial_state,
            "grid_start": self.grid_start,
            "grid_stop": self.grid_stop,
            "grid_num": self.grid_num,
            "threads": self.threads,
        }

    def to_json(self) -> str:
        return _canonical(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}")
        kwargs = dict(data)
        for keys, convert, what in _CONVERSIONS:
            for key in keys:
                if key in kwargs:
                    try:
                        kwargs[key] = convert(kwargs[key])
                    except (TypeError, ValueError) as exc:
                        raise ValueError(
                            f"config key {key!r} must be {what}, got {kwargs[key]!r}"
                        ) from exc
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("config JSON must be an object")
        return cls.from_dict(data)


def _canonical(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: RunConfig) -> str:
    """Hash of every key that can change an output; ``threads`` cannot."""
    data = cfg.to_dict()
    del data["threads"]
    return hashlib.sha256(_canonical(data).encode()).hexdigest()[:16]
