"""Run configuration: strict JSON round-trip plus a canonical hash.

A key's rules follow from its field type (``_RULES``): ``int`` keys take a
JSON integer >= 0, ``float`` keys a finite JSON number, ``complex`` keys a
finite number or [re, im] pair (their serialized form); a bool or a string
is no number.  ``mode``, ``initial_state`` and ``master_seed`` add their
own rules; ``horizon``, ``grid_start`` and ``grid_stop`` must be >= 0, and
``quad_order`` >= 1.  Messages name the key, unknown keys are rejected, and
every key has a default.  Floats serialize with 17 significant digits, so
hash and round-trip are exact.  There is no ``threads`` key: the sampler
runs one vectorised batch, and a config that holds one is rejected as
unknown.
"""

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .model import Model, build_model
from .trajectories import SeedSpec

__all__ = ["RunConfig", "config_hash", "format_float", "TOOL_VERSION"]

TOOL_VERSION = "resfluor 0.1.0"


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def _number(v, kinds=(int, float)):
    """``v`` if it is of the given kinds; a bool counts as no number."""
    if isinstance(v, bool) or not isinstance(v, kinds):
        raise TypeError(v)
    return v


def _from_pair(v) -> complex:
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(_number(v[0]), _number(v[1]))
    return complex(_number(v))


def _to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


class _Rule(NamedTuple):
    load: Callable  # JSON value -> field value; raises on a wrong JSON type
    what: str  # what the JSON value must be
    ok: Callable  # check on the field value
    need: str  # what the check requires


_RULES = {
    complex: _Rule(_from_pair, "a number or an [re, im] pair", np.isfinite, "finite"),
    int: _Rule(lambda v: _number(v, int), "an integer", lambda v: v >= 0, ">= 0"),
    float: _Rule(lambda v: float(_number(v)), "a number", np.isfinite, "finite"),
}


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

    def __post_init__(self):
        if self.mode not in ("side-only", "two-channel"):
            raise ValueError("config key 'mode' must be side-only or two-channel")
        if self.initial_state not in ("ground", "excited", "mixed"):
            raise ValueError("config key 'initial_state' must be ground, excited or mixed")
        for f in fields(self):
            rule = _RULES.get(f.type)
            if rule and not rule.ok(getattr(self, f.name)):
                raise ValueError(f"config key {f.name!r} must be {rule.need}")
        for key, low in (("horizon", 0), ("grid_start", 0), ("grid_stop", 0), ("quad_order", 1)):
            if getattr(self, key) < low:
                raise ValueError(f"config key {key!r} must be >= {low}")
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
            f.name: _to_pair(getattr(self, f.name)) if f.type is complex
            else getattr(self, f.name)
            for f in fields(self)
        }

    def to_json(self) -> str:
        return _canonical(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        types = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(data) - set(types))
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}")
        kwargs = dict(data)
        for key, value in data.items():
            rule = _RULES.get(types[key])
            if rule:
                try:
                    kwargs[key] = rule.load(value)
                except TypeError as exc:
                    raise ValueError(
                        f"config key {key!r} must be {rule.what}, got {value!r}"
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
    """Hash of the config's keys, every one of which can change an output."""
    return hashlib.sha256(cfg.to_json().encode()).hexdigest()[:16]
