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
    """The text of a float in every output file: ``%.17g``, 17 significant digits.

    It round-trips every double.  :func:`_format_floats` is its vectorised
    twin for whole columns, byte for byte the same text.
    """
    return "%.17g" % float(x)


# _format_floats: 10**p is exact for p <= 22, and so is its Veltkamp split
_POW10 = np.array([float(10**p) for p in range(23)])
_SPLITTER = 2.0**27 + 1


def _split(a):
    """Veltkamp's split a = hi + lo, each half with at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)
# the four ASCII digits of each integer 0..9999, one 4-byte word each, and
# the number of trailing zeros of that word's text
_WORD = np.arange(10000)
_DIGITS = (np.stack([_WORD // 1000, _WORD // 100 % 10, _WORD // 10 % 10, _WORD % 10], axis=1)
           .astype(np.uint8) + ord("0")).view("<u4").ravel()
_TRAILING_ZEROS = sum((_WORD % 10**j == 0).view(np.int8) for j in (1, 2, 3, 4))
# _AFTER[d] and _BEFORE[d]: 32-byte masks with the bytes j > d, or j < d, set
_AFTER, _BEFORE = (np.where(mask, 255, 0).astype(np.uint8).view("V32").ravel()
                   for mask in (np.arange(32) > np.arange(33)[:, None],
                                np.arange(32) < np.arange(33)[:, None]))


def _format_floats(x: np.ndarray) -> np.ndarray:
    """``format_float`` of each entry of the 1-D float array ``x``, as an ``S24`` array.

    A value with |x| in [1e-4, 1e16) gets its 17 significant digits from
    integer arithmetic: with k = floor(log10 |x|), Dekker's product gives
    hi + lo = |x| * 10**(16 - k) exactly, hi is an even integer (hi >= 2**53),
    so hi + rint(lo) is the correctly rounded 17-digit integer N, ties to
    even, as ``%.17g`` rounds.  N's digits come from a table of 4-digit
    words, laid out in fixed notation with the trailing fraction zeros cut.
    ±0 is written directly.  Every other value, and any N outside
    [10**16, 10**17) (log10 off by one next to a power of ten), goes through
    ``format_float`` itself.
    """
    out = np.zeros(x.size, dtype="S24")
    zero = x == 0
    out[zero] = np.where(np.signbit(x[zero]), b"-0", b"0")
    a = np.abs(x)
    fast = np.flatnonzero((a >= 1e-4) & (a < 1e16))
    a = a[fast]
    k = np.floor(np.log10(a)).astype(np.intp)
    p = 16 - k
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[p], _POW10_LO[p]
    hi = a * _POW10[p]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    good = (n >= 10**16) & (n < 10**17)
    fast, n, k = fast[good], n[good], k[good]
    slow = ~zero
    slow[fast] = False
    # bytes 0..6 of a row are '0' padding, N's 17 digits fill bytes 7..23
    words = np.zeros((fast.size, 8), "<u4")
    words[:, 0] = _DIGITS[0]
    words[:, 1] = _DIGITS[n // 10**16]
    groups = np.empty((n.size, 4), np.int64)
    rest = n % 10**16
    for j, scale in enumerate((10**12, 10**8, 10**4)):
        groups[:, j] = rest // scale
        rest -= groups[:, j] * scale
    groups[:, 3] = rest
    words[:, 2:6] = _DIGITS[groups]
    digits = words.view("<u8").ravel()
    # the same bytes moved one to the left, for the integer part before the '.'
    left = digits >> np.uint64(8)
    left[:-1] |= digits[1:] << np.uint64(56)
    # N's trailing zeros: a group's own count adds on if every later group is 0
    group_zeros = _TRAILING_ZEROS[groups]
    tz = group_zeros[:, 3]
    for j in (2, 1, 0):
        tz += (tz == 4 * (3 - j)) * group_zeros[:, j]
    frac = 16 - k
    cut = np.minimum(tz, frac)
    dot = 7 + k
    end = 24 - cut - (cut == frac)
    # the digits after the '.', those before it from ``left``, none from ``end`` on
    text = left ^ digits
    text &= _AFTER.take(dot).view("<u8")
    text ^= left
    text &= _BEFORE.take(end).view("<u8")
    row = text.view(np.uint8)
    at = np.arange(0, row.size, 32)
    row[at + dot] = np.where(cut < frac, ord("."), 0)
    neg = np.signbit(x[fast])
    first = dot - (np.maximum(k, 0) + 1) - neg
    row[at[neg] + first[neg]] = ord("-")
    windows = np.ndarray((max(row.size - 23, 0),), dtype="S24", buffer=row, strides=(1,))
    out[fast] = windows[at + first]
    out[slow] = [format_float(v).encode() for v in x[slow].tolist()]
    return out


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
