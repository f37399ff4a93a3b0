"""Cylinder-set counting events on a finite observation horizon.

A :class:`ChannelEvent` prescribes, for one detector, a list of disjoint
half-open windows [a, b) inside [0, horizon) together with an exact photon
count for each, plus a policy for the rest of the horizon: either exactly
zero photons outside the windows, or "free" (photons outside the windows are
unconstrained / unobserved).  A :class:`Event` pairs a forward-channel and a
side-channel event on a common horizon.

Cylinder sets of this form generate the full sigma-field of counting
outcomes, and every probability formula used in this package is expressible
through them.  Times are measured forward from the start of the observation
(emission times); matching output-field conventions that place "now" at the
right end of the window is a fixed shift.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = [
    "Window",
    "ChannelEvent",
    "Event",
    "OUTSIDE_ZERO",
    "OUTSIDE_FREE",
    "zero_photons",
    "free_channel",
    "exact_count",
    "shift_event",
    "concat_events",
    "event_to_json",
    "event_from_json",
]

OUTSIDE_ZERO = "exactly-zero-outside"
OUTSIDE_FREE = "unconstrained-outside"


@dataclass(frozen=True)
class Window:
    """Half-open interval [a, b) carrying an exact photon count."""

    a: float
    b: float
    count: int

    def __post_init__(self):
        if not (self.a < self.b):
            raise ValueError(f"window requires a < b, got [{self.a}, {self.b})")
        if self.count < 0:
            raise ValueError("window count must be >= 0")


@dataclass(frozen=True)
class ChannelEvent:
    """Exact counts in disjoint windows plus an outside policy for one channel."""

    windows: tuple[Window, ...] = ()
    outside: str = OUTSIDE_ZERO

    def __post_init__(self):
        if self.outside not in (OUTSIDE_ZERO, OUTSIDE_FREE):
            raise ValueError(f"unknown outside policy {self.outside!r}")
        object.__setattr__(self, "windows", tuple(sorted(self.windows, key=lambda w: w.a)))
        for w, later in zip(self.windows, self.windows[1:]):
            if later.a < w.b:
                raise ValueError("channel windows must be disjoint")

    @property
    def total_count(self) -> int:
        return sum(w.count for w in self.windows)

    @property
    def free(self) -> bool:
        return self.outside == OUTSIDE_FREE


@dataclass(frozen=True)
class Event:
    """A pair of channel events sharing one observation horizon."""

    forward: ChannelEvent
    side: ChannelEvent
    horizon: float

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("event horizon must be >= 0")
        for name in ("forward", "side"):
            ch: ChannelEvent = getattr(self, name)
            for w in ch.windows:
                if w.a < 0 or w.b > self.horizon + 1e-15:
                    raise ValueError(
                        f"{name} window [{w.a}, {w.b}) not contained in [0, {self.horizon})"
                    )

    @property
    def total_count(self) -> int:
        return self.forward.total_count + self.side.total_count


def zero_photons() -> ChannelEvent:
    """Exactly no photons anywhere on the horizon."""
    return ChannelEvent(windows=(), outside=OUTSIDE_ZERO)


def free_channel() -> ChannelEvent:
    """No constraint at all (detector ignored)."""
    return ChannelEvent(windows=(), outside=OUTSIDE_FREE)


def exact_count(a: float, b: float, count: int, outside: str = OUTSIDE_ZERO) -> ChannelEvent:
    """Exactly ``count`` photons in [a, b), with the given policy elsewhere."""
    return ChannelEvent(windows=(Window(a, b, count),), outside=outside)


def _shift_channel(ch: ChannelEvent, dt: float) -> ChannelEvent:
    return ChannelEvent(
        windows=tuple(Window(w.a + dt, w.b + dt, w.count) for w in ch.windows),
        outside=ch.outside,
    )


def shift_event(e: Event, dt: float, horizon: float) -> Event:
    """Translate all windows by dt and place the event on a new horizon.

    The outside policies are preserved; the caller is responsible for the
    shifted windows landing inside [0, horizon).
    """
    return Event(
        forward=_shift_channel(e.forward, dt),
        side=_shift_channel(e.side, dt),
        horizon=horizon,
    )


def _concat_channel(early: ChannelEvent, late: ChannelEvent) -> ChannelEvent:
    if early.outside != late.outside:
        raise ValueError("cannot concatenate channels with different outside policies")
    return ChannelEvent(windows=early.windows + late.windows, outside=early.outside)


def concat_events(early: Event, late: Event) -> Event:
    """Composition-law event: ``early`` on [0, s), ``late`` shifted to [s, s+t).

    Implements the set F tilde-union (E + s) used by the semigroup
    composition law of the counting maps.
    """
    s = early.horizon
    horizon = s + late.horizon
    late_shifted = shift_event(late, s, horizon)
    return Event(
        forward=_concat_channel(early.forward, late_shifted.forward),
        side=_concat_channel(early.side, late_shifted.side),
        horizon=horizon,
    )


def event_to_json(e: Event) -> str:
    """Serialize to the documented JSON schema (list of window records)."""
    payload = {
        "horizon": e.horizon,
        "channels": {
            name: {
                "outside": ch.outside,
                "windows": [
                    {"channel": name, "window": [w.a, w.b], "count": w.count}
                    for w in ch.windows
                ],
            }
            for name, ch in (("forward", e.forward), ("side", e.side))
        },
    }
    return json.dumps(payload, sort_keys=True)


def _json_number(value, key: str, count: bool = False):
    """``value`` if a finite JSON number, or for a count an integer >= 0; a bool is neither."""
    kinds, need = (int, "an integer >= 0") if count else ((int, float), "a finite number")
    if isinstance(value, bool) or not isinstance(value, kinds) or not (
            value >= 0 if count else -math.inf < value < math.inf):
        raise ValueError(f"event key {key!r} must be {need}, got {value!r}")
    return value


def event_from_json(text: str) -> Event:
    """Parse the schema of :func:`event_to_json`; malformed input raises ValueError.

    ``horizon`` and ``window`` ends are finite JSON numbers and ``count`` a JSON
    integer >= 0; a window's optional ``channel`` names the channel it is under.
    """
    payload = json.loads(text)
    try:
        horizon = float(_json_number(payload["horizon"], "horizon"))
        channels = {}
        for name in ("forward", "side"):
            ch = payload["channels"][name]
            windows = []
            for rec in ch["windows"]:
                if rec.get("channel", name) != name:
                    raise ValueError(f"window listed under {name!r} has channel {rec['channel']!r}")
                a, b = (float(_json_number(x, "window")) for x in rec["window"])
                windows.append(Window(a, b, _json_number(rec["count"], "count", count=True)))
            channels[name] = ChannelEvent(windows=tuple(windows), outside=ch["outside"])
    except KeyError as exc:
        raise ValueError(f"event JSON missing key: {exc.args[0]!r}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed event JSON ({exc})") from exc
    return Event(forward=channels["forward"], side=channels["side"], horizon=horizon)
