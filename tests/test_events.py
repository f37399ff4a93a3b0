import json
import math

import numpy as np
import pytest

from resfluor.events import (
    OUTSIDE_FREE,
    ChannelEvent,
    Event,
    Window,
    concat_events,
    event_from_json,
    event_to_json,
    exact_count,
    free_channel,
    shift_event,
    zero_photons,
)


def test_window_validation():
    with pytest.raises(ValueError):
        Window(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        Window(0.0, 1.0, -1)
    # a count is an integer, as in event_from_json; a bool is not one
    for count in (True, 1.5, 2.0, "1"):
        with pytest.raises(ValueError, match="count"):
            Window(0.1, 0.5, count)
    w = Window(0.1, 0.5, np.int64(2))
    assert type(w.count) is int and w.count == 2
    assert event_to_json(Event(free_channel(), ChannelEvent((w,)), 1.0)) == event_to_json(
        Event(free_channel(), exact_count(0.1, 0.5, 2), 1.0))


def test_channel_event_overlap_rejected():
    with pytest.raises(ValueError):
        ChannelEvent(windows=(Window(0.0, 1.0, 1), Window(0.5, 2.0, 0)))


def test_channel_event_sorts_windows():
    ch = ChannelEvent(windows=(Window(2.0, 3.0, 1), Window(0.0, 1.0, 2)))
    assert [w.a for w in ch.windows] == [0.0, 2.0]
    assert ch.total_count == 3


def test_event_horizon_containment():
    with pytest.raises(ValueError):
        Event(forward=exact_count(0.0, 2.0, 1), side=zero_photons(), horizon=1.0)
    # a window must start inside the horizon, on a zero horizon too
    for ch, horizon in ((exact_count(1.0, 1.0 + 8e-16, 1), 1.0), (exact_count(0.0, 8e-16, 1), 0.0)):
        with pytest.raises(ValueError, match=rf"side window \[{ch.windows[0].a}, "):
            Event(forward=free_channel(), side=ch, horizon=horizon)
    for horizon in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="horizon"):
            Event(forward=zero_photons(), side=zero_photons(), horizon=horizon)


def test_segments_cut_the_horizon_at_every_window_edge():
    # each segment names the window of each channel that holds it, or None;
    # adjacent windows sharing an edge give one cut there
    e = Event(ChannelEvent((Window(0.0, 0.5, 0), Window(0.5, 1.0, 1))), free_channel(), 1.0)
    assert e.segments() == [(0.0, 0.5, (0, None)), (0.5, 1.0, (1, None))]
    # windows on both channels interleave
    e = Event(
        ChannelEvent((Window(0.1, 0.4, 1), Window(0.6, 0.9, 0))),
        ChannelEvent((Window(0.3, 0.7, 2),), OUTSIDE_FREE),
        1.0,
    )
    assert e.segments() == [
        (0.0, 0.1, (None, None)), (0.1, 0.3, (0, None)), (0.3, 0.4, (0, 0)),
        (0.4, 0.6, (None, 0)), (0.6, 0.7, (1, 0)), (0.7, 0.9, (1, None)),
        (0.9, 1.0, (None, None)),
    ]
    # a zero horizon has no segment
    assert Event(free_channel(), zero_photons(), 0.0).segments() == []
    # a window may overhang the horizon by 1e-15; it owns the sliver past it
    b = 0.3 + 2e-16
    e = Event(free_channel(), exact_count(0.1, b, 1), 0.3)
    assert b > 0.3 and e.segments() == [
        (0.0, 0.1, (None, None)), (0.1, 0.3, (None, 0)), (0.3, b, (None, 0)),
    ]


def test_event_json_roundtrip():
    ev = Event(
        forward=exact_count(0.25, 0.75, 2, outside="unconstrained-outside"),
        side=ChannelEvent(windows=(Window(0.0, 0.5, 0), Window(0.5, 1.0, 1))),
        horizon=1.0,
    )
    back = event_from_json(event_to_json(ev))
    assert back == ev
    # JSON integers are numbers, so integral times parse too
    payload = json.loads(event_to_json(ev))
    payload["horizon"], payload["channels"]["forward"]["windows"][0]["window"] = 1, [0, 1]
    back = event_from_json(json.dumps(payload))
    assert back.forward == exact_count(0.0, 1.0, 2, ev.forward.outside)


def test_event_json_window_channel_must_match_its_listing():
    ev = Event(forward=exact_count(0.25, 0.75, 1), side=zero_photons(), horizon=1.0)
    payload = json.loads(event_to_json(ev))
    rec = payload["channels"]["forward"]["windows"][0]
    del rec["channel"]  # the key is optional
    assert event_from_json(json.dumps(payload)) == ev
    rec["channel"] = "side"
    with pytest.raises(ValueError, match="under 'forward' has channel 'side'"):
        event_from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "key, value",
    [("count", 1.5), ("count", 1.0), ("count", True), ("count", "1"), ("count", -1),
     ("horizon", "1"), ("horizon", float("inf")), ("horizon", float("nan")), ("horizon", False),
     ("window", True), ("window", "0.8"), ("window", float("-inf")), ("window", None)],
)
def test_event_json_numbers_are_strict(key, value):
    # no coercion: a count is a JSON integer, a horizon or window end a
    # finite JSON number, and the message names the key
    ev = Event(forward=zero_photons(), side=exact_count(0.25, 0.75, 1), horizon=1.0)
    payload = json.loads(event_to_json(ev))
    rec = payload["channels"]["side"]["windows"][0]
    if key == "horizon":
        payload["horizon"] = value
    elif key == "count":
        rec["count"] = value
    else:
        rec["window"][0] = value
    with pytest.raises(ValueError, match=f"event key '{key}' must be"):
        event_from_json(json.dumps(payload))


def test_event_json_missing_key():
    with pytest.raises(ValueError, match="horizon"):
        event_from_json("{}")


def test_shift_and_concat():
    early = Event(forward=zero_photons(), side=exact_count(0.1, 0.3, 1), horizon=0.5)
    late = Event(forward=exact_count(0.0, 0.2, 1), side=zero_photons(), horizon=0.4)
    combined = concat_events(early, late)
    assert combined.horizon == pytest.approx(0.9)
    assert combined.side.windows[0].a == pytest.approx(0.1)
    assert combined.forward.windows[0].a == pytest.approx(0.5)
    moved = shift_event(early, 0.25, 1.0)
    assert moved.side.windows[0].a == pytest.approx(0.35)
    with pytest.raises(ValueError):
        concat_events(
            early,
            Event(forward=free_channel(), side=zero_photons(), horizon=0.1),
        )
