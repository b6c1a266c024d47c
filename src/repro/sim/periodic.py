"""Exact period detection for simulations built from repeated stages.

A decode step is a pipeline of identical per-layer stages (Fig. 4a), so
once the simulator's state *relative to the clock* repeats at a layer
boundary, determinism fixes everything that follows: the next period
replays the last one, shifted in time.  This module supplies the two
halves a driver needs to exploit that exactly:

* :func:`relative_state` -- a fingerprint of everything that decides the
  future: every channel's in-flight flows (remaining work and request
  tag), armed timer and FIFO booking, and the order in which the pending
  timers fire, all less ``now``.  It is ``None`` when the simulator holds
  something it cannot describe (a pending callback other than a channel
  timer, or an undelivered tail of the current batch), so such a state
  never matches.
* :class:`Totals` -- a snapshot of every accumulator a caller can read
  (channel busy time and work per tag, flash byte counters, the phase
  breakdown), so that the accumulation over one period can be credited
  ``m`` more times without simulating it.

Values are compared at :data:`REL` relative to the magnitude each was
computed from: the absolute clock for delays, the virtual clock for
remaining work.  That is the precision the simulation itself carries.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.sim.channel import Channel
from repro.sim.engine import ScheduledCallback, Simulator

#: Relative tolerance of a state match.
REL = 1e-12


class RelativeState:
    """A fingerprint: a discrete ``key`` plus continuous ``values``."""

    __slots__ = ("key", "values", "scales")

    def __init__(self, key: tuple, values: list[float], scales: list[float]) -> None:
        self.key = key
        self.values = values
        self.scales = scales

    def matches(self, other: "RelativeState") -> bool:
        """Equal keys, and every value equal within :data:`REL`."""
        if self.key != other.key:
            return False
        for a, b, sa, sb in zip(self.values, other.values, self.scales, other.scales):
            if abs(a - b) > REL * max(sa, sb):
                return False
        return True


def relative_state(
    sim: Simulator, extra_key: tuple = (), extra: Iterable[tuple[float, float]] = ()
) -> RelativeState | None:
    """The simulator's state relative to ``sim.now``, or ``None``.

    ``extra_key`` and ``extra`` (``(value, scale)`` pairs) let the driver
    add the state of its own processes.
    """
    entries = sim.pending_entries()
    if entries is None:
        return None
    now = sim.now
    timers = []
    for time, sequence, entry in entries:
        if entry.__class__ is not ScheduledCallback:
            return None
        owner = getattr(entry.callback, "__self__", None)
        if not isinstance(owner, Channel) or not owner.armed_with(entry):
            return None
        timers.append((time, sequence, owner.sim_index))
    timers.sort()
    key: list[Any] = [tuple(i for _, _, i in timers), extra_key]
    values: list[float] = []
    scales: list[float] = []
    for channel in sim.channels:
        state = channel.relative_state(now)
        if state is None:
            continue
        channel_key, channel_values, channel_scales = state
        key.append((channel.sim_index, channel_key))
        values += channel_values
        scales += channel_scales
    for value, scale in extra:
        values.append(value)
        scales.append(scale)
    return RelativeState(tuple(key), values, scales)


class Totals:
    """Every caller-visible accumulator of a simulation, at one instant."""

    __slots__ = ("now", "channels", "totals", "drives", "phases")

    def __init__(self, sim: Simulator, drives: list, phases: dict[str, float]) -> None:
        now = sim.now
        self.now = now
        self.channels = sim.channels
        self.totals = [channel.totals(now) for channel in self.channels]
        self.drives = [
            (
                drive.logical_bytes_read,
                drive.logical_bytes_written,
                drive.physical_bytes_written,
            )
            for drive in drives
        ]
        self.phases = dict(phases)

    def credit(
        self, later: "Totals", times: int, drives: list, phases: dict[str, float]
    ) -> float:
        """Add ``times`` x (``later`` - ``self``) to every accumulator.

        Returns the simulated seconds the credited periods span; the clock
        itself is not moved.
        """
        for channel, (busy0, work0, tags0), (busy1, work1, tags1) in zip(
            self.channels, self.totals, later.totals
        ):
            if work1 == work0 and busy1 == busy0:
                continue
            first = len(tags0)
            channel.add_totals(
                times * (busy1 - busy0),
                times * (work1 - work0),
                [times * (amount - tags0[i]) for i, amount in enumerate(tags1[:first])]
                + [times * amount for amount in tags1[first:]],
            )
        for drive, before, after in zip(drives, self.drives, later.drives):
            drive.logical_bytes_read += times * (after[0] - before[0])
            drive.logical_bytes_written += times * (after[1] - before[1])
            drive.physical_bytes_written += times * (after[2] - before[2])
        for phase, seconds in later.phases.items():
            earlier = self.phases.get(phase, 0.0)
            phases[phase] = phases.get(phase, 0.0) + times * (seconds - earlier)
        return times * (later.now - self.now)
