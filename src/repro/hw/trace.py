"""Timeline traces: utilization, overlap, and text Gantt rendering.

The paper's Figure 10 reasons about CPU/GPU utilization percentages and the
fraction of time both devices compute simultaneously.  This module derives
those quantities exactly from the simulator's task records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .event_sim import Simulator


@dataclass(frozen=True)
class Interval:
    """A half-open occupancy interval [start, end) on a named resource."""

    resource: str
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """An immutable view over the completed tasks of one simulation run."""

    def __init__(self, intervals: Sequence[Interval]) -> None:
        self.intervals = sorted(intervals, key=lambda iv: (iv.start, iv.end))

    @classmethod
    def from_simulator(cls, sim: Simulator) -> "Trace":
        """Every timed task as an interval -- zero-width ones included.

        Zero-duration tasks (graph-mode sync points, zero-cost markers)
        are kept as zero-width intervals so ``count()`` and
        ``total_duration()`` see every task that ran; interval-merging
        queries filter them where positive width is required.
        """
        resources = sim.resource_names
        return cls([Interval(resources[r], name, start, end)
                    for name, r, start, end
                    in zip(sim.names, sim.res, sim.starts, sim.ends)])

    # -- queries -------------------------------------------------------------

    def span(self) -> tuple[float, float]:
        """Earliest start and latest end across all intervals."""
        if not self.intervals:
            return (0.0, 0.0)
        return (
            min(iv.start for iv in self.intervals),
            max(iv.end for iv in self.intervals),
        )

    def for_resource(self, resource: str) -> list[Interval]:
        return [iv for iv in self.intervals if iv.resource == resource]

    def busy_segments(self, resource: str) -> list[tuple[float, float]]:
        """Merged (union) busy segments for one resource.

        Zero-width intervals occupy no time, so they are filtered here
        rather than at trace construction (where they still count).
        """
        return _merge([(iv.start, iv.end) for iv in self.for_resource(resource)
                       if iv.end > iv.start])

    def busy_time(self, resource: str) -> float:
        """Wall-clock time during which ``resource`` runs >= 1 task."""
        return sum(e - s for s, e in self.busy_segments(resource))

    def utilization(self, resource: str,
                    window: Optional[tuple[float, float]] = None) -> float:
        """Fraction of the window during which the resource is busy."""
        lo, hi = window if window is not None else self.span()
        if hi <= lo:
            return 0.0
        segs = _clip(self.busy_segments(resource), lo, hi)
        return sum(e - s for s, e in segs) / (hi - lo)

    def overlap_time(self, res_a: str, res_b: str) -> float:
        """Wall-clock time during which *both* resources are busy."""
        return _intersection_length(
            self.busy_segments(res_a), self.busy_segments(res_b)
        )

    def overlap_fraction(self, res_a: str, res_b: str) -> float:
        lo, hi = self.span()
        if hi <= lo:
            return 0.0
        return self.overlap_time(res_a, res_b) / (hi - lo)

    def count(self, resource: Optional[str] = None,
              name_prefix: Optional[str] = None) -> int:
        """Number of intervals matching the filters."""
        n = 0
        for iv in self.intervals:
            if resource is not None and iv.resource != resource:
                continue
            if name_prefix is not None and not iv.name.startswith(name_prefix):
                continue
            n += 1
        return n

    def total_duration(self, resource: Optional[str] = None,
                       name_prefix: Optional[str] = None) -> float:
        """Sum of interval durations matching the filters (with overlap)."""
        total = 0.0
        for iv in self.intervals:
            if resource is not None and iv.resource != resource:
                continue
            if name_prefix is not None and not iv.name.startswith(name_prefix):
                continue
            total += iv.duration
        return total

    # -- export ----------------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """Chrome ``chrome://tracing`` / Perfetto JSON for the timeline.

        Resources map to process names; each interval becomes a complete
        ('X') event with microsecond timestamps.
        """
        resources = sorted({iv.resource for iv in self.intervals})
        pid_of = {r: i + 1 for i, r in enumerate(resources)}
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid_of[r],
                "args": {"name": r},
            }
            for r in resources
        ]
        for iv in self.intervals:
            events.append({
                "name": iv.name,
                "ph": "X",
                "pid": pid_of[iv.resource],
                "tid": 1,
                "ts": iv.start,
                "dur": iv.duration,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def save_chrome_trace(self, path: str) -> None:
        """Write the Chrome-trace JSON to ``path``."""
        import json

        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_chrome_trace(), f)

    # -- rendering -----------------------------------------------------------

    def render_gantt(self, width: int = 80,
                     resources: Optional[Iterable[str]] = None) -> str:
        """ASCII Gantt chart: one row per resource, '#' marks busy time."""
        lo, hi = self.span()
        if hi <= lo:
            return "(empty trace)"
        names = list(resources) if resources is not None else sorted(
            {iv.resource for iv in self.intervals}
        )
        label_w = max(len(n) for n in names) + 2
        scale = width / (hi - lo)
        lines = []
        for res in names:
            row = [" "] * width
            for s, e in self.busy_segments(res):
                a = int((s - lo) * scale)
                b = max(a + 1, int((e - lo) * scale))
                for i in range(a, min(b, width)):
                    row[i] = "#"
            lines.append(f"{res:<{label_w}}|{''.join(row)}|")
        footer = f"{'':<{label_w}} {lo:.1f}us {'.' * (width - 20)} {hi:.1f}us"
        return "\n".join(lines + [footer])


# -- interval arithmetic ------------------------------------------------------

def _merge(segments: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of possibly-overlapping segments."""
    if not segments:
        return []
    segs = sorted(segments)
    out = [segs[0]]
    for s, e in segs[1:]:
        ps, pe = out[-1]
        if s <= pe:
            out[-1] = (ps, max(pe, e))
        else:
            out.append((s, e))
    return out


def _clip(segments: list[tuple[float, float]], lo: float,
          hi: float) -> list[tuple[float, float]]:
    out = []
    for s, e in segments:
        s2, e2 = max(s, lo), min(e, hi)
        if e2 > s2:
            out.append((s2, e2))
    return out


def _intersection_length(a: list[tuple[float, float]],
                         b: list[tuple[float, float]]) -> float:
    """Total length of the intersection of two merged segment lists."""
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        e = min(a[i][1], b[j][1])
        if e > s:
            total += e - s
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total
