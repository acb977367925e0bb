"""Curses-free live terminal dashboard for a serving episode.

``repro top`` drives the same multi-client trace as ``repro serve`` but
renders this dashboard after every scheduler round: queue depth and
occupancy, time-to-first-answer p50/p99, completed/degraded ticket
counts, per-window rate sparklines from the live (unfiltered) timeline
ring, and the most recent anomaly firings.  Rendering is plain text --
a frame is one string, the CLI repaints with an ANSI home+clear when
stdout is a TTY and just prints frames sequentially when it is not
(CI logs stay readable).  Everything here reads existing state; nothing
is recorded dashboard-side.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.timeline import TimelineCollector
    from repro.service.scheduler import QueryScheduler

#: Eight-level block characters, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """Render a numeric series as a fixed-width unicode sparkline.

    The series is resampled to ``width`` points (last ``width`` values
    when longer, left-padded when shorter) and scaled to its own
    min/max; a flat series renders mid-height.  Non-finite values
    render as spaces.
    """
    if width < 1:
        return ""
    tail = [float(v) for v in values[-width:]]
    finite = [v for v in tail if math.isfinite(v)]
    if not finite:
        return " " * width
    low, high = min(finite), max(finite)
    span = high - low
    chars = []
    for value in tail:
        if not math.isfinite(value):
            chars.append(" ")
        elif span <= 0.0:
            chars.append(SPARK_CHARS[len(SPARK_CHARS) // 2])
        else:
            level = int((value - low) / span * (len(SPARK_CHARS) - 1))
            chars.append(SPARK_CHARS[level])
    return " " * (width - len(chars)) + "".join(chars)


def _quantiles(histogram: dict[str, Any]) -> tuple[float, float]:
    return (
        float(histogram.get("p50", float("nan"))),
        float(histogram.get("p99", float("nan"))),
    )


def _fmt_s(value: float) -> str:
    if not math.isfinite(value):
        return "-"
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.1f}ms"
    return f"{value * 1e6:.0f}µs"


def render_dashboard(
    scheduler: "QueryScheduler",
    timeline: "TimelineCollector | None" = None,
    width: int = 44,
) -> str:
    """One dashboard frame for the current scheduler/timeline state."""
    observer = scheduler.observer
    snapshot = observer.snapshot() if observer is not None else {}
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})

    ttfa_p50, ttfa_p99 = _quantiles(
        histograms.get("service.time_to_first_answer.seconds", {})
    )
    occupancy = histograms.get("service.batch_occupancy", {})
    completed = counters.get("service.tickets.completed", 0)
    degraded = counters.get("service.tickets.degraded", 0)

    title = "repro top"
    lines = [title, "-" * len(title)]
    lines.append(
        f"  tick {scheduler.tick:<8} queue {scheduler.queue_depth:<6} "
        f"block cap {scheduler.max_block:<4} "
        f"degraded sessions {gauges.get('service.degraded_sessions', 0):.0f}"
    )
    lines.append(
        f"  tickets: {completed} completed, {degraded} degraded | "
        f"occupancy mean {occupancy.get('mean', 0.0):.1f} "
        f"(n={occupancy.get('count', 0)})"
    )
    lines.append(
        f"  TTFA p50 {_fmt_s(ttfa_p50):<9} p99 {_fmt_s(ttfa_p99):<9} "
        f"anomalies fired {counters.get('anomaly.fired', 0)} "
        f"replans {getattr(scheduler, 'anomaly_replans', 0)}"
    )

    if timeline is not None and timeline.windows:
        windows = list(timeline.windows)
        lines.append(
            f"  timeline: {timeline.n_closed} windows closed "
            f"({timeline.window_ticks} ticks each)"
        )
        for label, key in (
            ("pages/tick", "pages_per_tick"),
            ("queries/tick", "queries_per_tick"),
            ("sharing", "sharing_factor"),
            ("skew", "server_skew"),
        ):
            series = [
                float(w.get("rates", {}).get(key, float("nan")))
                for w in windows
            ]
            if any(math.isfinite(v) for v in series):
                latest = next(
                    (v for v in reversed(series) if math.isfinite(v)),
                    float("nan"),
                )
                lines.append(
                    f"  {label:<13}{sparkline(series, width)}  {latest:.2f}"
                )
    else:
        lines.append("  timeline: (no closed windows yet)")

    feed = list(timeline.anomaly_log)[-5:] if timeline is not None else []
    if feed:
        lines.append("  anomaly feed:")
        for firing in feed:
            lines.append(
                f"    [w{firing.get('window', '?')}] {firing['rule']} "
                f"({firing['kind']}) {firing['series']} = "
                f"{firing['value']:.3g}"
                + ("  -> replan" if firing.get("replan") else "")
            )
    else:
        lines.append("  anomaly feed: (quiet)")
    return "\n".join(lines)
