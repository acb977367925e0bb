"""Declarative service-level objectives over the metrics snapshot.

An :class:`SLOObjective` states what "good" means for one signal the
observability layer already records -- no new instrumentation, the
engine is a pure read of :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`:

* ``kind="latency"`` -- at least ``target`` of the observations in the
  named histogram must be <= ``threshold`` seconds.  Compliance is
  counted *conservatively* from the cumulative buckets: an observation
  is good only when its whole bucket's upper bound is <= the threshold,
  so bucket-resolution error can under- but never over-state compliance.
* ``kind="completeness"`` -- the per-ticket answer completeness (1.0
  for normally completed tickets, the recorded fraction for tickets the
  degraded-service path answered partially) must average at least
  ``threshold``, and the fraction of fully-complete tickets must reach
  ``target``.

Each evaluation yields the compliance ratio, the remaining error
budget, and the **burn rate** ``(1 - compliance) / (1 - target)`` --
the standard SRE framing: 1.0 means failures arrive exactly as fast as
the budget allows; above 1.0 the objective is burning budget it does
not have and the result is a breach.

Specs load from a dict or a JSON file (``load_slo_spec``).  ``repro
serve --slo`` and ``repro report --slo`` evaluate and render them (see
``docs/observability.md`` for the spec format).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

#: Valid objective kinds.
KIND_LATENCY = "latency"
KIND_COMPLETENESS = "completeness"

#: Counters the completeness objective reads (stamped by the scheduler).
COMPLETED_COUNTER = "service.tickets.completed"
DEGRADED_COUNTER = "service.tickets.degraded"
COMPLETENESS_HISTOGRAM = "service.completeness"


@dataclass(frozen=True)
class SLOObjective:
    """One declarative objective over an existing metric.

    Parameters
    ----------
    name:
        Display name (``client-latency-p95`` style).
    kind:
        ``"latency"`` or ``"completeness"``.
    metric:
        Histogram name the objective reads.  Latency objectives require
        it; completeness objectives default to the scheduler's
        ``service.completeness`` histogram.
    threshold:
        Latency: the good/bad boundary in seconds.  Completeness: the
        minimum acceptable mean answer completeness.
    target:
        Required fraction of good events (the SLO itself), in (0, 1).
    """

    name: str
    kind: str
    threshold: float
    target: float
    metric: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (KIND_LATENCY, KIND_COMPLETENESS):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if self.kind == KIND_LATENCY and not self.metric:
            raise ValueError("latency objectives need a metric name")
        if self.threshold <= 0.0:
            raise ValueError("threshold must be positive")


@dataclass(frozen=True)
class SLOResult:
    """Evaluation of one objective against one snapshot."""

    objective: SLOObjective
    #: Fraction of good events, or ``None`` with no observations.
    compliance: float | None
    #: Good / total event counts behind the compliance ratio.
    good: float
    total: float
    #: ``(1 - compliance) / (1 - target)``; ``None`` without data.
    burn_rate: float | None
    #: Mean completeness (completeness objectives only).
    mean_completeness: float | None = None

    @property
    def status(self) -> str:
        """``"ok"``, ``"breach"``, or ``"no-data"``."""
        if self.compliance is None:
            return "no-data"
        if self.compliance + 1e-12 < self.objective.target:
            return "breach"
        if (
            self.mean_completeness is not None
            and self.mean_completeness + 1e-12 < self.objective.threshold
        ):
            return "breach"
        return "ok"

    @property
    def ok(self) -> bool:
        """Whether the objective holds (no data counts as holding)."""
        return self.status != "breach"

    def summary(self) -> dict[str, Any]:
        """Flat JSON-ready form (CI artifacts, ``--json`` output)."""
        return {
            "name": self.objective.name,
            "kind": self.objective.kind,
            "metric": self.objective.metric,
            "threshold": self.objective.threshold,
            "target": self.objective.target,
            "compliance": self.compliance,
            "good": self.good,
            "total": self.total,
            "burn_rate": self.burn_rate,
            "mean_completeness": self.mean_completeness,
            "status": self.status,
        }


def _histogram_good_total(
    histogram: Mapping[str, Any], threshold: float
) -> tuple[float, float]:
    """Conservative (good, total) from a histogram snapshot.

    The snapshot lists only non-empty buckets as ``{"le": count}`` with
    the upper bound formatted via ``%.3g`` (infinity as ``"inf"``); a
    bucket is good only when its *upper* bound is <= the threshold, so
    observations straddling the boundary bucket are counted bad.
    """
    total = float(histogram.get("count", 0))
    good = 0.0
    for le_text, count in histogram.get("buckets", {}).items():
        le = float(le_text)
        if le <= threshold:
            good += count
    return good, total


def evaluate_slo(
    objective: SLOObjective, snapshot: Mapping[str, Any]
) -> SLOResult:
    """Evaluate one objective against one metrics snapshot."""
    histograms = snapshot.get("histograms", {})
    if objective.kind == KIND_LATENCY:
        histogram = histograms.get(objective.metric, {})
        good, total = _histogram_good_total(histogram, objective.threshold)
        compliance = good / total if total else None
        burn = _burn_rate(compliance, objective.target)
        return SLOResult(
            objective=objective,
            compliance=compliance,
            good=good,
            total=total,
            burn_rate=burn,
        )
    # Completeness: fully-completed tickets are good; degraded tickets
    # are bad events whose recorded partial completeness still counts
    # toward the mean (the error budget burns by the shortfall).
    counters = snapshot.get("counters", {})
    completed = float(counters.get(COMPLETED_COUNTER, 0))
    metric = objective.metric or COMPLETENESS_HISTOGRAM
    degraded_hist = histograms.get(metric, {})
    degraded = float(degraded_hist.get("count", counters.get(DEGRADED_COUNTER, 0)))
    partial_sum = float(degraded_hist.get("sum", 0.0))
    total = completed + degraded
    compliance = completed / total if total else None
    mean_completeness = (
        (completed + partial_sum) / total if total else None
    )
    burn = _burn_rate(compliance, objective.target)
    return SLOResult(
        objective=objective,
        compliance=compliance,
        good=completed,
        total=total,
        burn_rate=burn,
        mean_completeness=mean_completeness,
    )


def evaluate_slos(
    objectives: Sequence[SLOObjective], snapshot: Mapping[str, Any]
) -> list[SLOResult]:
    """Evaluate every objective against one metrics snapshot."""
    return [evaluate_slo(objective, snapshot) for objective in objectives]


def _burn_rate(compliance: float | None, target: float) -> float | None:
    if compliance is None:
        return None
    budget = 1.0 - target
    burn = (1.0 - compliance) / budget
    return burn if math.isfinite(burn) else None


# ---------------------------------------------------------------------------
# Spec loading
# ---------------------------------------------------------------------------


def parse_slo_spec(spec: Mapping[str, Any]) -> list[SLOObjective]:
    """Build objectives from the dict form of a spec.

    The spec is ``{"objectives": [{name, kind, metric, threshold,
    target}, ...]}``; unknown keys raise so typos fail loudly in CI
    rather than silently weakening an objective.
    """
    raw = spec.get("objectives")
    if not isinstance(raw, list) or not raw:
        raise ValueError("SLO spec needs a non-empty 'objectives' list")
    allowed = {"name", "kind", "metric", "threshold", "target"}
    objectives = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, Mapping):
            raise ValueError(f"objective #{i} is not a mapping")
        unknown = set(entry) - allowed
        if unknown:
            raise ValueError(
                f"objective #{i} has unknown keys: {sorted(unknown)}"
            )
        objectives.append(
            SLOObjective(
                name=str(entry.get("name", f"objective-{i}")),
                kind=str(entry["kind"]),
                metric=str(entry.get("metric", "")),
                threshold=float(entry["threshold"]),
                target=float(entry["target"]),
            )
        )
    return objectives


def load_slo_spec(source: Mapping[str, Any] | str) -> list[SLOObjective]:
    """Load objectives from a dict or a JSON file path."""
    if isinstance(source, Mapping):
        return parse_slo_spec(source)
    with open(source, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, Mapping):
        raise ValueError(f"SLO spec {source!r} is not a mapping")
    return parse_slo_spec(data)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_slo(results: Sequence[SLOResult]) -> str:
    """Aligned text table of SLO evaluations (CLI output)."""
    lines = ["service-level objectives", "-" * len("service-level objectives")]
    header = (
        f"  {'objective':<24}{'kind':<14}{'target':>8}{'compliance':>12}"
        f"{'burn':>8}  status"
    )
    lines.append(header)
    for result in results:
        objective = result.objective
        compliance = (
            f"{result.compliance:12.4f}" if result.compliance is not None else f"{'-':>12}"
        )
        burn = (
            f"{result.burn_rate:8.2f}" if result.burn_rate is not None else f"{'-':>8}"
        )
        lines.append(
            f"  {objective.name:<24}{objective.kind:<14}"
            f"{objective.target:>8.3f}{compliance}{burn}  {result.status}"
        )
        if result.mean_completeness is not None:
            lines.append(
                f"  {'':<24}{'mean completeness':<14}"
                f"{objective.threshold:>8.3f}{result.mean_completeness:>12.4f}"
            )
    breaches = sum(1 for r in results if r.status == "breach")
    lines.append("")
    lines.append(
        f"  {len(results)} objectives, {breaches} breached"
        if breaches
        else f"  {len(results)} objectives, all within budget"
    )
    return "\n".join(lines)
