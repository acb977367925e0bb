"""Online anomaly detection over timeline windows.

Declarative rules -- loaded from JSON or the same dependency-free
mini-YAML subset :mod:`repro.obs.slo` parses -- are evaluated by an
:class:`AnomalyEngine` against every window the
:class:`~repro.obs.timeline.TimelineCollector` closes.  Three rule
kinds cover the ROADMAP's "replan adaptively from live metrics" loop:

* ``kind="threshold"`` -- fire when the windowed series compares true
  against a fixed value (``counters.service.tickets.degraded > 0``).
* ``kind="ewma"`` -- fire when the series drifts from its exponentially
  weighted moving average by more than a relative ``tolerance``; the
  first ``warmup`` windows only feed the average, so startup transients
  never fire.
* ``kind="ratio_to_baseline"`` -- fire when the series exceeds
  ``max_ratio`` times a committed baseline value from
  ``benchmarks/baselines.json`` (optionally rescaled, e.g. a per-window
  budget derived from a whole-run baseline).

Series are addressed as ``<section>.<name>`` into the window record --
``counters.*`` / ``gauges.*`` / ``collected.*`` are windowed registry
series, ``cost.*`` the block-level cost-counter deltas, ``rates.*`` the
derived rates, and ``observations.<name>.count|sum|mean`` windowed
histogram deltas.  A series absent from a window is *skipped*, not
fired: no data is not an anomaly, mirroring the SLO engine's
no-data-is-not-a-breach stance.

Each firing increments ``anomaly.fired`` (and a per-rule counter),
emits an ``anomaly.fired`` observer event, lands in the window record,
and -- the part that closes the loop -- is queued on the collector for
:meth:`repro.service.scheduler.QueryScheduler.replan`, which reacts to
rules marked ``replan: true`` by halving its block cap.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.obs.slo import _parse_mini_yaml

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observer import Observer

KIND_THRESHOLD = "threshold"
KIND_EWMA = "ewma"
KIND_RATIO = "ratio_to_baseline"

_KINDS = (KIND_THRESHOLD, KIND_EWMA, KIND_RATIO)

#: Comparison operators (YAML authors must quote the symbol forms).
_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}
_OP_ALIASES = {"gt": ">", "ge": ">=", "lt": "<", "le": "<="}

_WINDOW_SECTIONS = (
    "counters",
    "gauges",
    "collected",
    "cost",
    "rates",
    "observations",
    "servers",
)


@dataclass
class AnomalyRule:
    """One declarative rule over a windowed series.

    Parameters
    ----------
    name:
        Display name (``degraded-tickets`` style); also the suffix of
        the per-rule ``anomaly.fired.<name>`` counter.
    kind:
        ``"threshold"``, ``"ewma"`` or ``"ratio_to_baseline"``.
    series:
        Window series selector, ``<section>.<name>`` (see module doc).
    op / value:
        Threshold rules: fire when ``series op value`` holds.
    alpha / tolerance / warmup:
        EWMA rules: smoothing factor, relative drift bound, and the
        number of windows that only feed the average before any firing.
    baseline / baseline_field / max_ratio / scale:
        Ratio rules: entry key in the baseline store, dotted field path
        inside the entry (default ``seconds``), the firing ratio, and a
        rescaling factor applied to the baseline value first.
    replan:
        Whether the scheduler should react (halve its block cap).
    """

    name: str
    kind: str
    series: str
    op: str = ">"
    value: float = 0.0
    alpha: float = 0.3
    tolerance: float = 0.5
    warmup: int = 3
    baseline: str = ""
    baseline_field: str = "seconds"
    max_ratio: float = 2.0
    scale: float = 1.0
    replan: bool = False
    # EWMA state (mutated across windows).
    _ewma: float | None = field(default=None, repr=False, compare=False)
    _seen: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown anomaly kind {self.kind!r}")
        self.op = _OP_ALIASES.get(self.op, self.op)
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison op {self.op!r}")
        section = self.series.split(".", 1)[0]
        if "." not in self.series or section not in _WINDOW_SECTIONS:
            raise ValueError(
                f"series {self.series!r} must be <section>.<name> with "
                f"section in {_WINDOW_SECTIONS}"
            )
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.warmup < 1:
            raise ValueError("warmup must be >= 1")
        if self.kind == KIND_RATIO and not self.baseline:
            raise ValueError("ratio_to_baseline rules need a baseline key")
        if self.max_ratio <= 0.0 or self.scale <= 0.0:
            raise ValueError("max_ratio and scale must be positive")


def series_value(window: Mapping[str, Any], series: str) -> float | None:
    """Resolve a ``<section>.<name>`` selector against one window.

    Returns ``None`` when the series is absent (skip, don't fire).
    Observation selectors take a trailing ``.count`` / ``.sum`` /
    ``.mean`` accessor (default ``mean``).
    """
    section, _, name = series.partition(".")
    values = window.get(section)
    if not isinstance(values, Mapping) or not name:
        return None
    if section == "observations":
        accessor = "mean"
        base, _, tail = name.rpartition(".")
        if tail in ("count", "sum", "mean") and base:
            name, accessor = base, tail
        entry = values.get(name)
        if not isinstance(entry, Mapping):
            return None
        count = float(entry.get("count", 0))
        total = float(entry.get("sum", 0.0))
        if accessor == "count":
            return count
        if accessor == "sum":
            return total
        return total / count if count else None
    value = values.get(name)
    return float(value) if isinstance(value, (int, float)) else None


class AnomalyEngine:
    """Evaluates a rule set against every closed timeline window."""

    def __init__(
        self,
        rules: Sequence[AnomalyRule],
        baselines: Mapping[str, Any] | None = None,
    ):
        if not rules:
            raise ValueError("anomaly engine needs at least one rule")
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names in {names}")
        self.rules = list(rules)
        #: ``entry key -> entry dict`` view of a baseline store.
        self.baselines = dict(baselines) if baselines else {}
        self.n_fired = 0

    def evaluate(
        self,
        window: Mapping[str, Any],
        observer: "Observer | None" = None,
    ) -> list[dict[str, Any]]:
        """One pass of every rule over one window; returns the firings.

        Firing side effects (counters, observer event) happen here so
        callers -- the timeline collector, primarily -- only have to
        route the returned firing records.
        """
        firings = []
        for rule in self.rules:
            firing = self._evaluate_rule(rule, window)
            if firing is None:
                continue
            firings.append(firing)
            self.n_fired += 1
            if observer is not None:
                observer.metrics.inc("anomaly.fired")
                observer.metrics.inc(f"anomaly.fired.{rule.name}")
                observer.event(
                    "anomaly.fired",
                    rule=rule.name,
                    kind=rule.kind,
                    series=rule.series,
                    value=firing["value"],
                    window=firing["window"],
                )
        return firings

    def _evaluate_rule(
        self, rule: AnomalyRule, window: Mapping[str, Any]
    ) -> dict[str, Any] | None:
        value = series_value(window, rule.series)
        if value is None:
            return None
        detail: dict[str, Any]
        if rule.kind == KIND_THRESHOLD:
            fired = _OPS[rule.op](value, rule.value)
            detail = {"op": rule.op, "threshold": rule.value}
        elif rule.kind == KIND_EWMA:
            previous, seen = rule._ewma, rule._seen
            rule._seen = seen + 1
            rule._ewma = (
                value
                if previous is None
                else rule.alpha * value + (1.0 - rule.alpha) * previous
            )
            if previous is None or seen < rule.warmup:
                return None
            bound = rule.tolerance * max(abs(previous), 1e-9)
            fired = abs(value - previous) > bound
            detail = {"ewma": previous, "tolerance": rule.tolerance}
        else:  # ratio_to_baseline
            entry = self.baselines.get(rule.baseline)
            if entry is None:
                return None
            reference = _field(entry, rule.baseline_field)
            if reference is None or reference <= 0.0:
                return None
            reference *= rule.scale
            ratio = value / reference
            fired = ratio > rule.max_ratio
            detail = {
                "baseline": rule.baseline,
                "reference": reference,
                "ratio": ratio,
                "max_ratio": rule.max_ratio,
            }
        if not fired:
            return None
        firing = {
            "rule": rule.name,
            "kind": rule.kind,
            "series": rule.series,
            "value": value,
            "window": window.get("window"),
            "tick_end": window.get("tick_end"),
            "replan": rule.replan,
        }
        firing.update(detail)
        return firing


def _field(entry: Mapping[str, Any], path: str) -> float | None:
    """Dotted-path lookup into a baseline entry (``counters.x`` etc.)."""
    node: Any = entry
    for part in path.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


# ---------------------------------------------------------------------------
# Spec loading
# ---------------------------------------------------------------------------

_RULE_KEYS = {
    "name",
    "kind",
    "series",
    "op",
    "value",
    "alpha",
    "tolerance",
    "warmup",
    "baseline",
    "baseline_field",
    "max_ratio",
    "scale",
    "replan",
}

_FLOAT_KEYS = ("value", "alpha", "tolerance", "max_ratio", "scale")


def parse_anomaly_spec(spec: Mapping[str, Any]) -> list[AnomalyRule]:
    """Build rules from the dict form of a spec.

    The spec is ``{"rules": [{name, kind, series, ...}, ...]}`` plus an
    optional top-level ``baseline_store`` path; unknown keys raise so
    typos fail loudly rather than silently disarming a rule.
    """
    raw = spec.get("rules")
    if not isinstance(raw, list) or not raw:
        raise ValueError("anomaly spec needs a non-empty 'rules' list")
    rules = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, Mapping):
            raise ValueError(f"rule #{i} is not a mapping")
        unknown = set(entry) - _RULE_KEYS
        if unknown:
            raise ValueError(f"rule #{i} has unknown keys: {sorted(unknown)}")
        kwargs: dict[str, Any] = {
            "name": str(entry.get("name", f"rule-{i}")),
            "kind": str(entry["kind"]),
            "series": str(entry["series"]),
        }
        for key in ("op", "baseline", "baseline_field"):
            if key in entry:
                kwargs[key] = str(entry[key])
        for key in _FLOAT_KEYS:
            if key in entry:
                kwargs[key] = float(entry[key])
        if "warmup" in entry:
            kwargs["warmup"] = int(entry["warmup"])
        if "replan" in entry:
            kwargs["replan"] = bool(entry["replan"])
        rules.append(AnomalyRule(**kwargs))
    return rules


def load_anomaly_spec(
    source: Mapping[str, Any] | str,
) -> tuple[list[AnomalyRule], str | None]:
    """Load ``(rules, baseline_store_path)`` from a dict/JSON/YAML spec.

    A string is a file path; JSON is tried first, then the mini-YAML
    subset shared with :mod:`repro.obs.slo`.  A relative
    ``baseline_store`` in a file-loaded spec is resolved against the
    working directory first, then the spec file's directory, then the
    spec's parent directory -- so the committed ``ci/anomaly.yml``
    (which names ``benchmarks/baselines.json`` relative to the
    repository root) works from any working directory.
    """
    spec_dir: str | None = None
    if isinstance(source, Mapping):
        data: Mapping[str, Any] = source
    else:
        spec_dir = os.path.dirname(os.path.abspath(source))
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            data = _parse_mini_yaml(text)
        if not isinstance(data, Mapping):
            raise ValueError(f"anomaly spec {source!r} is not a mapping")
    store = str(data["baseline_store"]) if data.get("baseline_store") else None
    if store and spec_dir is not None and not os.path.isabs(store):
        for root in (os.getcwd(), spec_dir, os.path.dirname(spec_dir)):
            candidate = os.path.normpath(os.path.join(root, store))
            if os.path.exists(candidate):
                store = candidate
                break
    return parse_anomaly_spec(data), store


def load_anomaly_engine(
    source: Mapping[str, Any] | str,
    baseline_store: str | None = None,
) -> AnomalyEngine:
    """Build an engine from a spec, resolving its baseline store.

    ``baseline_store`` overrides the spec's own ``baseline_store``
    path.  The store is the schema-checked ``repro bench`` format (see
    :func:`repro.obs.regression.load_store`); without one,
    ``ratio_to_baseline`` rules simply never fire.
    """
    rules, spec_store = load_anomaly_spec(source)
    store_path = baseline_store or spec_store
    baselines: Mapping[str, Any] = {}
    if store_path:
        from repro.obs.regression import load_store

        baselines = load_store(store_path)
    return AnomalyEngine(rules, baselines=baselines)
