"""Declared metric-name registry (backs rule SVL009).

Every ``counter()`` / ``gauge()`` / ``histogram()`` registration in the
tree must match one of these specs: same kind, same label-name set.
The exporter renders whatever the registry holds, CI assertions grep
for these exact names, and the parallel runner merges snapshots by
name+labels — so a call site drifting (renamed metric, added label,
counter re-registered as a gauge) silently breaks dashboards and CI
greps the way an unbumped schema breaks loaders.  SVL009 re-extracts
every registration site from the AST and compares against this file,
exactly the way SVL005 treats ``schema_registry``.

When a metric legitimately changes, the fix is two edits: change the
call site(s), and update the matching :data:`METRICS` entry here.
``module`` records the metric's owning module so the rule can flag a
stale registry entry (spec with no surviving call site) only when that
module is actually part of the scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric: name, kind, label names, owning module."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: Tuple[str, ...]
    module: str


def _m(name: str, kind: str, labels: Tuple[str, ...], module: str) -> MetricSpec:
    return MetricSpec(name=name, kind=kind, labels=labels, module=module)


#: Every metric the repo emits, ordered by name.
METRICS: Tuple[MetricSpec, ...] = (
    _m(
        "appliance_health_transitions_total",
        "counter",
        ("policy", "from_state", "to_state"),
        "repro.obs.instrument",
    ),
    _m("imct_alias_collisions_total", "counter", ("policy",), "repro.obs.instrument"),
    _m("mct_entries", "gauge", ("policy",), "repro.obs.instrument"),
    _m("mct_evictions_total", "counter", ("policy",), "repro.obs.instrument"),
    _m("mct_inserts_total", "counter", ("policy",), "repro.obs.instrument"),
    _m("mct_peak_entries", "gauge", ("policy",), "repro.obs.instrument"),
    _m("segment_opens_total", "counter", (), "repro.traces.segments"),
    _m("segment_rows_read_total", "counter", (), "repro.traces.segments"),
    _m(
        "serve_allocation_writes_total",
        "counter",
        (),
        "repro.serve.appliance",
    ),
    _m("serve_device_ops_total", "counter", ("op",), "repro.serve.appliance"),
    _m(
        "serve_health_transitions_total",
        "counter",
        ("from_state", "to_state"),
        "repro.serve.appliance",
    ),
    _m("serve_ops_total", "counter", ("op", "outcome"), "repro.serve.appliance"),
    _m("serve_store_commits_total", "counter", (), "repro.serve.store"),
    _m("sieve_admissions_total", "counter", ("policy",), "repro.obs.instrument"),
    _m("sieve_promotions_total", "counter", ("policy",), "repro.obs.instrument"),
    _m(
        "sieve_rejections_total",
        "counter",
        ("policy", "tier"),
        "repro.obs.instrument",
    ),
    _m("sieve_tracked_blocks", "gauge", ("policy",), "repro.obs.instrument"),
    _m(
        "sim_blocks_per_second",
        "gauge",
        ("policy", "engine"),
        "repro.obs.instrument",
    ),
    _m("sim_blocks_total", "counter", ("policy", "engine"), "repro.obs.instrument"),
    _m(
        "sim_epoch_wall_seconds",
        "histogram",
        ("policy", "engine"),
        "repro.obs.instrument",
    ),
    _m(
        "sim_requests_total",
        "counter",
        ("policy", "engine"),
        "repro.obs.instrument",
    ),
    _m(
        "sim_wall_seconds_total",
        "counter",
        ("policy", "engine"),
        "repro.obs.instrument",
    ),
    _m(
        "suite_retries_total",
        "counter",
        ("policy",),
        "repro.util.fanout",
    ),
    _m(
        "suite_task_wait_seconds",
        "histogram",
        ("executor",),
        "repro.util.fanout",
    ),
    _m(
        "suite_tasks_total",
        "counter",
        ("outcome", "executor"),
        "repro.util.fanout",
    ),
    _m(
        "trace_cache_requests_total",
        "counter",
        ("outcome",),
        "repro.traces.store",
    ),
)


def specs_by_name() -> Dict[str, MetricSpec]:
    """Name -> spec lookup (names are unique by construction)."""
    return {spec.name: spec for spec in METRICS}
