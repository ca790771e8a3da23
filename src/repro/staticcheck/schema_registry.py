"""Checked field-registry for serialized schemas (backs rule SVL005).

Every on-disk format in the repo — result JSON, run manifest,
checkpoint payloads, FaultPlan JSON — has a version constant whose
loaders refuse unknown values.  The contract is: *change the field set,
bump the version*.  This registry records, per schema, where its fields
are defined (a dataclass or a dict-literal-building function), the
expected field names, and the expected value of the guarding version
constant.  Rule SVL005 re-extracts the actual fields from the AST and
compares: fields drifted while the version (and this registry) stayed
put means someone forgot the bump.

When a schema legitimately evolves, the fix is two edits: bump the
version constant in its module, and update the matching
:data:`SPECS` entry here (fields and expected version).  The rule
flags either edit made without the other.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple


@dataclass(frozen=True)
class SchemaSpec:
    """One serialized schema: where its fields live, what they should be.

    ``kind`` selects the extraction strategy:

    * ``"dataclass"`` — ``symbol`` names a ClassDef; fields are the
      annotated assignments in its body.
    * ``"dict"`` — ``symbol`` names a function building the payload.
      With ``track_var`` set, fields are the keys of the dict literal
      assigned to that variable plus any ``var["key"] = ...`` stores on
      it; without, fields are the keys of the outermost dict literal(s)
      in the function body.
    """

    name: str
    fields_module: str
    kind: str  # "dataclass" | "dict"
    symbol: str
    fields: FrozenSet[str]
    version_module: str
    versions: Tuple[Tuple[str, int], ...]
    track_var: str = ""


def _spec(
    name: str,
    fields_module: str,
    kind: str,
    symbol: str,
    fields: Tuple[str, ...],
    version_module: str,
    versions: Tuple[Tuple[str, int], ...],
    track_var: str = "",
) -> SchemaSpec:
    return SchemaSpec(
        name=name,
        fields_module=fields_module,
        kind=kind,
        symbol=symbol,
        fields=frozenset(fields),
        version_module=version_module,
        versions=versions,
        track_var=track_var,
    )


#: Every serialized schema the repo commits to.  Ordered by name for
#: deterministic reporting.
SPECS: Tuple[SchemaSpec, ...] = (
    _spec(
        "checkpoint",
        "repro.sim.engine",
        "dict",
        "simulate",
        (
            "engine",
            "cursor",
            "current_epoch",
            "label",
            "elapsed",
            "config",
            "trace_fingerprint",
            "context",
            "policy",
            "cache",
            "stats",
            "appliance",
        ),
        "repro.sim.serialize",
        (("CHECKPOINT_SCHEMA_VERSION", 9),),
        track_var="state",
    ),
    _spec(
        "checkpoint-config",
        "repro.sim.engine",
        "dict",
        "simulate",
        (
            "capacity_blocks",
            "days",
            "track_minutes",
            "write_mode",
            "epoch_seconds",
            "total_epochs",
            "checkpoint_every",
        ),
        "repro.sim.serialize",
        (("CHECKPOINT_SCHEMA_VERSION", 9),),
        track_var="config",
    ),
    _spec(
        "cache-stats-pickle",
        "repro.cache.stats",
        "dict",
        "__getstate__",
        (
            "days",
            "track_minutes",
            "per_day",
            "minutes",
            "minute_reads",
            "minute_writes",
            "degraded_seconds",
            "bypass_seconds",
        ),
        "repro.sim.serialize",
        (("CHECKPOINT_SCHEMA_VERSION", 9),),
    ),
    _spec(
        "day-stats",
        "repro.cache.stats",
        "dataclass",
        "DayStats",
        (
            "accesses",
            "read_hits",
            "write_hits",
            "read_misses",
            "write_misses",
            "allocation_writes",
            "backing_writes",
            "writebacks",
            "read_errors",
            "write_errors",
            "bypass_accesses",
        ),
        "repro.sim.serialize",
        # The stats pickle stores each day as a row in field order.
        (("SCHEMA_VERSION", 1), ("CHECKPOINT_SCHEMA_VERSION", 9)),
    ),
    _spec(
        "fault-plan",
        "repro.faults.plan",
        "dataclass",
        "FaultPlan",
        ("errors", "latency", "outages", "wearout_bytes", "seed"),
        "repro.faults.plan",
        (("PLAN_SCHEMA_VERSION", 1),),
    ),
    _spec(
        "result-json",
        "repro.sim.serialize",
        "dict",
        "result_to_dict",
        ("schema_version", "policy_name", "wall_seconds", "engine", "stats"),
        "repro.sim.serialize",
        (("SCHEMA_VERSION", 1),),
    ),
    _spec(
        "run-manifest",
        "repro.sim.parallel",
        "dict",
        "_build_manifest",
        (
            "schema",
            "names",
            "jobs",
            "track_minutes",
            "fast_path",
            "task_timeout",
            "pool_broken",
            "wall_seconds",
            "tasks",
            "metrics",
        ),
        "repro.sim.parallel",
        (
            ("MANIFEST_SCHEMA_VERSION", 2),
            ("MANIFEST_SCHEMA_VERSION_METRICS", 3),
            ("SHARD_MANIFEST_VERSION", 1),
        ),
        track_var="manifest",
    ),
    _spec(
        "run-manifest-suite",
        "repro.sim.parallel",
        "dict",
        "_run_suite",
        ("requested",),
        "repro.sim.parallel",
        (
            ("MANIFEST_SCHEMA_VERSION", 2),
            ("MANIFEST_SCHEMA_VERSION_METRICS", 3),
        ),
        track_var="manifest_extra",
    ),
    _spec(
        "segment-entry",
        "repro.traces.segments",
        "dataclass",
        "SegmentInfo",
        ("file", "rows", "first_issue", "last_issue", "bytes"),
        "repro.traces.segments",
        (("SEGMENT_MANIFEST_VERSION", 1),),
    ),
    _spec(
        "segment-manifest",
        "repro.traces.segments",
        "dict",
        "_manifest_payload",
        (
            "manifest_version",
            "npz_format_version",
            "description",
            "config_fingerprint",
            "total_rows",
            "segments",
        ),
        "repro.traces.segments",
        (("SEGMENT_MANIFEST_VERSION", 1),),
    ),
    _spec(
        "serve-manifest",
        "repro.serve.bench",
        "dict",
        "manifest",
        ("version", "kind", "gate", "clients"),
        "repro.serve.bench",
        (("MANIFEST_VERSION", 1),),
    ),
    _spec(
        "serve-store-meta",
        "repro.serve.store",
        "dict",
        "_adopt_layout",
        ("layout_version", "shards"),
        "repro.serve.store",
        (("STORE_LAYOUT_VERSION", 2),),
    ),
    _spec(
        "shard-manifest",
        "repro.sim.parallel",
        "dict",
        "run_sharded_replay",
        ("kind", "policy", "shards", "chunk_rows"),
        "repro.sim.parallel",
        (("SHARD_MANIFEST_VERSION", 1),),
        track_var="manifest_extra",
    ),
    _spec(
        "staticcheck-finding",
        "repro.staticcheck.findings",
        "dict",
        "to_dict",
        (
            "code",
            "severity",
            "path",
            "line",
            "col",
            "column",
            "end_line",
            "module",
            "message",
            "symbol",
        ),
        "repro.staticcheck.reporters",
        (("REPORT_FORMAT_VERSION", 2),),
    ),
    _spec(
        "staticcheck-report",
        "repro.staticcheck.reporters",
        "dict",
        "render_json",
        ("version", "findings", "stale_baseline", "summary"),
        "repro.staticcheck.reporters",
        (("REPORT_FORMAT_VERSION", 2),),
    ),
    _spec(
        "stats-json",
        "repro.sim.serialize",
        "dict",
        "stats_to_dict",
        ("days", "per_day", "per_minute", "degraded_seconds", "bypass_seconds"),
        "repro.sim.serialize",
        (("SCHEMA_VERSION", 1),),
        track_var="payload",
    ),
    _spec(
        "task-record",
        "repro.util.fanout",
        "dataclass",
        "TaskRecord",
        (
            "policy",
            "outcome",
            "engine",
            "wall_seconds",
            "retries",
            "worker_pid",
            "executor",
            "error",
            "fault_plan",
            "checkpoint",
            "metrics",
        ),
        "repro.sim.parallel",
        (
            ("MANIFEST_SCHEMA_VERSION", 2),
            ("MANIFEST_SCHEMA_VERSION_METRICS", 3),
        ),
    ),
)


def extract_dataclass_fields(
    tree: ast.Module, symbol: str
) -> Optional[Tuple[int, FrozenSet[str]]]:
    """(line, field names) of the class ``symbol``, or None if absent."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == symbol:
            fields = {
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            }
            return node.lineno, frozenset(fields)
    return None


def extract_dict_fields(
    tree: ast.Module, symbol: str, track_var: str = ""
) -> Optional[Tuple[int, FrozenSet[str]]]:
    """(line, key names) built by the function ``symbol``, or None.

    Only constant string keys count; computed keys (``str(minute)``)
    are intentionally outside the schema contract.
    """
    func = None
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == symbol
        ):
            func = node
            break
    if func is None:
        return None
    fields = set()
    if track_var:
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                targets_var = any(
                    isinstance(t, ast.Name) and t.id == track_var
                    for t in node.targets
                )
                if targets_var and isinstance(node.value, ast.Dict):
                    fields.update(_const_keys(node.value))
                for target in node.targets:
                    key = _subscript_store_key(target, track_var)
                    if key is not None:
                        fields.add(key)
    else:
        dicts = [n for n in ast.walk(func) if isinstance(n, ast.Dict)]
        nested = set()
        for outer in dicts:
            for inner in ast.walk(outer):
                if isinstance(inner, ast.Dict) and inner is not outer:
                    nested.add(id(inner))
        for node in dicts:
            if id(node) not in nested:
                fields.update(_const_keys(node))
    return func.lineno, frozenset(fields)


def extract_versions(tree: ast.Module) -> Dict[str, object]:
    """Module-level ``NAME = <constant>`` assignments."""
    versions: Dict[str, object] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    versions[target.id] = stmt.value.value
        elif (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and isinstance(stmt.value, ast.Constant)
        ):
            versions[stmt.target.id] = stmt.value.value
    return versions


def _const_keys(node: ast.Dict) -> List[str]:
    return [
        key.value
        for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    ]


def _subscript_store_key(target: ast.expr, track_var: str) -> Optional[str]:
    if not isinstance(target, ast.Subscript):
        return None
    if not (
        isinstance(target.value, ast.Name) and target.value.id == track_var
    ):
        return None
    index = target.slice
    if isinstance(index, ast.Constant) and isinstance(index.value, str):
        return index.value
    return None
