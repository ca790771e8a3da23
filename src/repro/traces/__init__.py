"""Trace substrate: columnar traces, synthetic ensemble generator, MSR I/O.

The public surface mirrors what the paper's methodology consumes: a
chronological multi-server block trace held as columns
(:class:`ColumnarTrace`, one row per request, the form every replay and
analysis reads) with per-day popularity tables (:class:`BlockCounts`),
plus a seeded synthetic generator calibrated to the published ensemble
characteristics (see :mod:`repro.traces.synthetic`).  The object model
in :mod:`repro.traces.model` is the tests' readable reference, reached
through :meth:`ColumnarTrace.to_trace`.
"""

from repro.traces.columnar import BlockCounts, ColumnarTrace
from repro.traces.model import (
    pack_address,
    server_of_address,
    unpack_address,
    volume_of_address,
)
from repro.traces.servers import (
    PAPER_SERVERS,
    ServerProfile,
    VolumeProfile,
    paper_ensemble,
    table1_rows,
)
from repro.traces.synthetic import (
    EnsembleTraceGenerator,
    SyntheticTraceConfig,
    small_config,
    tiny_config,
)
from repro.traces.store import (
    config_fingerprint,
    load_or_generate_columnar,
    trace_cache_dir,
)
from repro.traces.msr import read_msr_csv, write_msr_csv
from repro.traces.validation import Check, ValidationReport, validate_trace

__all__ = [
    "BlockCounts",
    "ColumnarTrace",
    "config_fingerprint",
    "load_or_generate_columnar",
    "trace_cache_dir",
    "pack_address",
    "server_of_address",
    "unpack_address",
    "volume_of_address",
    "PAPER_SERVERS",
    "ServerProfile",
    "VolumeProfile",
    "paper_ensemble",
    "table1_rows",
    "EnsembleTraceGenerator",
    "SyntheticTraceConfig",
    "small_config",
    "tiny_config",
    "read_msr_csv",
    "write_msr_csv",
    "Check",
    "ValidationReport",
    "validate_trace",
]
