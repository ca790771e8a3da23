"""Trace substrate: data model, synthetic ensemble generator, MSR I/O.

The public surface mirrors what the paper's methodology consumes: a
chronological multi-server block trace (:class:`Trace`), expandable to
512-byte :class:`BlockAccess` records with interpolated completion
times, plus a seeded synthetic generator calibrated to the published
ensemble characteristics (see :mod:`repro.traces.synthetic`).
"""

from repro.traces.columnar import (
    BlockCounts,
    ColumnarTrace,
    as_columnar,
    as_object_trace,
)
from repro.traces.model import (
    BlockAccess,
    IOKind,
    IORequest,
    Trace,
    merge_traces,
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
    generate_ensemble_trace,
    small_config,
    tiny_config,
)
from repro.traces.store import (
    config_fingerprint,
    load_or_generate_columnar,
    load_or_generate_trace,
    trace_cache_dir,
)
from repro.traces.streams import (
    daily_access_totals,
    daily_block_counts,
    daily_read_write_split,
    iter_day_requests,
    per_server_daily_counts,
    split_by_day,
)
from repro.traces.msr import read_msr_csv, write_msr_csv
from repro.traces.validation import Check, ValidationReport, validate_trace

__all__ = [
    "BlockAccess",
    "BlockCounts",
    "ColumnarTrace",
    "as_columnar",
    "as_object_trace",
    "config_fingerprint",
    "load_or_generate_columnar",
    "load_or_generate_trace",
    "trace_cache_dir",
    "IOKind",
    "IORequest",
    "Trace",
    "merge_traces",
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
    "generate_ensemble_trace",
    "small_config",
    "tiny_config",
    "daily_access_totals",
    "daily_block_counts",
    "daily_read_write_split",
    "iter_day_requests",
    "per_server_daily_counts",
    "split_by_day",
    "read_msr_csv",
    "write_msr_csv",
    "Check",
    "ValidationReport",
    "validate_trace",
]
