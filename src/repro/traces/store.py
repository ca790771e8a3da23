"""On-disk trace cache keyed by a ``SyntheticTraceConfig`` content hash.

Every bench session, example, and CLI invocation that replays the
synthetic ensemble used to regenerate it from scratch — tens of seconds
at bench scale, repeated identically across processes.  The generator
is fully deterministic given its config, so the trace is a pure
function of the config's field values: this module fingerprints those
values and keeps the generated trace as one segment store per config,
``trace-<fingerprint>.segments/`` (see :mod:`repro.traces.segments`).
:func:`load_or_generate_segments` streams it;
:func:`load_or_generate_columnar` reads it whole.

Cache location, in precedence order:

1. ``SIEVESTORE_TRACE_CACHE`` environment variable — a directory path,
   or ``""``/``"0"``/``"off"`` to disable caching entirely;
2. otherwise ``.sievestore-trace-cache/`` under the current working
   directory.

A store publishes each segment atomically and its manifest last, so a
crashed or concurrent writer never exposes a partial entry.  An entry
that fails to open, was generated for another config, or fails its
checksummed whole read is evicted with a warning and regenerated rather
than trusted; a store at an explicit directory the cache does not own is
refused instead, and left as it is.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import warnings
from pathlib import Path
from typing import Optional, Union

from repro.traces.columnar import ColumnarTrace
from repro.traces.segments import MANIFEST_NAME, SegmentError, SegmentStore
from repro.traces.model import Trace
from repro.traces.synthetic import EnsembleTraceGenerator, SyntheticTraceConfig

#: Bump to invalidate every cached trace (e.g. when the generator's
#: output changes for identical configs).
TRACE_CACHE_VERSION = 1

#: Environment variable overriding (or disabling) the cache directory.
CACHE_ENV_VAR = "SIEVESTORE_TRACE_CACHE"

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIRNAME = ".sievestore-trace-cache"

_DISABLED_VALUES = {"", "0", "off", "none"}

#: Paths already warned about as non-directories (warn once per path
#: per process; every cache lookup resolves the directory, and a run
#: does many lookups).
_NON_DIRECTORY_WARNED = set()


def _reset_non_directory_warnings() -> None:
    """Forget which bad cache paths were already warned about (tests)."""
    _NON_DIRECTORY_WARNED.clear()


def config_fingerprint(config: SyntheticTraceConfig) -> str:
    """Deterministic content hash of every generator-relevant field.

    Hashes the JSON form of ``dataclasses.asdict(config)`` (which
    recurses into the server/volume profiles) plus the cache version,
    so any config change — including the ensemble inventory — yields a
    different fingerprint.
    """
    payload = {
        "version": TRACE_CACHE_VERSION,
        "config": dataclasses.asdict(config),
    }
    encoded = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(encoded).hexdigest()


def trace_cache_dir(
    cache_dir: Optional[Union[str, Path]] = None,
) -> Optional[Path]:
    """Resolve the cache directory; ``None`` means caching is disabled.

    An explicit ``cache_dir`` argument wins over the environment.  A
    path — explicit or from the environment — that exists but is
    **not** a directory (a stray file where the cache should live)
    disables caching with a one-time warning naming the path, instead
    of failing every cache write with a confusing ``mkdir`` error.
    """
    if cache_dir is not None:
        path = Path(cache_dir)
        if _warn_if_non_directory(path, f"cache_dir={str(cache_dir)!r}"):
            return None
        return path
    env = os.environ.get(CACHE_ENV_VAR)
    if env is not None:
        if env.strip().lower() in _DISABLED_VALUES:
            return None
        path = Path(env)
        if _warn_if_non_directory(path, f"{CACHE_ENV_VAR}={env!r}"):
            return None
        return path
    return Path.cwd() / DEFAULT_CACHE_DIRNAME


def _warn_if_non_directory(path: Path, origin: str) -> bool:
    """True (with a once-per-path warning) if ``path`` is a non-directory."""
    if not path.exists() or path.is_dir():
        return False
    if str(path) not in _NON_DIRECTORY_WARNED:
        _NON_DIRECTORY_WARNED.add(str(path))
        warnings.warn(
            f"{origin} points at an existing non-directory path; trace "
            "caching is disabled for this run (remove the file or use "
            "a directory path)",
            RuntimeWarning,
            stacklevel=4,
        )
    return True


def load_or_generate_columnar(
    config: SyntheticTraceConfig,
    cache_dir: Optional[Union[str, Path]] = None,
) -> ColumnarTrace:
    """Return the columnar ensemble trace for ``config``, cached on disk.

    The trace is the config's :func:`load_or_generate_segments` store,
    read whole with every member's checksum verified; an entry that
    fails that read is evicted with a warning and regenerated.  With
    caching disabled, or the cache unwritable (warned, naming the
    path), the trace is generated in RAM.
    """
    target = segments_path_for(config, cache_dir)
    if target is None:
        _note_cache_outcome("miss")
        return EnsembleTraceGenerator(config).generate_columnar()
    try:
        store = _cached_store(config, target, owned=True)
        if store is not None:
            try:
                columns = store.load_all()
            except SegmentError as exc:
                _evict(target, exc)
            else:
                _note_cache_outcome("hit")
                return columns
        return load_or_generate_segments(config, cache_dir).load_all()
    except OSError as exc:
        # Caching is best-effort, but a silently dead cache means
        # regenerating the trace every run, so say where and why.
        warnings.warn(
            f"trace cache write failed for {target}: {exc}; the trace will be "
            f"regenerated on the next run (set {CACHE_ENV_VAR}=off to silence, "
            "or point it at a writable directory)",
            RuntimeWarning,
            stacklevel=2,
        )
        return EnsembleTraceGenerator(config).generate_columnar()


def _note_cache_outcome(outcome: str) -> None:
    """Count a cache lookup when observability is on (no-op otherwise)."""
    from repro.obs import runtime as obs_runtime

    registry = obs_runtime.get_registry()
    if registry is None:
        return
    registry.counter(
        "trace_cache_requests_total",
        "Trace-cache lookups by outcome (hit / miss / corrupt)",
        ("outcome",),
    ).inc(outcome=outcome)


def segments_path_for(
    config: SyntheticTraceConfig,
    cache_dir: Optional[Union[str, Path]] = None,
) -> Optional[Path]:
    """Segment-store directory for a config, or ``None`` when disabled."""
    directory = trace_cache_dir(cache_dir)
    if directory is None:
        return None
    return directory / f"trace-{config_fingerprint(config)}.segments"


def load_or_generate_segments(
    config: SyntheticTraceConfig,
    cache_dir: Optional[Union[str, Path]] = None,
    directory: Optional[Union[str, Path]] = None,
    rows_per_segment: Optional[int] = None,
) -> SegmentStore:
    """Return the config's trace as an on-disk segment store.

    The generator streams one day at a time into bounded ``.npz``
    segments (never materializing the whole trace); a valid store whose
    recorded config fingerprint matches is reused as-is.

    ``directory`` pins the store location explicitly (the CLI's
    ``--segments-dir`` flag); otherwise the store lives in the trace
    cache keyed by the config fingerprint.  A cached store that is
    unreadable, truncated, version-mismatched, or for another config is
    evicted with a warning and regenerated; at an explicit directory the
    same finding raises :class:`SegmentError` naming the path, and the
    directory's files are left alone.  Segment stores live on disk, so
    with caching disabled and no explicit directory this raises
    ``ValueError``.
    """
    if directory is not None:
        target = Path(directory)
    else:
        target = segments_path_for(config, cache_dir)
        if target is None:
            raise ValueError(
                "segment stores live on disk: pass an explicit directory "
                f"or enable the trace cache (unset {CACHE_ENV_VAR}=off)"
            )
    store = _cached_store(config, target, owned=directory is None)
    if store is not None:
        _note_cache_outcome("hit")
        return store
    _note_cache_outcome("miss")
    return EnsembleTraceGenerator(config).generate_segments(
        target,
        rows_per_segment=rows_per_segment,
        config_fingerprint=config_fingerprint(config),
    )


def _cached_store(
    config: SyntheticTraceConfig, target: Path, owned: bool
) -> Optional[SegmentStore]:
    """This config's store at ``target``, or None to generate one.  A
    manifest that does not open as this config's store is evicted if the
    trace cache ``owned`` the directory, else refused (:class:`SegmentError`)."""
    if not (target / MANIFEST_NAME).exists():
        return None
    try:
        store = SegmentStore.open(target)
        if store.config_fingerprint != config_fingerprint(config):
            raise SegmentError(
                f"segment store {target} was generated for a different "
                "trace config"
            )
    except SegmentError as exc:
        if not owned:
            raise SegmentError(
                f"{target} holds no usable segment store for this trace "
                f"config ({exc}); remove it or pick another directory"
            ) from exc
        _evict(target, exc)
        return None
    return store


def _evict(target: Path, exc: SegmentError) -> None:
    """Count, warn about and delete an unusable cached store."""
    _note_cache_outcome("corrupt")
    warnings.warn(
        f"unusable segment store {target} ({exc}); evicting and regenerating",
        RuntimeWarning,
        stacklevel=3,
    )
    shutil.rmtree(target, ignore_errors=True)


def load_or_generate_trace(
    config: SyntheticTraceConfig,
    cache_dir: Optional[Union[str, Path]] = None,
) -> Trace:
    """Object-trace convenience over :func:`load_or_generate_columnar`."""
    return load_or_generate_columnar(config, cache_dir).to_trace()
