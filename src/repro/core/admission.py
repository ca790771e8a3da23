"""Admission gates: one construction point for "who earns a frame".

Both the trace simulator and the live serving layer (:mod:`repro.serve`)
gate allocation through the same object: an
:class:`~repro.cache.allocation.AllocationPolicy` whose ``wants()`` is
consulted on every miss.  Historically each caller hand-built its
policy; this module extracts the shared factory so the serve appliance,
the CLI, and tests name gates by kind instead of duplicating the
``SieveStoreCConfig`` plumbing.

Gate kinds:

``sieve``
    The paper's continuous two-tier sieve (:class:`SieveStoreC` —
    IMCT at ``t1``, MCT at ``t2``, sliding window ``W/k``).  This is
    the highly-selective gate that keeps allocation-writes off the
    device.
``unsieved``
    Allocate on every miss (:class:`AllocateOnDemand`) — the AOD
    baseline the serve bench compares allocation-write counts against.
``read-only``
    Allocate on read misses only (:class:`WriteMissNoAllocate`).
``never``
    Never allocate (:class:`NeverAllocate`) — pass-through cache, used
    by tests and as a degenerate baseline.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cache.allocation import (
    AllocateOnDemand,
    AllocationPolicy,
    NeverAllocate,
    WriteMissNoAllocate,
)
from repro.core.sievestore_c import SieveStoreC, SieveStoreCConfig
from repro.core.windows import WindowSpec

#: Gate kinds accepted by :func:`build_admission_gate`.
GATE_KINDS: Tuple[str, ...] = ("sieve", "unsieved", "read-only", "never")


def build_admission_gate(
    kind: str = "sieve",
    *,
    imct_slots: int = 1 << 16,
    t1: Optional[int] = None,
    t2: Optional[int] = None,
    window: Optional[WindowSpec] = None,
    single_tier_admission: bool = False,
) -> AllocationPolicy:
    """Build an admission gate by kind (see module docs).

    The sieve parameters (``imct_slots``, ``t1``, ``t2``, ``window``,
    ``single_tier_admission``) apply only to ``kind="sieve"``; the
    other kinds take no parameters.  Defaults follow
    :class:`SieveStoreCConfig` (the paper's t1=9, t2=4, W=8h, k=4).

    A gate takes non-decreasing times: the sieve's IMCT keeps one clock
    for all its slots, and a ``wants`` behind it raises ``time moved
    backwards`` whatever the address.
    """
    if kind == "sieve":
        config_kwargs: dict = {
            "imct_slots": imct_slots,
            "single_tier_admission": single_tier_admission,
        }
        if t1 is not None:
            config_kwargs["t1"] = t1
        if t2 is not None:
            config_kwargs["t2"] = t2
        if window is not None:
            config_kwargs["window"] = window
        return SieveStoreC(SieveStoreCConfig(**config_kwargs))
    if kind == "unsieved":
        return AllocateOnDemand()
    if kind == "read-only":
        return WriteMissNoAllocate()
    if kind == "never":
        return NeverAllocate()
    raise ValueError(
        f"unknown admission-gate kind {kind!r} (expected one of {GATE_KINDS})"
    )


def gate_allocation_writes(gate: AllocationPolicy) -> Optional[int]:
    """Allocation decisions a gate has made, when it counts them.

    :class:`SieveStoreC` tracks admissions natively; the stateless
    baselines return ``None`` (the caller's own counters are
    authoritative there).
    """
    admissions = getattr(gate, "admissions", None)
    return int(admissions) if admissions is not None else None
