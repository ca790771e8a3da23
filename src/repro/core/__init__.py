"""The paper's primary contribution: sieving and the SieveStore variants.

* :class:`SieveStoreD` — discrete, access-count-based batch allocation
  (Section 3.2).
* :class:`SieveStoreC` — continuous, two-tier (IMCT/MCT) lazy allocation
  (Section 3.3).
* :class:`IdealDailySieve` — the day-by-day top-1% oracle (Figure 5's
  reference bar).
* :class:`RandSieveBlkD` / :class:`RandSieveC` — random sieving
  baselines.
* :mod:`repro.core.belady` — MIN and its selective-allocation extension
  (the Section 3.1 analysis).
* :class:`SieveStoreAppliance` — the deployable composition of sieve,
  cache, and SSD accounting (Figure 4).
"""

from repro.core.windows import (
    DEFAULT_SUBWINDOWS,
    DEFAULT_WINDOW_SECONDS,
    SubwindowCounter,
    WindowSpec,
)
from repro.core.imct import ImpreciseMissCountTable
from repro.core.mct import MissCountTable
from repro.core.sievestore_c import (
    DEFAULT_T1,
    DEFAULT_T2,
    SieveStoreC,
    SieveStoreCConfig,
)
from repro.core.sievestore_d import (
    DEFAULT_THRESHOLD,
    SieveStoreD,
    SieveStoreDConfig,
)
from repro.core.ideal import (
    IdealDailySieve,
    ideal_capture_shares,
    top_fraction_blocks,
)
from repro.core.random_sieve import RandSieveBlkD, RandSieveC
from repro.core.belady import (
    BeladyResult,
    belady_min,
    belady_selective,
    counterexample_stream,
    fixed_allocation,
    min_compulsory_allocation_bound,
)
from repro.core.appliance import RequestOutcome, SieveStoreAppliance
from repro.core.metastate import (
    DEFAULT_BUDGET,
    MetastateBudget,
    paper_scale_example,
)
from repro.core.autotune import (
    AdaptiveSieveStoreC,
    AdmissionBudget,
    AutoThresholdSieveStoreD,
)
from repro.core.sieve_kernel import SieveStoreCKernel, mix64_array

__all__ = [
    "DEFAULT_SUBWINDOWS",
    "DEFAULT_WINDOW_SECONDS",
    "SubwindowCounter",
    "WindowSpec",
    "ImpreciseMissCountTable",
    "MissCountTable",
    "DEFAULT_T1",
    "DEFAULT_T2",
    "SieveStoreC",
    "SieveStoreCConfig",
    "DEFAULT_THRESHOLD",
    "SieveStoreD",
    "SieveStoreDConfig",
    "IdealDailySieve",
    "ideal_capture_shares",
    "top_fraction_blocks",
    "RandSieveBlkD",
    "RandSieveC",
    "BeladyResult",
    "belady_min",
    "belady_selective",
    "counterexample_stream",
    "fixed_allocation",
    "min_compulsory_allocation_bound",
    "RequestOutcome",
    "SieveStoreAppliance",
    "DEFAULT_BUDGET",
    "MetastateBudget",
    "paper_scale_example",
    "AdaptiveSieveStoreC",
    "AdmissionBudget",
    "AutoThresholdSieveStoreD",
    "SieveStoreCKernel",
    "mix64_array",
]
