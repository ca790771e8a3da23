"""Pinned popularity analyses and ideal-sieve statistics on the tiny trace.

The values were computed by the per-block ``Counter`` implementation the
columnar :class:`~repro.traces.columnar.BlockCounts` replaced.  Any
change to how a day's counts are produced, ranked or split by server has
to reproduce them exactly, from the object walk and from the columns
alike, and so does the ideal sieve on both engines.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.analysis.skew import access_count_quantiles
from repro.ensemble.per_server import ensemble_ideal_shares, per_server_ideal_shares
from repro.ensemble.scaling import scaling_profile
from repro.sim import run_policy
from repro.sim.serialize import stats_to_dict
from repro.traces.columnar import ColumnarTrace
from repro.traces.streams import daily_block_counts

ENSEMBLE_SHARES = [
    0.0610576049427585, 0.22949646417312772, 0.14504494901041112,
    0.31610195516429523, 0.12771958855939375, 0.46881031579811916,
    0.15038269123872236, 0.23757212792086538,
]
PER_SERVER_SHARES = [
    0.04615664183172815, 0.2186078214194428, 0.10062893081761007,
    0.2961749752618828, 0.09774535060832283, 0.3818939673935362,
    0.10035489802026767, 0.22633447167875106,
]
#: SHA-256 of each analysis's output as sorted-key JSON.
DIGESTS = {
    "ensemble_ideal_shares":
        "d411f57d4581b3a8931d453ebb58925880da2a47d9e50c8d89e123d23ee11807",
    "per_server_ideal_shares":
        "e849896778d6ae7555f03e9ac22b0c9d78cfc8b92ee938e0e1f32c2e7bdec334",
    "scaling_profile":
        "9741e9a878a2c15b77b682cc44535839b063a4fbb47e2f1d33befdfc10a7311e",
    "access_count_quantiles":
        "0c7403da98b054237b51ac597fc9b1dceb161ff2c8c892fd1fbc5044e8c23077",
}
IDEAL_DAILY_HITS = [672, 13468, 4082, 18528, 6792, 22832, 3517, 14122]
IDEAL_STATS_DIGEST = (
    "afa77ffc60943da3e0daacbfd5cde300724ab7a456dbd34a591aa4bba8f4dd45"
)


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module", params=["object-walk", "columns"])
def analyses(request, tiny_trace, tiny_trace_config):
    days = tiny_trace_config.days
    if request.param == "object-walk":
        counts = daily_block_counts(tiny_trace, days)
    else:
        counts = ColumnarTrace.from_trace(tiny_trace).daily_block_counts(days)
    return {
        "ensemble_ideal_shares": ensemble_ideal_shares(counts),
        "per_server_ideal_shares": per_server_ideal_shares(counts),
        "scaling_profile": [
            asdict(point) for point in scaling_profile(counts, list(range(13)))
        ],
        "access_count_quantiles": [access_count_quantiles(day) for day in counts],
    }


def test_capture_shares_are_pinned(analyses):
    assert analyses["ensemble_ideal_shares"] == ENSEMBLE_SHARES
    assert analyses["per_server_ideal_shares"] == PER_SERVER_SHARES


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_analysis_digest_is_pinned(analyses, name):
    assert digest(analyses[name]) == DIGESTS[name]


@pytest.mark.parametrize("fast", [False, True], ids=["object-engine", "fast-engine"])
def test_ideal_stats_are_pinned(tiny_context, fast):
    result = run_policy("ideal", tiny_context, fast_path=fast)
    assert result.engine == ("fast" if fast else "object")
    assert [day.hits for day in result.stats.per_day] == IDEAL_DAILY_HITS
    assert digest(stats_to_dict(result.stats)) == IDEAL_STATS_DIGEST
