"""Sub-day epochs: batch allocation-writes land on the right calendar day.

Epoch boundary ``k`` fires at ``k * epoch_seconds``.  For sub-day
epochs that instant is generally *not* day ``k`` — a 7-hour epoch's
fourth boundary (28 h) belongs to calendar day 1 — and the Section 5.1
epoch-length sensitivity analysis depends on the attribution being the
day *containing* the boundary.  Both engines must agree, and the
default one-day epoch must keep its historical bucketing (boundary k at
k * 86400 == start of day k).
"""


from repro.core.sievestore_d import SieveStoreD, SieveStoreDConfig
from repro.sim.engine import simulate, total_epoch_count
from repro.sim.experiment import build_policy
from repro.traces.columnar import ColumnarTrace
from repro.traces.model import IOKind, IORequest, Trace
from repro.util.intervals import SECONDS_PER_DAY

SEVEN_HOURS = 7 * 3600.0


def one_block_read(time, address):
    return IORequest(
        issue_time=time,
        completion_time=time + 0.01,
        server_id=0,
        volume_id=0,
        block_offset=address,
        block_count=1,
        kind=IOKind.READ,
    )


def admit_everything():
    """SieveStore-D that batches every block seen in the epoch."""
    return SieveStoreD(SieveStoreDConfig(threshold=0, capacity_blocks=1 << 20))


class TestSevenHourEpochsOverEightDays:
    """One fresh block per 7 h epoch: boundary k installs epoch k-1's
    block, so exactly one allocation-write lands at k * 25200 s."""

    DAYS = 8

    def build_trace(self):
        epochs = total_epoch_count(self.DAYS, SEVEN_HOURS)
        assert epochs == 28
        # One request in each full epoch 0..26 (epoch 27 is the partial
        # tail beyond the 8-day trace).
        requests = [
            one_block_read(epoch * SEVEN_HOURS + 60.0, 1000 + epoch)
            for epoch in range(epochs - 1)
        ]
        return Trace(requests)

    def expected_per_day(self):
        """Each boundary's single install, bucketed by calendar day."""
        expected = [0] * self.DAYS
        for boundary in range(1, 28):
            boundary_time = boundary * SEVEN_HOURS
            day = min(int(boundary_time // SECONDS_PER_DAY), self.DAYS - 1)
            expected[day] += 1
        return expected

    def run(self, fast_path):
        trace = self.build_trace()
        result = simulate(
            trace if not fast_path else ColumnarTrace.from_trace(trace),
            admit_everything(),
            1 << 20,
            days=self.DAYS,
            epoch_seconds=SEVEN_HOURS,
            fast_path=fast_path,
        )
        assert result.engine == ("fast" if fast_path else "object")
        return result

    def test_reference_path_buckets_by_boundary_day(self):
        result = self.run(fast_path=False)
        assert result.daily_allocation_writes() == self.expected_per_day()

    def test_fast_path_buckets_by_boundary_day(self):
        result = self.run(fast_path=True)
        assert result.daily_allocation_writes() == self.expected_per_day()

    def test_not_bucketed_by_epoch_index(self):
        # The old bug: day = epoch index.  27 boundaries over 8 days
        # clamp to [1, 1, 1, 1, 1, 1, 1, 21] under that rule — ensure
        # we are not reproducing it.
        by_epoch_index = [0] * self.DAYS
        for boundary in range(1, 28):
            by_epoch_index[min(boundary, self.DAYS - 1)] += 1
        assert self.expected_per_day() != by_epoch_index
        assert (
            self.run(fast_path=False).daily_allocation_writes()
            != by_epoch_index
        )


class TestMidDayBoundary:
    def test_noon_boundary_attributed_to_day_zero(self):
        # A 12 h epoch's first boundary (noon of day 0) must charge its
        # batch to day 0; the epoch-index rule charged day 1.
        trace = Trace([one_block_read(60.0, 5)])
        result = simulate(
            trace, admit_everything(), 16, days=2,
            epoch_seconds=12 * 3600.0,
        )
        assert result.daily_allocation_writes() == [1, 0]


class TestEnginesAgreeOnSharedTrace:
    def test_sub_day_epoch_per_day_identical(self, tiny_context):
        policy_slow, capacity = build_policy("sievestore-d", tiny_context)
        policy_fast, _ = build_policy("sievestore-d", tiny_context)
        slow = simulate(
            tiny_context.object_trace(), policy_slow, capacity,
            tiny_context.days, epoch_seconds=SEVEN_HOURS, fast_path=False,
        )
        fast = simulate(
            tiny_context.columnar_trace(), policy_fast, capacity,
            tiny_context.days, epoch_seconds=SEVEN_HOURS, fast_path=True,
        )
        assert (slow.engine, fast.engine) == ("object", "fast")
        assert fast.stats.per_day == slow.stats.per_day
        assert fast.stats.per_minute == slow.stats.per_minute
        # Totals are conserved: bucketing moves writes between days,
        # never creates or destroys them.
        assert sum(fast.daily_allocation_writes()) == sum(
            slow.daily_allocation_writes()
        )


class TestDailyEpochUnchanged:
    def test_boundary_times_coincide_with_day_starts(self, tiny_context):
        # With the default one-day epoch, boundary k fires at k * 86400
        # — the first instant of day k — so the fixed attribution rule
        # reduces to the historical `day = epoch` bucketing exactly.
        policy_default, capacity = build_policy("sievestore-d", tiny_context)
        policy_explicit, _ = build_policy("sievestore-d", tiny_context)
        default = simulate(
            tiny_context.object_trace(), policy_default, capacity,
            tiny_context.days,
        )
        explicit = simulate(
            tiny_context.object_trace(), policy_explicit, capacity,
            tiny_context.days, epoch_seconds=float(SECONDS_PER_DAY),
        )
        assert default.stats.per_day == explicit.stats.per_day
        for day in range(tiny_context.days):
            boundary_time = day * float(SECONDS_PER_DAY)
            assert int(boundary_time // SECONDS_PER_DAY) == day
