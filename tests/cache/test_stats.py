"""Cache statistics accounting (per-day and per-minute)."""

import pickle
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.stats import CacheStats, DayStats, MinuteIO, _record_allocations
from repro.sim.serialize import stats_from_dict, stats_to_dict
from repro.util.intervals import SECONDS_PER_DAY


class TestDayStats:
    def test_hit_ratio(self):
        day = DayStats(accesses=10, read_hits=3, write_hits=2,
                       read_misses=4, write_misses=1)
        assert day.hit_ratio == 0.5

    def test_hit_ratio_idle_day(self):
        assert DayStats().hit_ratio == 0.0

    def test_ssd_operations_include_allocation_writes(self):
        # Figure 7: SSD ops = read hits + write hits + allocation-writes.
        day = DayStats(accesses=10, read_hits=4, write_hits=2,
                       read_misses=3, write_misses=1, allocation_writes=7)
        assert day.ssd_operations == 13
        assert day.ssd_writes == 9


class TestCacheStats:
    def test_rejects_zero_days(self):
        with pytest.raises(ValueError):
            CacheStats(days=0)

    def test_records_per_day(self):
        stats = CacheStats(days=2)
        stats.record_hit(10.0, is_write=False)
        stats.record_miss(SECONDS_PER_DAY + 5.0, is_write=True)
        assert stats.per_day[0].read_hits == 1
        assert stats.per_day[1].write_misses == 1

    def test_overflow_day_clamped_to_last(self):
        stats = CacheStats(days=2)
        stats.record_hit(5 * SECONDS_PER_DAY, is_write=False)
        assert stats.per_day[1].read_hits == 1

    def test_allocation_writes_not_accesses(self):
        stats = CacheStats(days=1)
        stats.record_allocation_write(0.0, blocks=3)
        assert stats.per_day[0].allocation_writes == 3
        assert stats.per_day[0].accesses == 0
        stats.check_consistency()

    def test_consistency_check_fires(self):
        stats = CacheStats(days=1)
        stats.per_day[0].accesses = 5  # corrupt
        with pytest.raises(AssertionError):
            stats.check_consistency()

    def test_total_aggregates(self):
        stats = CacheStats(days=2)
        stats.record_hit(0.0, is_write=False, blocks=2)
        stats.record_miss(SECONDS_PER_DAY + 1, is_write=False, blocks=3)
        total = stats.total
        assert total.accesses == 5
        assert total.read_hits == 2
        assert total.read_misses == 3

    @settings(max_examples=60, deadline=None)
    @given(
        requests=st.lists(
            st.tuples(
                st.floats(0, 3 * SECONDS_PER_DAY, allow_nan=False),
                st.booleans(),
                st.integers(0, 12),
                st.integers(0, 12),
            ),
            max_size=12,
        )
    )
    def test_record_accesses_is_the_per_block_calls(self, requests):
        tallied, per_block = CacheStats(days=2), CacheStats(days=2)
        expected = [DayStats(), DayStats()]
        for time, is_write, hits, misses in requests:
            tallied.record_accesses(time, is_write, hits, misses)
            for _ in range(hits):
                per_block.record_hit(time, is_write)
            for _ in range(misses):
                per_block.record_miss(time, is_write)
            day = expected[min(int(time // SECONDS_PER_DAY), 1)]
            day.accesses += hits + misses
            if is_write:
                day.write_hits += hits
                day.write_misses += misses
            else:
                day.read_hits += hits
                day.read_misses += misses
        assert tallied.per_day == per_block.per_day == expected
        tallied.check_consistency()


class TestMinuteTracking:
    def test_records_io_units_per_minute(self):
        stats = CacheStats(days=1)
        stats.record_ssd_io(61.0, 4, is_write=False)
        stats.record_ssd_io(65.0, 2, is_write=True)
        assert stats.per_minute[1].reads == 4
        assert stats.per_minute[1].writes == 2

    def test_disabled_tracking_records_nothing(self):
        stats = CacheStats(days=1, track_minutes=False)
        stats.record_ssd_io(61.0, 4, is_write=False)
        assert stats.per_minute == {}

    def test_zero_units_ignored(self):
        stats = CacheStats(days=1)
        stats.record_ssd_io(0.0, 0, is_write=False)
        assert stats.per_minute == {}

    def test_minute_series_sorted(self):
        stats = CacheStats(days=1)
        stats.record_ssd_io(600.0, 1, is_write=False)
        stats.record_ssd_io(60.0, 1, is_write=False)
        minutes = [m for m, _ in stats.minute_series()]
        assert minutes == sorted(minutes)


class TestMerge:
    def shard(self, day_time, hits, misses, io_units):
        stats = CacheStats(days=2)
        stats.record_hit(day_time, is_write=False, blocks=hits)
        stats.record_miss(day_time, is_write=True, blocks=misses)
        stats.record_allocation_write(day_time, blocks=misses)
        stats.record_backing_write(day_time, blocks=misses)
        stats.record_ssd_io(day_time, io_units, is_write=True)
        return stats

    def test_merge_adds_per_day_counters(self):
        a = self.shard(10.0, hits=3, misses=2, io_units=1)
        b = self.shard(SECONDS_PER_DAY + 10.0, hits=5, misses=1, io_units=2)
        merged = a.merge(b)
        assert merged is a
        assert a.per_day[0].read_hits == 3
        assert a.per_day[1].read_hits == 5
        assert a.total.accesses == 11
        assert a.total.allocation_writes == 3
        assert a.total.backing_writes == 3
        a.check_consistency()

    def test_merge_adds_minute_io(self):
        a = self.shard(10.0, hits=1, misses=1, io_units=4)
        b = self.shard(10.0, hits=1, misses=1, io_units=6)
        a.merge(b)
        assert a.per_minute[0].writes == 10

    def test_merge_rejects_day_mismatch(self):
        with pytest.raises(ValueError):
            CacheStats(days=2).merge(CacheStats(days=3))

    def test_merged_classmethod(self):
        parts = [
            self.shard(10.0, hits=2, misses=1, io_units=1),
            self.shard(10.0, hits=4, misses=3, io_units=2),
        ]
        combined = CacheStats.merged(parts)
        assert combined.total.accesses == 10
        assert combined.per_minute[0].writes == 3
        # The inputs are left untouched.
        assert parts[0].total.accesses == 3

    def test_merged_rejects_empty(self):
        with pytest.raises(ValueError):
            CacheStats.merged([])

    def test_merged_tracks_minutes_if_any_part_does(self):
        silent = CacheStats(days=1, track_minutes=False)
        loud = CacheStats(days=1, track_minutes=True)
        loud.record_ssd_io(0.0, 2, is_write=False)
        assert CacheStats.merged([silent, loud]).per_minute[0].reads == 2
        assert not CacheStats.merged([silent, silent]).track_minutes


DAYS = 3


def times_near(bucket_seconds):
    """Timestamps on, one ulp off, and within 1e-9 s of a bucket
    boundary — where a vectorized floor could part ways with ``//``."""

    def nudged(index, nudge):
        boundary = float(index * bucket_seconds)
        if abs(nudge) == np.inf:
            return max(0.0, float(np.nextafter(boundary, nudge)))
        return max(0.0, boundary + nudge)

    return st.builds(
        nudged,
        st.integers(0, (DAYS + 2) * SECONDS_PER_DAY // bucket_seconds),
        st.sampled_from([0.0, 1e-9, -1e-9, 3e-10, -3e-10, np.inf, -np.inf]),
    )


#: How the appliance can have decided a request.
ROUTES = ("write-through", "write-back", "degraded", "bypass")


@st.composite
def request_rows(draw):
    """Request rows as the engines decide them, some past the last day
    and some running past midnight: ``(issue, completion, blocks,
    is_write, hits, backing, allocating)``, and per row the scalar
    events beside it, ``(read_errors, write_errors, bypassed,
    allocated_offsets)``."""
    rows, events = [], []
    for _ in range(draw(st.integers(0, 12))):
        issue = draw(st.one_of(
            times_near(60), times_near(SECONDS_PER_DAY),
            st.floats(0.0, (DAYS + 2.0) * SECONDS_PER_DAY),
        ))
        completion = issue + draw(st.sampled_from(
            [0.0, 1e-9, 0.004, 59.9999999995, 60.0, 4000.0,
             SECONDS_PER_DAY / 2]
        ))
        blocks = draw(st.integers(1, 40))
        is_write = draw(st.booleans())
        route = draw(st.sampled_from(ROUTES))
        hits = draw(st.sampled_from([0, blocks, draw(st.integers(0, blocks))]))
        read_errors = write_errors = bypassed = 0
        if route == "bypass":
            # Every block passes through to the ensemble.
            hits, bypassed = 0, blocks
        misses = blocks - hits
        if route == "write-back":
            # Write hits and allocated write misses are absorbed.
            backing = draw(st.integers(0, misses)) if is_write else 0
        else:
            backing = blocks if is_write else 0
        if route == "degraded":
            # Errored resident blocks are among the misses.
            errors = draw(st.integers(0, misses))
            read_errors, write_errors = (0, errors) if is_write else (errors, 0)
            write_errors += draw(st.integers(0, 2))  # failed allocations
        # The columnar contract: a row is only marked when the request
        # completes within its (capped) issue day, and every miss of it
        # was allocated.
        same_day = min(completion // SECONDS_PER_DAY, DAYS - 1) == min(
            issue // SECONDS_PER_DAY, DAYS - 1
        )
        allocating = route == "write-through" and same_day and draw(st.booleans())
        offsets = []
        if not allocating and route != "bypass":
            # Any other allocation goes block by block.
            offsets = sorted(draw(st.sets(
                st.integers(0, blocks - 1), max_size=min(misses, 6)
            )))
        rows.append((issue, completion, blocks, is_write, hits, backing,
                     allocating))
        events.append((read_errors, write_errors, bypassed, offsets))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    pieces = list(zip([0, *cuts], [*cuts, len(rows)]))
    return rows, events, draw(st.permutations(pieces))


def record_events(stats, rows, events):
    """The scalar events beside the columns, as the appliance makes
    them: errors, bypassed accesses and block-by-block allocations."""
    for (issue, completion, blocks, *_), (read_errors, write_errors,
                                          bypassed, offsets) in zip(rows, events):
        if read_errors:
            stats.record_read_error(issue, read_errors)
        if write_errors:
            stats.record_write_error(issue, write_errors)
        if bypassed:
            stats.record_bypass_access(issue, bypassed)
        if offsets:
            _record_allocations(stats, issue, completion, blocks, offsets)


def record_scalar(stats, rows, events):
    """The reference: the scalar calls per request, block by block for
    the allocations."""
    for (issue, completion, blocks, is_write, hits, backing, allocating), (
        read_errors, write_errors, bypassed, offsets
    ) in zip(rows, events):
        misses = blocks - hits
        stats.record_hit(issue, is_write, hits)
        stats.record_miss(issue, is_write, misses)
        if backing:
            stats.record_backing_write(issue, backing)
        if allocating:
            stats.record_allocation_write(completion, misses)
            stats.record_ssd_io(completion, (misses + 7) >> 3, True)
        stats.record_ssd_io(issue, (hits + 7) >> 3, is_write)
        stats.record_read_error(issue, read_errors)
        stats.record_write_error(issue, write_errors)
        stats.record_bypass_access(issue, bypassed)
        span = completion - issue
        for offset in offsets:
            stats.record_allocation_write(
                issue + span * ((offset + 1) / blocks)
            )
        if offsets:
            stats.record_ssd_io(completion, (len(offsets) + 7) >> 3, True)


def row_columns(rows):
    """The rows as the engines' columns."""
    return [
        np.array([row[i] for row in rows], dtype=dtype)
        for i, dtype in enumerate(
            (np.float64, np.float64, np.int32, np.bool_, np.int64, np.int64,
             np.bool_)
        )
    ]


def record_columnar(stats, rows, pieces, with_allocations):
    columns = row_columns(rows)
    if not with_allocations:
        columns.pop()
    for lo, hi in pieces:
        stats.record_rows(*(column[lo:hi] for column in columns))


class TestRecordRows:
    """``record_rows`` against the scalar recording calls, row for row."""

    @settings(max_examples=200, deadline=None)
    @given(request_rows(), st.booleans(), st.booleans())
    def test_matches_scalar_recording(self, drawn, track_minutes, allocations):
        rows, events, pieces = drawn
        if not allocations:  # the sieve's call: no allocating column
            rows = [(*row[:6], False) for row in rows]
        scalar = CacheStats(DAYS, track_minutes=track_minutes)
        columnar = CacheStats(DAYS, track_minutes=track_minutes)
        record_scalar(scalar, rows, events)
        record_events(columnar, rows, events)
        record_columnar(columnar, rows, pieces, allocations)
        assert columnar.per_day == scalar.per_day
        assert columnar.per_minute == scalar.per_minute
        if not track_minutes:
            assert columnar.per_minute == {}
        columnar.check_consistency()
        # Plain ints throughout: the counters are pickled and JSON-dumped.
        for counters in (*columnar.per_day, *columnar.per_minute.values()):
            assert all(type(v) is int for v in vars(counters).values())

    def test_negative_timestamp_refused_before_anything_is_recorded(self):
        rows = [(5.0, 5.1, 4, False, 2, 0, False),
                (-1.0, 0.5, 4, False, 2, 0, False)]
        stats = CacheStats(DAYS)
        with pytest.raises(ValueError, match="non-negative"):
            record_columnar(stats, rows, [(0, 2)], False)
        assert stats.total == DayStats() and stats.per_minute == {}
        with pytest.raises(ValueError, match="non-negative"):
            record_scalar(CacheStats(DAYS), rows, [(0, 0, 0, [])] * 2)


def populated_stats():
    """Three days with every per-day counter and two minutes non-zero."""
    stats = CacheStats(days=3)
    stats.record_hit(10.0, is_write=False, blocks=3)
    stats.record_miss(SECONDS_PER_DAY + 5.0, is_write=True, blocks=2)
    stats.record_allocation_write(SECONDS_PER_DAY + 6.0, blocks=2)
    stats.record_backing_write(5.0, blocks=4, is_writeback=True)
    stats.record_read_error(7.0, blocks=1)
    stats.record_write_error(2 * SECONDS_PER_DAY, blocks=5)
    stats.record_bypass_access(2 * SECONDS_PER_DAY + 1.0, blocks=6)
    stats.record_ssd_io(600.0, 3, is_write=True)
    stats.record_ssd_io(60.0, 2, is_write=False)  # minutes out of order
    stats.degraded_seconds = 12.5
    stats.bypass_seconds = 3.25
    return stats


class TestPickle:
    """Stats pickle as columns and come back as the same objects."""

    def test_day_matrix_is_astuple_rows(self):
        # The per-day column is what ``astuple`` rows give, in field
        # order, built without its deep copies: the same state arrays
        # and the same pickle bytes.
        stats = populated_stats()
        state = stats.__getstate__()
        expected = np.array(
            [astuple(day) for day in stats.per_day], dtype=np.int64
        )
        days = state["per_day"]
        assert days.dtype == expected.dtype
        assert days.shape == (3, len(fields(DayStats)))
        assert days.tobytes() == expected.tobytes()
        assert pickle.dumps(state) == pickle.dumps(dict(state, per_day=expected))
        assert pickle.dumps(stats) == pickle.dumps(
            pickle.loads(pickle.dumps(stats))
        )

    def test_round_trip_keeps_every_counter(self):
        stats = populated_stats()
        copy = pickle.loads(pickle.dumps(stats))
        assert (copy.days, copy.track_minutes) == (3, True)
        assert copy.per_day == stats.per_day
        assert list(copy.per_minute.items()) == list(stats.per_minute.items())
        assert (copy.degraded_seconds, copy.bypass_seconds) == (12.5, 3.25)
        for counters in (*copy.per_day, *copy.per_minute.values()):
            assert all(type(v) is int for v in vars(counters).values())

    def test_round_trip_without_minutes(self):
        stats = CacheStats(days=1, track_minutes=False)
        stats.record_hit(1.0, is_write=True)
        copy = pickle.loads(pickle.dumps(stats))
        assert not copy.track_minutes and copy.per_minute == {}
        assert copy.per_day == stats.per_day


class MinuteModel:
    """Per-minute 4-KB units as dict-backed stats kept them: ``minute ->
    [reads, writes]`` in first-touch order, one entry per minute that
    ever moved a unit."""

    def __init__(self, track_minutes):
        self.track_minutes = track_minutes
        self.units = {}

    def ssd_io(self, time, io_units, is_write):
        if self.track_minutes and io_units > 0:
            entry = self.units.setdefault(int(time // 60), [0, 0])
            entry[int(is_write)] += io_units

    def rows(self, rows):
        for issue, completion, blocks, is_write, hits, _, allocating in rows:
            misses = blocks - hits
            if allocating:
                self.ssd_io(completion, (misses + 7) >> 3, True)
            self.ssd_io(issue, (hits + 7) >> 3, is_write)

    def merge(self, other):
        for minute, (reads, writes) in other.units.items():
            entry = self.units.setdefault(minute, [0, 0])
            entry[0] += reads
            entry[1] += writes

    def per_minute(self):
        return {minute: MinuteIO(*units) for minute, units in self.units.items()}


@st.composite
def minute_parts(draw):
    """1-3 stats' worth of recording: request rows cut into pieces and
    scalar ``record_ssd_io`` calls, interleaved, some past the last day."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        rows, _, pieces = draw(request_rows())
        calls = draw(st.lists(
            st.tuples(
                st.one_of(times_near(60), st.floats(0.0, (DAYS + 3.0) * SECONDS_PER_DAY)),
                st.integers(0, 9),
                st.booleans(),
            ),
            max_size=8,
        ))
        steps = draw(st.permutations(
            [("rows", piece) for piece in pieces] + [("io", call) for call in calls]
        ))
        parts.append((draw(st.booleans()), rows, steps))
    return parts


def assert_minutes(stats, model):
    """``stats`` holds the model's minutes, through every reader."""
    expected = model.per_minute()
    assert stats.per_minute == expected
    assert stats.minute_series() == sorted(expected.items())
    assert list(stats_to_dict(stats)["per_minute"]) == [
        str(minute) for minute in sorted(expected)
    ]
    for _, counters in stats.minute_series():
        assert type(counters.reads) is int and type(counters.writes) is int


class TestMinuteColumns:
    """The dense minute array against the dict it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(minute_parts())
    def test_matches_the_dict_model(self, parts):
        stats, models = [], []
        for track_minutes, rows, steps in parts:
            part = CacheStats(DAYS, track_minutes=track_minutes)
            model = MinuteModel(track_minutes)
            columns = row_columns(rows)
            for kind, step in steps:
                if kind == "rows":
                    lo, hi = step
                    part.record_rows(*(column[lo:hi] for column in columns))
                    model.rows(rows[lo:hi])
                else:
                    part.record_ssd_io(*step)
                    model.ssd_io(*step)
            assert_minutes(part, model)
            if not track_minutes:
                assert part.per_minute == {}
            stats.append(part)
            models.append(model)

        merged = CacheStats.merged(stats)
        merged_model = MinuteModel(any(m.track_minutes for m in models))
        for model in models:
            merged_model.merge(model)
        assert merged.track_minutes == merged_model.track_minutes
        assert_minutes(merged, merged_model)
        # In place, whatever either side tracks (an untracked receiver
        # still takes the other's minutes, as the dict did).
        stats[0].merge(stats[-1])
        models[0].merge(models[-1])
        assert_minutes(stats[0], models[0])

        for part, model in zip([*stats, merged], [*models, merged_model]):
            copy = pickle.loads(pickle.dumps(part))
            assert copy.track_minutes == part.track_minutes
            assert stats_to_dict(copy) == stats_to_dict(part)
            assert_minutes(copy, model)
            # A checkpoint state written from the dict, minutes in its
            # first-touch order, scatters back to the same stats.
            state = part.__getstate__()
            state.update(
                minutes=np.array(list(model.units), dtype=np.int64),
                minute_reads=np.array([u[0] for u in model.units.values()], dtype=np.int64),
                minute_writes=np.array([u[1] for u in model.units.values()], dtype=np.int64),
            )
            loaded = CacheStats.__new__(CacheStats)
            loaded.__setstate__(state)
            assert stats_to_dict(loaded) == stats_to_dict(part)
            assert_minutes(loaded, model)
            assert stats_to_dict(stats_from_dict(stats_to_dict(part))) == stats_to_dict(part)
