"""Ideal day-by-day top-1% sieve (Figure 5's oracle)."""

from collections import Counter

import pytest

from repro.core.ideal import (
    IdealDailySieve,
    ideal_capture_shares,
    top_fraction_blocks,
)
from tests.oracle import block_counts


def table(mapping=()):
    return block_counts(Counter(mapping))


class TestTopFractionBlocks:
    def test_picks_most_accessed(self):
        counts = table({i: i for i in range(1, 201)})
        top = top_fraction_blocks(counts, 0.01)
        assert top == {199, 200}

    def test_at_least_one_block(self):
        counts = table({1: 5, 2: 3})
        assert len(top_fraction_blocks(counts, 0.01)) == 1

    def test_empty_counter(self):
        assert top_fraction_blocks(table(), 0.01) == set()

    def test_ties_broken_deterministically(self):
        counts = table({10: 5, 20: 5, 30: 5})
        a = top_fraction_blocks(counts, 0.34)
        b = top_fraction_blocks(counts, 0.34)
        assert a == b
        assert len(a) == 2

    def test_fraction_one_takes_everything(self):
        counts = table({1: 1, 2: 2})
        assert top_fraction_blocks(counts, 1.0) == {1, 2}

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            top_fraction_blocks(table({1: 1}), 0.0)


class TestIdealDailySieve:
    def test_installs_days_top_set(self):
        daily = [table({1: 100, 2: 1}), table({3: 100, 1: 1})]
        sieve = IdealDailySieve(daily, fraction=0.5)
        assert set(sieve.epoch_boundary(0)) == {1}
        assert set(sieve.epoch_boundary(1)) == {3}

    def test_past_last_day_installs_nothing(self):
        sieve = IdealDailySieve([table({1: 1})])
        assert set(sieve.epoch_boundary(5)) == set()

    def test_capacity_truncation(self):
        daily = [table({1: 10, 2: 9, 3: 8, 4: 7})]
        sieve = IdealDailySieve(daily, fraction=1.0, capacity_blocks=2)
        assert set(sieve.epoch_boundary(0)) == {1, 2}

    def test_never_allocates_continuously(self):
        sieve = IdealDailySieve([table()])
        assert not sieve.wants(1, is_write=False, time=0.0)


class TestIdealCaptureShares:
    def test_closed_form(self):
        # 100 blocks; block 0 has 99 accesses, the rest one each:
        # top 1% = {0} captures 99 / 198.
        counts = Counter({0: 99})
        counts.update({i: 1 for i in range(1, 100)})
        (share,) = ideal_capture_shares(
            [block_counts(counts)], fraction=0.01
        )
        assert share == pytest.approx(99 / 198)

    def test_empty_day(self):
        assert ideal_capture_shares([table()]) == [0.0]

    def test_matches_simulated_ideal(self, tiny_context):
        """The closed form equals running the oracle through the engine."""
        from repro.sim import run_policy

        shares = ideal_capture_shares(tiny_context.daily_counts)
        result = run_policy("ideal", tiny_context, track_minutes=False)
        for day, (analytic, simulated) in enumerate(
            zip(shares, result.daily_capture())
        ):
            assert simulated == pytest.approx(analytic, abs=0.02), f"day {day}"


class TestDailyEpochsOnly:
    """Epoch k installs day k's top set, so any other epoch length would
    replay the wrong oracle (and epochs past the last day empty the
    cache): the engine refuses it before replaying anything."""

    @pytest.mark.parametrize("fast", [False, True], ids=["object-engine", "fast-engine"])
    def test_sub_day_epoch_is_refused(self, tiny_context, fast):
        from repro.sim import run_policy

        with pytest.raises(ValueError, match="epoch_seconds=43200"):
            run_policy("ideal", tiny_context, fast_path=fast, epoch_seconds=43200.0)

    def test_resume_refuses_a_sub_day_epoch(self, tiny_context, tmp_path):
        from repro.sim import resume_simulation, run_policy
        from repro.sim.serialize import load_checkpoint, save_checkpoint

        path = tmp_path / "ideal.ckpt"
        run_policy("ideal", tiny_context, track_minutes=False, fast_path=True,
                   checkpoint_path=path, checkpoint_every=997)
        state = load_checkpoint(path)
        state["config"]["epoch_seconds"] = 43200.0
        save_checkpoint(state, path)
        for engine in ("fast", "object"):
            with pytest.raises(ValueError, match="epoch_seconds=43200"):
                resume_simulation(path, tiny_context.columnar_trace(), engine=engine)

    def test_suite_records_the_refusal_and_keeps_the_rest(self, tiny_context):
        from repro.sim import run_policy_suite

        suite = run_policy_suite(
            tiny_context, ["ideal", "aod-16"], track_minutes=False,
            epoch_seconds=43200.0,
        )
        assert list(suite) == ["aod-16"]
        assert suite["aod-16"].stats.total.accesses > 0
        assert suite.failures["ideal"].error_type == "ValueError"
