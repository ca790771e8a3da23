"""White-box tests of the synthetic generator's building blocks.

The black-box O1/O2 tests in test_synthetic.py validate outcomes; these
pin down the individual mechanisms so calibration regressions localize.
"""

import numpy as np
import pytest

from repro.traces.servers import PAPER_SERVERS
from repro.traces.synthetic import (
    DAY0_INTENSITY,
    EnsembleTraceGenerator,
    SLOT_BLOCKS,
    SyntheticTraceConfig,
    _TAIL_CDF,
    _TAIL_COUNTS,
    _TAIL_PROBS,
    _choice_cdf,
    _extent_geometry,
)


@pytest.fixture(scope="module")
def generator():
    return EnsembleTraceGenerator(SyntheticTraceConfig(scale=1e-5))


class TestTailDistribution:
    def test_counts_bounded_by_ten(self):
        # O1: the non-hot 99% never exceed 10 accesses/day.
        assert _TAIL_COUNTS.max() == 10

    def test_o1_quantiles(self):
        le4 = _TAIL_PROBS[_TAIL_COUNTS <= 4].sum()
        assert le4 > 0.96  # x 99% non-hot ~= the paper's 97%
        assert _TAIL_PROBS[0] == pytest.approx(0.48, abs=0.05)

    def test_probabilities_normalized(self):
        assert _TAIL_PROBS.sum() == pytest.approx(1.0)

    def test_cdf_draws_are_weighted_choice_draws(self):
        for seed in range(30):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            chosen = a.choice(_TAIL_COUNTS, size=37, p=_TAIL_PROBS)
            drawn = _TAIL_COUNTS[_TAIL_CDF.searchsorted(b.random(37), side="right")]
            assert np.array_equal(chosen, drawn)
            assert a.random() == b.random()


class TestHeadCounts:
    def test_floor_eleven(self, generator):
        rng = np.random.default_rng(0)
        counts, _ = generator._zipf_head_counts(rng, 500, 500 * 90, 1.0)
        assert counts.min() >= 11

    def test_sorted_descending(self, generator):
        rng = np.random.default_rng(0)
        counts, _ = generator._zipf_head_counts(rng, 100, 100 * 90, 1.0)
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_mean_tracks_target(self, generator):
        rng = np.random.default_rng(1)
        total = 0
        n = 0
        for _ in range(80):
            counts, _ = generator._zipf_head_counts(rng, 50, 50 * 90, 1.0)
            total += counts.sum()
            n += len(counts)
        assert total / n == pytest.approx(90, rel=0.25)

    def test_top_band_present_for_large_sets(self, generator):
        rng = np.random.default_rng(2)
        counts, n_top = generator._zipf_head_counts(rng, 400, 400 * 90, 1.0)
        assert n_top > 0
        assert counts.max() >= 250

    def test_empty(self, generator):
        counts, n_top = generator._zipf_head_counts(
            np.random.default_rng(0), 0, 0, 1.0
        )
        assert len(counts) == 0 and n_top == 0

    def test_solver_monotone(self, generator):
        solve = generator._solve_pareto1_max
        assert solve(30.0, 11.0) < solve(60.0, 11.0) < solve(120.0, 11.0)

    def test_solver_hits_target_mean(self, generator):
        import math

        floor = 11.0
        for target in (20.0, 50.0, 95.0):
            m = generator._solve_pareto1_max(target, floor)
            mean = floor * math.log(m / floor) / (1.0 - floor / m)
            assert mean == pytest.approx(target, rel=0.01)


class TestMinuteWeights:
    def test_normalized(self, generator):
        for day in (0, 3):
            weights = generator._minute_weights(PAPER_SERVERS[0], day)
            assert weights.sum() == pytest.approx(1.0)
            assert len(weights) == 1440

    def test_day0_masks_untraced_hours(self, generator):
        weights = generator._minute_weights(PAPER_SERVERS[0], 0)
        cutoff = 1440 - int(1440 * DAY0_INTENSITY)
        assert weights[:cutoff].sum() == 0.0
        assert weights[cutoff:].sum() == pytest.approx(1.0)

    def test_full_days_cover_all_minutes(self, generator):
        weights = generator._minute_weights(PAPER_SERVERS[0], 2)
        assert (weights > 0).all()

    def test_cdf_draws_are_weighted_choice_draws(self, generator):
        for day in (0, 3):
            weights = generator._minute_weights(PAPER_SERVERS[4], day)
            cdf = _choice_cdf(weights)
            for seed in range(30):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                chosen = a.choice(1440, size=50, p=weights)
                drawn = cdf.searchsorted(b.random(50), side="right")
                assert np.array_equal(chosen, drawn)
                assert a.random() == b.random()


class TestHotShareMapping:
    def test_clipped_to_sane_band(self, generator):
        for skew in (0.0, 0.15, 1.0, 1.6, 5.0):
            for factor in (0.5, 1.0, 1.5):
                share = generator._hot_access_share(skew, factor)
                assert 0.01 <= share <= 0.93

    def test_monotone_in_skew(self, generator):
        shares = [
            generator._hot_access_share(skew, 1.0)
            for skew in (0.15, 0.5, 1.0, 1.6)
        ]
        assert shares == sorted(shares)


class TestEffectiveSkew:
    def test_deterministic(self, generator):
        server, volume = PAPER_SERVERS[5], PAPER_SERVERS[5].volumes[0]
        a = generator._effective_skew(server, volume, 3)
        b = generator._effective_skew(server, volume, 3)
        assert a == b

    def test_varies_by_day(self, generator):
        server, volume = PAPER_SERVERS[8], PAPER_SERVERS[8].volumes[0]
        values = {generator._effective_skew(server, volume, d) for d in range(8)}
        assert len(values) > 4


def _geometry(generator, seed, n_extents):
    rng = np.random.default_rng(seed)
    return _extent_geometry(*generator._draw_geometry(rng, n_extents))


class TestGeometry:
    def test_extent_fits_slot(self, generator):
        offsets, lengths, aligned = _geometry(generator, 0, 2000)
        assert ((offsets + lengths) <= SLOT_BLOCKS).all()

    def test_aligned_extents_start_at_slot(self, generator):
        offsets, lengths, aligned = _geometry(generator, 0, 2000)
        assert (offsets[aligned] == 0).all()
        assert np.isin(lengths[aligned], (8, 16)).all()

    def test_unaligned_fraction(self, generator):
        _, _, aligned = _geometry(generator, 0, 5000)
        assert 0.03 < (~aligned).mean() < 0.10

    def test_volumes_laid_end_to_end(self, generator):
        # The day's assembly runs the geometry once over every volume's
        # draws concatenated: that must equal running it per volume.
        rng = np.random.default_rng(3)
        draws = [generator._draw_geometry(rng, n) for n in (40, 1, 300, 7)]
        whole = _extent_geometry(
            *(np.concatenate([d[i] for d in draws]) for i in range(4))
        )
        apart = [_extent_geometry(*d) for d in draws]
        for i in range(3):
            assert np.array_equal(whole[i], np.concatenate([a[i] for a in apart]))


def _scan_tail_slots(rng, total_slots, n_tail, excluded):
    """One candidate at a time: the definition the sampler must match."""
    chosen, seen, rounds = [], set(excluded), 0
    while len(chosen) < n_tail:
        rounds += 1
        need = n_tail - len(chosen)
        for candidate in rng.integers(0, total_slots, size=max(need * 2, 16)).tolist():
            if candidate not in seen:
                seen.add(candidate)
                chosen.append(candidate)
                if len(chosen) == n_tail:
                    break
    return chosen, rounds


class TestTailSlots:
    sample = staticmethod(EnsembleTraceGenerator._sample_tail_slots)

    def test_distinct_slots_avoiding_the_hot_set(self):
        excluded = np.array([0, 5, 7, 11, 30], dtype=np.int64)
        for seed in range(50):
            slots = self.sample(np.random.default_rng(seed), 48, 20, excluded)
            assert len(slots) == 20
            assert len(set(slots.tolist())) == 20
            assert not set(slots.tolist()) & set(excluded.tolist())
            assert ((slots >= 0) & (slots < 48)).all()

    def test_colliding_rounds_match_a_one_at_a_time_scan(self):
        # 18 of 40 slots with 3 excluded: candidates collide with each
        # other and with the hot set, and some seeds need a second round.
        excluded = np.array([1, 2, 3], dtype=np.int64)
        multi_round = 0
        for seed in range(200):
            want, rounds = _scan_tail_slots(
                np.random.default_rng(seed), 40, 18, excluded.tolist()
            )
            rng = np.random.default_rng(seed)
            got = self.sample(rng, 40, 18, excluded)
            assert got.tolist() == want
            # ... leaving the generator where the scan leaves it.
            after = np.random.default_rng(seed)
            _scan_tail_slots(after, 40, 18, excluded.tolist())
            assert rng.random() == after.random()
            multi_round += rounds > 1
        assert multi_round > 0

    def test_nothing_to_sample(self):
        rng = np.random.default_rng(0)
        assert len(self.sample(rng, 64, 0, np.array([4], dtype=np.int64))) == 0
        assert rng.random() == np.random.default_rng(0).random()
