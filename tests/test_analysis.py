import warnings

import numpy as np
import numpy.testing as npt
import pytest

from topica.activation import ActivationTrace, shuffle_frames
from topica.analysis import (
    adjacent_correlation,
    autocorrelation,
    cluster_locality,
    compare_adjacency,
    format_summary,
    permutation_test,
    write_adjacency_csv,
    write_autocorr_csv,
)
from topica.errors import BadK, ConfigError, DegenerateSeries, DimensionMismatch, EmptyGroup
from topica.topography import (adjacent_pairs, build_topography, pairwise_distances,
                               shuffle_topography)


def make_trace(activations, frame_rate=24.0):
    activations = np.asarray(activations, dtype=np.float64)
    return ActivationTrace(activations=activations, frame_rate=frame_rate, model_ref="m")


def reference_lag_corr(series, lag):
    a, b = series[:len(series) - lag], series[lag:]
    return np.corrcoef(a, b)[0, 1]


def pearson_one_pair(a, b):
    """Pearson r of two 1-D series, one pair at a time: the loop form that
    the analyses' matrix form must reproduce bit for bit."""
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    return np.nan if denom == 0.0 else float((a * b).sum() / denom)


class TestAutocorrelation:
    def test_lag_zero_is_exactly_one(self, rng):
        trace = make_trace(rng.standard_normal((50, 4)))
        report = autocorrelation(trace, 5)
        assert (report.per_unit[:, 0] == 1.0).all()
        assert report.mean_autocorr[0] == 1.0

    def test_matches_corrcoef(self, rng):
        trace = make_trace(rng.standard_normal((80, 3)))
        report = autocorrelation(trace, 6)
        for unit in range(3):
            for lag in range(1, 7):
                expected = reference_lag_corr(trace.activations[:, unit], lag)
                npt.assert_allclose(report.per_unit[unit, lag], expected, atol=1e-12)

    def test_periodic_signal_peaks_at_period(self):
        t = np.arange(120)
        trace = make_trace(np.sin(2 * np.pi * t / 12)[:, None])
        report = autocorrelation(trace, 12)
        assert report.per_unit[0, 12] > 0.99
        assert report.per_unit[0, 6] < -0.99

    def test_energy_mode(self, rng):
        trace = make_trace(rng.standard_normal((60, 2)))
        report = autocorrelation(trace, 3, use_energy=True)
        expected = reference_lag_corr(trace.energies[:, 0], 2)
        npt.assert_allclose(report.per_unit[0, 2], expected, atol=1e-12)

    def test_constant_unit_excluded_with_warning(self, rng):
        activations = rng.standard_normal((40, 3))
        activations[:, 1] = 2.0
        with pytest.warns(UserWarning, match="constant"):
            report = autocorrelation(make_trace(activations), 4)
        assert report.n_excluded == 1
        assert np.isnan(report.per_unit[1]).all()
        assert np.isfinite(report.mean_autocorr).all()

    def test_all_constant_rejected(self):
        with pytest.warns(UserWarning), pytest.raises(DegenerateSeries):
            autocorrelation(make_trace(np.ones((30, 2))), 3)

    def test_lag_bounds(self, rng):
        trace = make_trace(rng.standard_normal((10, 2)))
        with pytest.raises(ConfigError):
            autocorrelation(trace, 0)
        with pytest.raises(DegenerateSeries):
            autocorrelation(trace, 10)
        with pytest.raises(DegenerateSeries):    # its last lag would correlate 1-frame segments
            autocorrelation(trace, 9)
        assert autocorrelation(trace, 8).per_unit.shape == (2, 9)

    def test_all_nan_lag_is_nan_without_warning(self):
        # Both units vary over the first three frames only, so from lag 3 on
        # every later segment is constant and every unit's r is NaN.
        activations = np.zeros((10, 2))
        activations[:3] = [[1.0, -2.0], [3.0, 1.0], [-1.0, 0.5]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = autocorrelation(make_trace(activations), 8)
        assert np.isfinite(report.mean_autocorr[:3]).all()
        assert np.isnan(report.mean_autocorr[3:]).all()

    def test_shuffled_baseline_is_flat_for_noise(self, rng):
        trace = make_trace(rng.standard_normal((400, 8)))
        report = autocorrelation(trace, 5, shuffle_seed=1)
        assert np.abs(report.shuffled_mean[1:]).max() < 3 / np.sqrt(400)

    def test_shuffle_seed_recorded_effect(self, rng):
        trace = make_trace(rng.standard_normal((60, 2)))
        a = autocorrelation(trace, 4, shuffle_seed=1)
        b = autocorrelation(trace, 4, shuffle_seed=1)
        npt.assert_array_equal(a.shuffled_mean, b.shuffled_mean)


class TestAdjacency:
    def test_pairwise_correlations_match_corrcoef(self, rng):
        topo = build_topography(4, 3, 1)
        trace = make_trace(rng.standard_normal((50, 12)))
        report = adjacent_correlation(trace, topo)
        assert report.pairs.shape == (48, 2)     # 4n pairs on a 4x3 torus
        for (i, j), r in zip(report.pairs, report.pair_correlations):
            expected = np.corrcoef(trace.energies[:, i], trace.energies[:, j])[0, 1]
            npt.assert_allclose(r, expected, atol=1e-12)
        npt.assert_allclose(report.mean_r, np.nanmean(report.pair_correlations), atol=1e-12)

    def test_unit_count_checked(self, rng):
        topo = build_topography(4, 4, 1)
        with pytest.raises(DimensionMismatch):
            adjacent_correlation(make_trace(rng.standard_normal((10, 12))), topo)

    def test_shuffled_topography_equals_relabeled_trace(self, rng):
        # Scoring a trace against a shuffled layout must equal scoring the
        # inversely relabeled trace against the original layout.
        topo = build_topography(4, 3, 1)
        trace = make_trace(rng.standard_normal((60, 12)))
        seed = 17
        shuffled = shuffle_topography(topo, seed)
        perm = np.random.default_rng(seed).permutation(12)
        relabeled = make_trace(trace.activations[:, np.argsort(perm)])
        a = adjacent_correlation(trace, shuffled)
        b = adjacent_correlation(relabeled, topo)
        npt.assert_allclose(sorted(a.pair_correlations), sorted(b.pair_correlations),
                            atol=1e-12)
        npt.assert_allclose(a.mean_r, b.mean_r, atol=1e-12)

    def test_compare_attaches_test(self, rng):
        topo = build_topography(4, 3, 1)
        a = adjacent_correlation(make_trace(rng.standard_normal((50, 12))), topo)
        b = adjacent_correlation(make_trace(rng.standard_normal((50, 12))), topo)
        out = compare_adjacency(a, b, n_permutations=200, seed=0)
        assert out.comparison is not None
        assert out.comparison.other_mean_r == b.mean_r
        assert 0.0 < out.comparison.p_value <= 1.0
        assert out.comparison.n_permutations == 200


class TestPermutationTest:
    def test_enumerated_small_case(self):
        # {0,0} vs {1,1}: of the 6 equally likely relabelings, 2 reproduce
        # |mean difference| = 1, so p converges to 1/3.
        result = permutation_test([0.0, 0.0], [1.0, 1.0], n_permutations=20000, seed=0)
        assert result.observed_diff == 1.0
        assert abs(result.p_value - 1 / 3) < 0.02

    def test_identical_groups_give_p_one(self, rng):
        values = rng.standard_normal(10)
        result = permutation_test(values, values.copy(), n_permutations=500, seed=1)
        assert result.p_value == 1.0

    def test_two_sided(self, rng):
        a = rng.standard_normal(40) + 3.0
        b = rng.standard_normal(40)
        low = permutation_test(a, b, n_permutations=300, seed=2)
        high = permutation_test(b, a, n_permutations=300, seed=2)
        assert low.p_value == high.p_value
        assert low.p_value < 0.01

    def test_add_one_smoothing_floor(self, rng):
        a = rng.standard_normal(30) + 50.0
        b = rng.standard_normal(30)
        result = permutation_test(a, b, n_permutations=99, seed=3)
        assert result.p_value == 1 / 100

    def test_empty_group_rejected(self):
        with pytest.raises(EmptyGroup):
            permutation_test([], [1.0], n_permutations=10, seed=0)

    def test_bad_permutation_count(self):
        with pytest.raises(ConfigError):
            permutation_test([1.0], [2.0], n_permutations=0, seed=0)

    def test_seeded(self):
        a = [0.0, 0.5, 1.0, 2.0]
        b = [1.0, 1.5, 2.0, 3.0]
        x = permutation_test(a, b, n_permutations=100, seed=4)
        y = permutation_test(a, b, n_permutations=100, seed=4)
        assert x.p_value == y.p_value

    @pytest.mark.parametrize("sizes, n_permutations", [
        ((1, 1), 7), ((3, 9), 1024), ((40, 35), 1025), ((112, 112), 2049),
    ])
    def test_blocks_match_one_draw_at_a_time(self, rng, sizes, n_permutations):
        a = rng.standard_normal(sizes[0]) + 0.2
        b = rng.standard_normal(sizes[1])
        pooled = np.concatenate([a, b])
        observed = abs(a.mean() - b.mean())
        draws = np.random.default_rng(5)
        count = 0
        for _ in range(n_permutations):
            order = draws.permutation(pooled.size)
            diff = abs(pooled[order[:a.size]].mean() - pooled[order[a.size:]].mean())
            count += diff >= observed - 1e-12
        result = permutation_test(a, b, n_permutations=n_permutations, seed=5)
        assert result.p_value == (1 + count) / (1 + n_permutations)


class TestClusterLocality:
    def test_three_by_three_block_oracle(self):
        # Top nine units forming a 3x3 block: 20 pairs at distance 1 and
        # 16 at distance 2, so the mean pairwise distance is 52/36.
        topo = build_topography(8, 8, 1)
        energies = np.zeros(64)
        for y in (2, 3, 4):
            for x in (2, 3, 4):
                energies[y * 8 + x] = 5.0
        activations = np.sqrt(energies)[None, :]
        trace = make_trace(activations)
        value = cluster_locality(trace, topo, 9)
        npt.assert_allclose(value, 52 / 36, atol=1e-12)

    def test_k_one_is_zero(self, rng):
        topo = build_topography(4, 4, 1)
        trace = make_trace(rng.standard_normal((5, 16)))
        assert cluster_locality(trace, topo, 1) == 0.0

    def test_adjacent_pair_scores_one(self):
        topo = build_topography(4, 4, 1)
        activations = np.zeros((1, 16))
        activations[0, 5] = 3.0
        activations[0, 6] = 2.0
        assert cluster_locality(make_trace(activations), topo, 2) == 1.0

    def test_ties_break_toward_low_index(self):
        topo = build_topography(4, 4, 1)
        # All equal energies: top 2 must be units 0 and 1 (distance 1).
        trace = make_trace(np.ones((3, 16)))
        assert cluster_locality(trace, topo, 2) == 1.0

    def test_averages_over_frames(self):
        topo = build_topography(4, 4, 1)
        a = np.zeros((2, 16))
        a[0, 0] = a[0, 1] = 1.0     # distance 1
        a[1, 0] = a[1, 2] = 1.0     # distance 2
        assert cluster_locality(make_trace(a), topo, 2) == 1.5

    def test_k_bounds(self, rng):
        topo = build_topography(4, 4, 1)
        trace = make_trace(rng.standard_normal((3, 16)))
        with pytest.raises(BadK):
            cluster_locality(trace, topo, 0)
        with pytest.raises(BadK):
            cluster_locality(trace, topo, 17)

    def test_shuffled_topography_equals_relabeled_trace(self, rng):
        topo = build_topography(4, 3, 1)
        trace = make_trace(rng.standard_normal((20, 12)))
        seed = 23
        shuffled = shuffle_topography(topo, seed)
        perm = np.random.default_rng(seed).permutation(12)
        relabeled = make_trace(trace.activations[:, np.argsort(perm)])
        npt.assert_allclose(cluster_locality(trace, shuffled, 4),
                            cluster_locality(relabeled, topo, 4), atol=1e-12)


class TestMatrixFormMatchesLoops:
    """Every analysis gives the bytes of its one-unit, one-pair, one-frame loop.

    Frame counts cross numpy's pairwise-summation thresholds (blocks of 8,
    and 128 elements). The lattice is shuffled and unit 3 is constant.
    """

    FRAMES = [2, 7, 9, 128, 129, 300, 1025]

    @staticmethod
    def setup(n_frames):
        topo = shuffle_topography(build_topography(5, 4, 1), seed=7)
        activations = np.random.default_rng(n_frames).standard_normal((n_frames, 20))
        activations[:, 3] = 0.5
        return make_trace(activations), topo

    @staticmethod
    def loop_autocorr(values, max_lag):
        out = np.full((values.shape[1], max_lag + 1), np.nan)
        for i in np.flatnonzero(values.std(axis=0) > 0.0):
            out[i, 0] = 1.0
            for lag in range(1, max_lag + 1):
                out[i, lag] = pearson_one_pair(values[:-lag, i], values[lag:, i])
        return out

    @pytest.mark.parametrize("use_energy", [False, True], ids=["activations", "energies"])
    @pytest.mark.parametrize("n_frames", FRAMES[1:])    # 2 frames allow no lag
    def test_autocorrelation(self, n_frames, use_energy):
        trace, _ = self.setup(n_frames)
        max_lag = min(n_frames - 2, 9)
        with pytest.warns(UserWarning, match="constant"):
            report = autocorrelation(trace, max_lag, shuffle_seed=4, use_energy=use_energy)
        shuffled = shuffle_frames(trace, 4)
        values, shuffled_values = ((trace.energies, shuffled.energies) if use_energy
                                   else (trace.activations, shuffled.activations))
        per_unit = self.loop_autocorr(values, max_lag)
        included = ~np.isnan(per_unit[:, 0])
        assert report.per_unit.tobytes() == per_unit.tobytes()
        assert (report.mean_autocorr.tobytes()
                == np.nanmean(per_unit[included], axis=0).tobytes())
        shuffled_mean = np.nanmean(self.loop_autocorr(shuffled_values, max_lag)[included], axis=0)
        assert report.shuffled_mean.tobytes() == shuffled_mean.tobytes()

    @pytest.mark.parametrize("n_frames", FRAMES)
    def test_adjacent_correlation(self, n_frames):
        trace, topo = self.setup(n_frames)
        report = adjacent_correlation(trace, topo)
        expected = np.array([pearson_one_pair(trace.energies[:, i], trace.energies[:, j])
                             for i, j in adjacent_pairs(topo)])
        assert report.pair_correlations.tobytes() == expected.tobytes()
        assert report.mean_r == float(np.nanmean(expected))

    @pytest.mark.parametrize("k", [1, 2, 5, 20])
    @pytest.mark.parametrize("n_frames", FRAMES)
    def test_cluster_locality(self, n_frames, k):
        trace, topo = self.setup(n_frames)
        dist = pairwise_distances(topo)
        iu, ju = np.triu_indices(k, 1)
        total = 0.0
        for energies in trace.energies:
            top = np.argsort(-energies, kind="stable")[:k]
            total += dist[top[iu], top[ju]].mean() if k > 1 else 0.0
        value = cluster_locality(trace, topo, k)
        assert type(value) is float
        assert value == total / n_frames


class TestReports:
    def test_autocorr_csv(self, tmp_path, rng):
        trace = make_trace(rng.standard_normal((30, 3)))
        report = autocorrelation(trace, 4)
        path = tmp_path / "autocorr.csv"
        write_autocorr_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lag,mean_r,shuffled_mean_r"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 1.0

    def test_adjacency_csv(self, tmp_path, rng):
        topo = build_topography(4, 3, 1)
        report = adjacent_correlation(make_trace(rng.standard_normal((30, 12))), topo)
        path = tmp_path / "adjacency.csv"
        write_adjacency_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "unit_i,unit_j,r"
        assert len(lines) == 49

    def test_summary_mentions_everything(self, rng):
        trace = make_trace(rng.standard_normal((40, 12)))
        topo = build_topography(4, 3, 1)
        autocorr = autocorrelation(trace, 3)
        adjacency = compare_adjacency(adjacent_correlation(trace, topo),
                                      adjacent_correlation(trace, topo),
                                      n_permutations=50, seed=0)
        text = format_summary(autocorr=autocorr, adjacency=adjacency,
                              locality=1.25, locality_k=5)
        assert "autocorrelation" in text
        assert "adjacent-pair" in text
        assert "p = " in text
        assert "1.25" in text
