"""Temporal and spatial statistics of activation traces.

Three questions about a trained model, each answered against an explicit
chance control:

* do unit activations persist over time (per-lag autocorrelation versus
  a frame-shuffled copy),
* do lattice neighbors have correlated energies (adjacent-pair Pearson
  correlation, compared across models with a permutation test),
* do the strongest units in a frame sit near each other on the lattice
  (mean pairwise torus distance of the top-k units).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .activation import ActivationTrace, shuffle_frames
from .errors import BadK, ConfigError, DegenerateSeries, DimensionMismatch, EmptyGroup
from .matrixio import format_float, write_table
from .topography import Topography, adjacent_pairs, pairwise_distances

# Random relabelings drawn by a permutation test unless told otherwise.
N_PERMUTATIONS = 10000
PERMUTATION_BLOCK = 1024    # permutation draws gathered per block


@dataclass(eq=False)
class AutocorrReport:
    lags: np.ndarray             # 0..max_lag
    mean_autocorr: np.ndarray    # per lag, mean over included units
    per_unit: np.ndarray         # (n_units, max_lag + 1), NaN rows for excluded
    shuffled_mean: np.ndarray    # same statistic on a frame-shuffled trace
    frame_rate: float
    n_excluded: int


@dataclass
class AdjacencyComparison:
    other_mean_r: float
    p_value: float
    n_permutations: int


@dataclass(eq=False)
class AdjacencyReport:
    pairs: np.ndarray            # (m, 2) unit index pairs at lattice distance 1
    pair_correlations: np.ndarray
    mean_r: float
    comparison: AdjacencyComparison | None = None


@dataclass
class PermutationResult:
    observed_diff: float
    p_value: float
    n_permutations: int


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    if denom == 0.0:
        return np.nan
    return float((a * b).sum() / denom)


def _per_unit_autocorr(values: np.ndarray, max_lag: int, included: np.ndarray) -> np.ndarray:
    """Lag-0..max_lag autocorrelation of each included column.

    Each lagged segment is centered on its own mean, so the estimate
    stays unbiased when the series drifts.
    """
    n_units = values.shape[1]
    out = np.full((n_units, max_lag + 1), np.nan)
    for i in np.flatnonzero(included):
        series = values[:, i]
        out[i, 0] = 1.0
        for lag in range(1, max_lag + 1):
            out[i, lag] = _pearson(series[:-lag], series[lag:])
    return out


def autocorrelation(trace: ActivationTrace, max_lag: int, shuffle_seed: int = 0,
                    use_energy: bool = False) -> AutocorrReport:
    """Per-unit autocorrelation up to `max_lag`, with a shuffled control.

    Defaults to the signed activations; `use_energy` switches to the
    squared responses. Units whose series never varies are excluded
    (with a warning) rather than polluting the mean with NaNs. The
    control applies the same computation to a seeded random permutation
    of the frames, which destroys temporal order but keeps every
    marginal distribution.
    """
    if max_lag < 1:
        raise ConfigError(f"max_lag must be >= 1, got {max_lag}")
    if max_lag >= trace.n_frames:
        raise DegenerateSeries(f"max_lag {max_lag} needs more than {trace.n_frames} frames")
    values = trace.energies if use_energy else trace.activations
    included = values.std(axis=0) > 0.0
    n_excluded = int((~included).sum())
    if n_excluded:
        warnings.warn(f"excluding {n_excluded} constant unit series from autocorrelation",
                      stacklevel=2)
    if not included.any():
        raise DegenerateSeries("every unit series is constant")

    per_unit = _per_unit_autocorr(values, max_lag, included)
    shuffled = shuffle_frames(trace, shuffle_seed)
    shuffled_values = shuffled.energies if use_energy else shuffled.activations
    shuffled_per_unit = _per_unit_autocorr(shuffled_values, max_lag, included)
    return AutocorrReport(
        lags=np.arange(max_lag + 1),
        mean_autocorr=np.nanmean(per_unit[included], axis=0),
        per_unit=per_unit,
        shuffled_mean=np.nanmean(shuffled_per_unit[included], axis=0),
        frame_rate=trace.frame_rate,
        n_excluded=n_excluded,
    )


def adjacent_correlation(trace: ActivationTrace, topo: Topography) -> AdjacencyReport:
    """Energy correlation over every unordered lattice-neighbor pair.

    Pairs at torus distance exactly 1; correlations are Pearson on the
    energy series, and the headline number is their mean (constant-series
    pairs contribute NaN and are dropped from the mean).
    """
    if trace.n_units != topo.n_units:
        raise DimensionMismatch(f"trace has {trace.n_units} units, lattice {topo.n_units}")
    pairs = adjacent_pairs(topo)
    correlations = np.array([_pearson(trace.energies[:, i], trace.energies[:, j])
                             for i, j in pairs])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN is reported as NaN
        mean_r = float(np.nanmean(correlations)) if len(correlations) else np.nan
    return AdjacencyReport(pairs=pairs, pair_correlations=correlations, mean_r=mean_r)


def permutation_test(group_a: np.ndarray, group_b: np.ndarray, n_permutations: int = N_PERMUTATIONS,
                     seed: int = 0) -> PermutationResult:
    """Two-sided test of mean difference by random relabeling.

    The p-value uses the add-one estimate (1 + #extreme) / (1 + N), so a
    sampled p can never reach 0. Comparisons of permuted against observed
    differences allow a 1e-12 absolute slack so that float round-off in
    recombined means does not flip ties.
    """
    a = np.asarray(group_a, dtype=np.float64).ravel()
    b = np.asarray(group_b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise EmptyGroup("both groups must be non-empty")
    if n_permutations < 1:
        raise ConfigError(f"n_permutations must be >= 1, got {n_permutations}")
    observed = abs(a.mean() - b.mean())
    pooled = np.concatenate([a, b])
    rng = np.random.default_rng(seed)
    # One rng.permutation per draw keeps the random stream of a draw-by-draw
    # loop. Draws are gathered a block at a time; the mean over a contiguous
    # row sums in the same order as the 1-D mean of that row.
    block = np.empty((min(PERMUTATION_BLOCK, n_permutations), pooled.size), dtype=np.intp)
    count = 0
    for start in range(0, n_permutations, len(block)):
        orders = block[:n_permutations - start]
        for row in orders:
            row[:] = rng.permutation(pooled.size)
        diff = np.abs(pooled[orders[:, :a.size]].mean(axis=1)
                      - pooled[orders[:, a.size:]].mean(axis=1))
        count += int(np.count_nonzero(diff >= observed - 1e-12))
    return PermutationResult(
        observed_diff=observed,
        p_value=(1 + count) / (1 + n_permutations),
        n_permutations=n_permutations,
    )


def compare_adjacency(report: AdjacencyReport, other: AdjacencyReport,
                      n_permutations: int = N_PERMUTATIONS, seed: int = 0) -> AdjacencyReport:
    """Attach a permutation test of mean_r against another model's report."""
    mine = report.pair_correlations[~np.isnan(report.pair_correlations)]
    theirs = other.pair_correlations[~np.isnan(other.pair_correlations)]
    result = permutation_test(mine, theirs, n_permutations, seed)
    return AdjacencyReport(
        pairs=report.pairs,
        pair_correlations=report.pair_correlations,
        mean_r=report.mean_r,
        comparison=AdjacencyComparison(
            other_mean_r=other.mean_r,
            p_value=result.p_value,
            n_permutations=n_permutations,
        ),
    )


def cluster_locality(trace: ActivationTrace, topo: Topography, k: int) -> float:
    """Mean lattice spread of each frame's top-k energy units.

    For every frame, take the k units with the largest energies (ties
    broken toward the lower unit index) and average the torus distance
    over all pairs among them; return the mean over frames. Smaller
    values mean the strongest activity sits in tighter lattice clusters.
    A single-unit cluster has no pairs and scores 0.
    """
    if trace.n_units != topo.n_units:
        raise DimensionMismatch(f"trace has {trace.n_units} units, lattice {topo.n_units}")
    if not 1 <= k <= topo.n_units:
        raise BadK(f"k must be in 1..{topo.n_units}, got {k}")
    if k == 1:
        return 0.0
    dist = pairwise_distances(topo)
    iu, ju = np.triu_indices(k, 1)
    total = 0.0
    for t in range(trace.n_frames):
        top = np.argsort(-trace.energies[t], kind="stable")[:k]
        total += dist[top[iu], top[ju]].mean()
    return total / trace.n_frames


def write_autocorr_csv(report: AutocorrReport, path) -> None:
    write_table(path, ["lag", "mean_r", "shuffled_mean_r"],
                zip(report.lags, report.mean_autocorr, report.shuffled_mean))


def write_adjacency_csv(report: AdjacencyReport, path) -> None:
    write_table(path, ["unit_i", "unit_j", "r"],
                ((i, j, r) for (i, j), r in zip(report.pairs, report.pair_correlations)))


def format_summary(autocorr: AutocorrReport | None = None,
                   adjacency: AdjacencyReport | None = None,
                   locality: float | None = None, locality_k: int | None = None) -> str:
    """Plain-text block summarizing whichever reports were produced."""
    lines = []
    if autocorr is not None:
        lines.append(f"autocorrelation over {len(autocorr.lags) - 1} lags "
                     f"at {format_float(autocorr.frame_rate)} frames/s")
        if autocorr.n_excluded:
            lines.append(f"  excluded constant units: {autocorr.n_excluded}")
        for lag in autocorr.lags[1:]:
            lines.append(f"  lag {int(lag)}: mean r {autocorr.mean_autocorr[lag]:+.4f}"
                         f"  (shuffled {autocorr.shuffled_mean[lag]:+.4f})")
    if adjacency is not None:
        lines.append(f"adjacent-pair energy correlation over {len(adjacency.pairs)} pairs: "
                     f"mean r {adjacency.mean_r:+.4f}")
        if adjacency.comparison is not None:
            c = adjacency.comparison
            lines.append(f"  versus other model mean r {c.other_mean_r:+.4f}: "
                         f"p = {c.p_value:.4f} ({c.n_permutations} permutations)")
    if locality is not None:
        k_note = f" (top {locality_k})" if locality_k else ""
        lines.append(f"mean top-unit lattice spread{k_note}: {locality:.4f}")
    return "\n".join(lines) + "\n"
