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

import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .activation import ActivationTrace
from .errors import BadK, ConfigError, DegenerateSeries, DimensionMismatch, EmptyGroup
from .matrixio import format_float, write_table
from .topography import Topography, adjacent_pairs, pairwise_distances

# Random relabelings drawn by a permutation test unless told otherwise.
N_PERMUTATIONS = 10000
PERMUTATION_BLOCK = 1024    # permutation draws per block, each block with its own stream
PERMUTATION_KEYS = 1 << 16  # relabeling keys drawn at once, in whole draws of a block
LOCALITY_BLOCK = 1 << 18    # top-k pair distances gathered per block of frames


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


def _varying(rows: np.ndarray) -> np.ndarray:
    """Whether each row holds two different values, tested exactly: the mean
    of equal values need not equal them, so a rounded spread can miss them."""
    return rows.max(axis=1) > rows.min(axis=1)


def _row_correlations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pearson r of each row of `a` with the same row of `b`; NaN where
    either row is constant, or where the product of their spreads
    underflows to 0, as for rows that vary by about 1e-100.

    Each row is centered on its own mean, so a drifting series does not
    bias r. Contiguous rows reduce along axis 1 in the same pairwise order
    as a 1-D sum, so each r has the bits of the one-pair-at-a-time formula.
    """
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    varying = _varying(a) & _varying(b)
    a = a - a.mean(axis=1, keepdims=True)
    b = b - b.mean(axis=1, keepdims=True)
    denom = np.sqrt((a * a).sum(axis=1) * (b * b).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(varying & (denom > 0.0), (a * b).sum(axis=1) / denom, np.nan)


def _nanmean(values: np.ndarray, axis=None):
    """np.nanmean, with an all-NaN mean reported as NaN without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.nanmean(values, axis=axis)


def _per_unit_autocorr(values: np.ndarray, max_lag: int, included: np.ndarray) -> np.ndarray:
    """Lag-0..max_lag autocorrelation of each column, one lag at a time;
    the rows of excluded columns are NaN."""
    series = values.T
    out = np.ones((values.shape[1], max_lag + 1))
    for lag in range(1, max_lag + 1):
        out[:, lag] = _row_correlations(series[:, :-lag], series[:, lag:])
    out[~included] = np.nan
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
    if max_lag > trace.n_frames - 2:    # the last lag needs 2-frame segments
        raise DegenerateSeries(f"max_lag {max_lag} needs at least {max_lag + 2} frames, "
                               f"the trace has {trace.n_frames}")
    values = trace.energies if use_energy else trace.activations
    included = _varying(values.T)
    n_excluded = int((~included).sum())
    if n_excluded:
        warnings.warn(f"excluding {n_excluded} constant unit series from autocorrelation",
                      stacklevel=2)
    if not included.any():
        raise DegenerateSeries("every unit series is constant")

    per_unit = _per_unit_autocorr(values, max_lag, included)
    shuffled = values[np.random.default_rng(shuffle_seed).permutation(trace.n_frames)]
    shuffled_per_unit = _per_unit_autocorr(shuffled, max_lag, included)
    return AutocorrReport(
        lags=np.arange(max_lag + 1),
        mean_autocorr=_nanmean(per_unit[included], axis=0),
        per_unit=per_unit,
        shuffled_mean=_nanmean(shuffled_per_unit[included], axis=0),
        frame_rate=trace.frame_rate,
        n_excluded=n_excluded,
    )


def adjacent_correlation(trace: ActivationTrace, topo: Topography) -> AdjacencyReport:
    """Energy correlation over every unordered lattice-neighbor pair.

    Pairs at torus distance exactly 1; correlations are Pearson on the
    energy series, and the headline number is their mean (constant-series
    pairs contribute NaN and are dropped from the mean; with no other
    pair, there is no mean).
    """
    if trace.n_units != topo.n_units:
        raise DimensionMismatch(f"trace has {trace.n_units} units, lattice {topo.n_units}")
    pairs = adjacent_pairs(topo)
    energies = trace.energies.T
    correlations = _row_correlations(energies[pairs[:, 0]], energies[pairs[:, 1]])
    if np.isnan(correlations).all():
        raise DegenerateSeries("no adjacent pair of units has two varying energy series")
    return AdjacencyReport(pairs=pairs, pair_correlations=correlations,
                           mean_r=float(np.nanmean(correlations)))


def _usable_cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:    # no affinity call on this platform
        return os.cpu_count() or 1


def _relabelings(rng: np.random.Generator, n_draws: int, n_pooled: int, n_a: int) -> np.ndarray:
    """(n_draws, n_pooled) orders of the pooled values; the first `n_a`
    columns of each row are a uniform random `n_a`-subset, group A.

    A row's subset holds the indices of its `n_a` smallest iid uniform
    keys, so every subset of that size is equally likely.
    """
    return np.argpartition(rng.random((n_draws, n_pooled)), n_a - 1, axis=1)


def permutation_test(group_a: np.ndarray, group_b: np.ndarray, n_permutations: int = N_PERMUTATIONS,
                     seed: int = 0) -> PermutationResult:
    """Two-sided test of mean difference by random relabeling.

    Each relabeling puts a uniform random subset of the pooled values, of
    group A's size, in group A: an exact Monte Carlo permutation test.
    Draws come in blocks of PERMUTATION_BLOCK, block i from the i-th child
    of SeedSequence(seed), and the blocks run on every usable core; each
    block's count of extreme draws is its own, so p does not depend on the
    core count or on the order in which blocks finish. A block draws its
    keys about PERMUTATION_KEYS at a time, in whole draws, from its one
    generator, which fills them in stream order: the draws are those of
    one array per block, but a thread holds a bounded slice of them.

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
    starts = range(0, n_permutations, PERMUTATION_BLOCK)
    streams = np.random.SeedSequence(seed).spawn(len(starts))

    step = max(1, PERMUTATION_KEYS // pooled.size)

    def count_extreme(start, stream):
        rng = np.random.default_rng(stream)
        n_draws = min(PERMUTATION_BLOCK, n_permutations - start)
        extreme = 0
        for done in range(0, n_draws, step):
            orders = _relabelings(rng, min(step, n_draws - done), pooled.size, a.size)
            diff = np.abs(pooled[orders[:, :a.size]].mean(axis=1)
                          - pooled[orders[:, a.size:]].mean(axis=1))
            extreme += int(np.count_nonzero(diff >= observed - 1e-12))
        return extreme

    # Imported here: it pulls in logging, which no other command should pay for at start-up.
    from concurrent.futures import ThreadPoolExecutor

    # Drawing and partitioning keys release the GIL, and nothing here calls BLAS.
    with ThreadPoolExecutor(min(_usable_cores(), len(starts))) as pool:
        counts = list(pool.map(count_extreme, starts, streams))
    return PermutationResult(
        observed_diff=observed,
        p_value=(1 + sum(counts)) / (1 + n_permutations),
        n_permutations=n_permutations,
    )


def compare_adjacency(report: AdjacencyReport, other: AdjacencyReport,
                      n_permutations: int = N_PERMUTATIONS, seed: int = 0) -> AdjacencyReport:
    """Attach a permutation test of mean_r against another model's report."""
    mine = report.pair_correlations[~np.isnan(report.pair_correlations)]
    theirs = other.pair_correlations[~np.isnan(other.pair_correlations)]
    result = permutation_test(mine, theirs, n_permutations, seed)
    return replace(report, comparison=AdjacencyComparison(
        other_mean_r=other.mean_r, p_value=result.p_value, n_permutations=n_permutations))


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
    top = np.argsort(-trace.energies, axis=1, kind="stable")[:, :k]
    # The pair distances are gathered a block of frames at a time, about
    # LOCALITY_BLOCK of them; each frame's mean is over its own row.
    per_frame = np.empty(trace.n_frames)
    step = max(1, LOCALITY_BLOCK // iu.size)
    for start in range(0, trace.n_frames, step):
        rows = top[start:start + step]
        per_frame[start:start + step] = dist[rows[:, iu], rows[:, ju]].mean(axis=1)
    # cumsum adds the frames in order, as a running total would.
    return float(np.cumsum(per_frame)[-1] / trace.n_frames)


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
