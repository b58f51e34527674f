"""Acceptance gate: every release criterion, one pass/fail line each.

Run with plain pytest; each test prints its verdict outside the capture
so the lines always appear in the console:

    [acceptance] <criterion>: PASS (<measured numbers>)

The model-quality criteria train ten TICA/ICA pairs at desk scale, which
takes a few minutes on one core. The full-size smoke run is opt-in via
TOPICA_FULL_SCALE=1 since it needs several minutes and a few GB.
"""

import os
import time

import numpy as np
import pytest

import topica
from topica.cli import main, render_montage
from topica.estimation import TrainConfig, ica_train, tica_gradient, tica_objective, train
from topica.estimation import symmetric_orthonormalize
from topica.images import PatchSet, extract_fixed_patches, write_image

SEEDS = range(10)
PATCH_SIDE = 9
N_UNITS = 64


@pytest.fixture()
def report(capfd):
    def _report(name, passed, detail=""):
        status = "PASS" if passed else "FAIL"
        line = f"[acceptance] {name}: {status}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert passed, line
    return _report


@pytest.fixture(scope="module")
def corpus_images():
    return [topica.normalize_image(topica.generate_dead_leaves(256, 256, 220, seed=s))
            for s in (101, 102, 103, 104)]


@pytest.fixture(scope="module")
def training_patches(corpus_images):
    return topica.extract_patches_from_images(corpus_images, PATCH_SIDE, 20000, seed=7)


@pytest.fixture(scope="module")
def whitening(training_patches):
    return topica.fit_whitening(training_patches, N_UNITS)


@pytest.fixture(scope="module")
def topo():
    return topica.build_topography(8, 8, 1)


@pytest.fixture(scope="module")
def model_pairs(training_patches, whitening, topo):
    """One (TICA, ICA) pair per seed, trained on identical data."""
    pairs = {}
    for s in SEEDS:
        config = TrainConfig(seed=s, max_iters=300, tol=1e-4)
        pairs[s] = (train(training_patches, whitening, topo, config),
                    ica_train(training_patches, whitening, topo, config))
    return pairs


@pytest.fixture(scope="module")
def panning_patches():
    scene = topica.normalize_image(topica.generate_dead_leaves(
        512, 512, 900, seed=500, min_radius=3, max_radius=40))
    seq = topica.generate_panning_sequence(scene, 64, 1500, speed=0.1, seed=11)
    origin = ((64 - PATCH_SIDE) // 2, (64 - PATCH_SIDE) // 2)
    return extract_fixed_patches(seq, origin, PATCH_SIDE)


@pytest.fixture(scope="module")
def bar_patches():
    spec = topica.BarStimulusSpec(patch_side=PATCH_SIDE, thickness=1,
                                  orientation="horizontal", n_frames=16)
    seq = topica.generate_moving_bar(spec)
    return extract_fixed_patches(seq, (0, 0), PATCH_SIDE)


def test_criterion_01_whitening_identity(corpus_images, report):
    started = time.perf_counter()
    patches = topica.extract_patches_from_images(corpus_images, 8, 20000, seed=7)
    model = topica.fit_whitening(patches, 60)
    z = topica.whiten(model, patches)
    cov = z.T @ z / z.shape[0]
    deviation = np.abs(cov - np.eye(60)).max()
    elapsed = time.perf_counter() - started
    report("whitened covariance is the identity",
           deviation < 1e-6 and elapsed < 30.0,
           f"max deviation {deviation:.2e}, {elapsed:.1f}s")


def test_criterion_02_gradient_matches_finite_differences(report):
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    grid = topica.build_topography(4, 4, 1)
    filters = symmetric_orthonormalize(rng.standard_normal((16, 16)))
    batch = rng.standard_normal((20, 16))
    eps = 0.005
    grad = tica_gradient(filters, batch, grid, eps)
    h = 1e-6
    fd = np.zeros_like(filters)
    for i in range(16):
        for j in range(16):
            up = filters.copy()
            up[i, j] += h
            down = filters.copy()
            down[i, j] -= h
            fd[i, j] = (tica_objective(up, batch, grid, eps)
                        - tica_objective(down, batch, grid, eps)) / (2 * h)
    rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
    elapsed = time.perf_counter() - started
    report("analytic gradient matches central differences",
           rel < 1e-5 and elapsed < 5.0, f"relative error {rel:.2e}, {elapsed:.1f}s")


def test_criterion_03_orthonormality_throughout_training(training_patches, whitening,
                                                         topo, report):
    config = TrainConfig(seed=0, max_iters=200, tol=0.0)
    model = train(training_patches, whitening, topo, config)
    worst = max(r.ortho_error for r in model.training_log)
    iterations = model.training_log[-1].iteration
    report("filters stay orthonormal at every logged iteration",
           worst < 1e-8 and iterations == 200,
           f"{iterations} iterations, max deviation {worst:.2e}")


def test_criterion_04_radius_zero_reduces_to_independent_units(report):
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(10):
        width, height = rng.choice([(4, 4), (5, 3), (6, 2), (8, 2)])
        n = width * height
        grid = topica.build_topography(int(width), int(height), 0)
        filters = rng.standard_normal((n, n))
        batch = rng.standard_normal((rng.integers(5, 30), n))
        eps = 0.005
        pooled = tica_gradient(filters, batch, grid, eps)
        independent = np.zeros_like(filters)
        for i in range(n):
            y = batch @ filters[i]
            score = -0.5 / np.sqrt(eps + y * y)
            independent[i] = 2.0 / batch.shape[0] * (y * score) @ batch
        worst = max(worst, np.abs(pooled - independent).max())
    report("radius-0 gradient equals the independent-unit gradient",
           worst < 1e-12, f"max deviation over 10 instances {worst:.2e}")


def test_criterion_05_single_basis_probes(model_pairs, whitening, report):
    model = model_pairs[0][0]
    hits = 0
    worst_ratio = 0.0
    for unit in range(N_UNITS):
        probe = topica.generate_single_basis_probe(model, unit)
        patches = PatchSet(probe.values.reshape(1, -1), PATCH_SIDE)
        trace = topica.compute_activation(model, whitening, patches)
        magnitudes = np.abs(trace.activations[0])
        order = np.argsort(-magnitudes)
        if order[0] == unit:
            hits += 1
        worst_ratio = max(worst_ratio, magnitudes[order[1]] / magnitudes[order[0]])
    report("each basis probe activates only its own unit",
           hits == N_UNITS and worst_ratio < 0.05,
           f"{hits}/{N_UNITS} probes, worst second/first ratio {worst_ratio:.2e}")


def test_criterion_06_reconstruction_identity(corpus_images, model_pairs, whitening, report):
    test_patches = topica.extract_patches_from_images(corpus_images, PATCH_SIDE, 100,
                                                      seed=909)
    model = model_pairs[0][0]
    trace = topica.compute_activation(model, whitening, test_patches)
    recon = topica.reconstruct(model, trace)
    direct = topica.dewhiten(whitening, topica.whiten(whitening, test_patches))
    deviation = np.abs(recon.data - direct).max()
    report("basis reconstruction equals the retained-subspace projection",
           deviation < 1e-8, f"max deviation over 100 patches {deviation:.2e}")


def test_criterion_07_moving_bar_cluster_locality(model_pairs, whitening, bar_patches,
                                                  report):
    wins = 0
    values = []
    for s in SEEDS:
        tica, ica = model_pairs[s]
        loc_t = topica.cluster_locality(
            topica.compute_activation(tica, whitening, bar_patches), tica.topo, 5)
        loc_i = topica.cluster_locality(
            topica.compute_activation(ica, whitening, bar_patches), ica.topo, 5)
        wins += loc_t < loc_i
        values.append((loc_t, loc_i))
    mean_t = np.mean([v[0] for v in values])
    mean_i = np.mean([v[1] for v in values])
    report("moving bars activate tighter clusters under the lattice model",
           wins >= 8, f"{wins}/10 seeds, mean spread {mean_t:.2f} vs {mean_i:.2f}")


def test_criterion_08_adjacent_energy_correlation_pattern(model_pairs, whitening,
                                                          panning_patches, report):
    wins = 0
    details = []
    for s in SEEDS:
        tica, ica = model_pairs[s]
        trace_t = topica.compute_activation(tica, whitening, panning_patches)
        trace_i = topica.compute_activation(ica, whitening, panning_patches)
        adj_t = topica.adjacent_correlation(trace_t, tica.topo)
        adj_i = topica.adjacent_correlation(trace_i, ica.topo)
        shuffled = topica.shuffle_topography(tica.topo, 99 + s)
        adj_s = topica.adjacent_correlation(trace_t, shuffled)
        p_ti = topica.permutation_test(adj_t.pair_correlations, adj_i.pair_correlations,
                                       10000, seed=s).p_value
        p_ts = topica.permutation_test(adj_t.pair_correlations, adj_s.pair_correlations,
                                       10000, seed=s).p_value
        p_is = topica.permutation_test(adj_i.pair_correlations, adj_s.pair_correlations,
                                       10000, seed=s).p_value
        ok = p_ti < 0.05 and p_ts < 0.05 and p_is > 0.05
        wins += ok
        details.append(f"s{s} r={adj_t.mean_r:.2f}/{adj_i.mean_r:.2f}/{adj_s.mean_r:.2f}"
                       f" p={p_ti:.3f}/{p_ts:.3f}/{p_is:.3f}")
    report("adjacent energies: lattice > independent, shuffled control not",
           wins >= 8, f"{wins}/10 seeds pass the significant/significant/ns pattern: "
                      + "; ".join(details))


def test_criterion_09_autocorrelation_pattern(model_pairs, whitening, panning_patches,
                                              report):
    model = model_pairs[0][0]
    trace = topica.compute_activation(model, whitening, panning_patches)
    result = topica.autocorrelation(trace, 10, shuffle_seed=0)
    margins = result.mean_autocorr[1:] - result.shuffled_mean[1:]
    bound = 3 / np.sqrt(trace.n_frames)
    baseline_peak = np.abs(result.shuffled_mean[1:]).max()
    report("activations stay autocorrelated over lags 1-10",
           margins.min() > 0.1 and baseline_peak < bound,
           f"min margin {margins.min():.3f}, shuffled peak {baseline_peak:.3f} < {bound:.3f}")


def test_criterion_10_permutation_test_exactness(report):
    sampled = topica.permutation_test([0.0, 0.0], [1.0, 1.0], n_permutations=10000,
                                      seed=0)
    same = topica.permutation_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0],
                                   n_permutations=1000, seed=0)
    report("sampled p-values converge to the enumerated values",
           abs(sampled.p_value - 1 / 3) < 0.05 and same.p_value == 1.0,
           f"p {sampled.p_value:.4f} vs 1/3, identical groups p {same.p_value}")


def _tree_bytes(root):
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def test_criterion_11_pipeline_determinism(tmp_path, report):
    image_dir = tmp_path / "images"
    image_dir.mkdir()
    for s in (31, 32, 33):
        img = topica.generate_dead_leaves(96, 96, 110, seed=s, min_radius=2,
                                          max_radius=12)
        write_image(image_dir / f"img_{s}.pgm", img, lo=0.0, hi=1.0)
    runs = []
    for tag in ("first", "second"):
        base = tmp_path / tag
        model = base / "model"
        trace = base / "trace"
        assert main(["train", "--images", str(image_dir), "--out", str(model),
                     "--patch-side", "5", "--n-patches", "2000", "--k", "16",
                     "--map-width", "4", "--map-height", "4", "--max-iters", "30",
                     "--seed", "3"]) == 0
        assert main(["activate", "--model", str(model), "--bar", "horizontal",
                     "--out", str(trace)]) == 0
        assert main(["analyze", "--trace", str(trace), "--mode", "autocorr",
                     "--max-lag", "5", "--out", str(base / "autocorr")]) == 0
        assert main(["analyze", "--trace", str(trace), "--mode", "adjacency",
                     "--model", str(model), "--permutations", "200",
                     "--out", str(base / "adjacency")]) == 0
        runs.append(_tree_bytes(base))
    identical = runs[0].keys() == runs[1].keys() and all(
        runs[0][name] == runs[1][name] for name in runs[0])
    report("train + activate + analyze is bit-identical across reruns",
           identical, f"{len(runs[0])} files compared")


@pytest.mark.skipif(not os.environ.get("TOPICA_FULL_SCALE"),
                    reason="set TOPICA_FULL_SCALE=1 for the full-size smoke run")
def test_criterion_12_full_scale_smoke(tmp_path, report):
    images = [topica.normalize_image(topica.generate_dead_leaves(
        1024, 1024, 1200, seed=s, min_radius=4, max_radius=180)) for s in (71, 72, 73)]
    patches = topica.extract_patches_from_images(images, 100, 8000, seed=7)
    whitening = topica.fit_whitening(patches, 200)
    grid = topica.build_topography(20, 10, 1)
    model = train(patches, whitening, grid, TrainConfig(seed=0, max_iters=150, tol=1e-4))
    montage = render_montage(model)
    out = tmp_path / "montage.pgm"
    write_image(out, montage, lo=0.0, hi=1.0)
    report("full-size run completes and renders a montage",
           montage.width == 20 * 101 + 1 and montage.height == 10 * 101 + 1,
           f"montage {montage.width}x{montage.height} at {out}")
