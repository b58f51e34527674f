import dataclasses
import os
import subprocess
import sys
import tracemalloc
from dataclasses import astuple

import numpy as np
import numpy.testing as npt
import pytest

import topica
from topica.errors import (
    ConfigError,
    DimensionMismatch,
    Diverged,
    FormatError,
    ModelMismatch,
    SingularMatrix,
)
from topica.estimation import (
    CHUNK,
    STEP_FLOOR,
    BasisModel,
    TrainConfig,
    _kernel_work,
    check_model_pairing,
    ica_train,
    load_basis,
    orthonormality_error,
    save_basis,
    symmetric_orthonormalize,
    tica_gradient,
    tica_objective,
    train,
)
from topica.matrixio import read_meta, write_matrix
from topica.topography import Topography, build_topography, shuffle_topography
from topica.whitening import whiten


def reference_objective(filters, batch, topo, epsilon):
    """Straightforward per-sample loops, no shared code with the module."""
    total = 0.0
    for z in batch:
        responses = np.array([w @ z for w in filters])
        for i in range(len(filters)):
            pooled = sum(topo.h[i, j] * responses[j] ** 2 for j in range(len(filters)))
            total += -np.sqrt(epsilon + pooled)
    return total / len(batch)


def test_objective_matches_reference(rng):
    topo = build_topography(3, 3, 1)
    filters = symmetric_orthonormalize(rng.standard_normal((9, 9)))
    batch = rng.standard_normal((7, 9))
    ours = tica_objective(filters, batch, topo, 0.005)
    theirs = reference_objective(filters, batch, topo, 0.005)
    npt.assert_allclose(ours, theirs, rtol=1e-12)


def unchunked_reference(filters, batch, topo, epsilon):
    """Gradient and objective from whole-batch products, with no row blocks."""
    responses = batch @ filters.T
    pooled = (responses * responses) @ topo.h
    objective = -np.sqrt(epsilon + pooled).sum() / len(batch)
    feedback = (-0.5 / np.sqrt(epsilon + pooled)) @ topo.h
    gradient = 2.0 / len(batch) * (responses * feedback).T @ batch
    return gradient, objective


LATTICES = {
    "radius0": build_topography(6, 6, 0),
    "radius1": build_topography(6, 6, 1),
    "radius2": build_topography(6, 6, 2),
    "shuffled": shuffle_topography(build_topography(6, 6, 1), seed=4),
}


@pytest.mark.parametrize("lattice", sorted(LATTICES))
@pytest.mark.parametrize("rows", [1, 700, CHUNK, CHUNK + 1, 5 * CHUNK // 2])
def test_kernel_matches_unchunked_reference(rng, rows, lattice):
    topo = LATTICES[lattice]
    filters = symmetric_orthonormalize(rng.standard_normal((36, 36)))
    batch = rng.standard_normal((rows, 36))
    gradient, objective = unchunked_reference(filters, batch, topo, 0.005)
    ours = tica_gradient(filters, batch, topo, 0.005)
    assert np.linalg.norm(ours - gradient) <= 1e-12 * np.linalg.norm(gradient)
    assert abs(tica_objective(filters, batch, topo, 0.005) - objective) <= 1e-12 * abs(objective)


def test_stale_scratch_does_not_reach_the_gradient(rng):
    # The padded rows of a short block are zeroed, whatever the scratch held.
    topo = LATTICES["radius1"]
    filters = symmetric_orthonormalize(rng.standard_normal((36, 36)))
    batch = rng.standard_normal((5, 36))
    clean, stale = _kernel_work(36, 36), _kernel_work(36, 36)
    for buffer in clean:
        buffer.fill(0.0)
    for buffer in stale:
        buffer.fill(np.nan)
    npt.assert_array_equal(tica_gradient(filters, batch, topo, 0.005, stale),
                           tica_gradient(filters, batch, topo, 0.005, clean))


def test_radius_zero_skip_matches_identity_pooling(rng):
    # An identity h at radius 1 takes the pooling products; radius 0 skips them.
    flat = build_topography(6, 6, 0)
    identity = Topography(width=6, height=6, radius=1)
    identity.h = np.eye(36)
    filters = symmetric_orthonormalize(rng.standard_normal((36, 36)))
    batch = rng.standard_normal((CHUNK + 300, 36))
    npt.assert_array_equal(tica_gradient(filters, batch, flat, 0.005),
                           tica_gradient(filters, batch, identity, 0.005))
    assert (tica_objective(filters, batch, flat, 0.005)
            == tica_objective(filters, batch, identity, 0.005))


def test_gradient_matches_finite_differences(rng):
    topo = build_topography(3, 3, 1)
    filters = symmetric_orthonormalize(rng.standard_normal((9, 9)))
    batch = rng.standard_normal((11, 9))
    eps = 0.005
    grad = tica_gradient(filters, batch, topo, eps)
    h = 1e-6
    fd = np.zeros_like(filters)
    for i in range(9):
        for j in range(9):
            up = filters.copy()
            up[i, j] += h
            down = filters.copy()
            down[i, j] -= h
            fd[i, j] = (tica_objective(up, batch, topo, eps)
                        - tica_objective(down, batch, topo, eps)) / (2 * h)
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-6


def test_gradient_dimension_checks(rng):
    topo = build_topography(3, 3, 1)
    with pytest.raises(DimensionMismatch):
        tica_gradient(rng.standard_normal((8, 9)), rng.standard_normal((4, 9)), topo, 0.005)
    with pytest.raises(DimensionMismatch):
        tica_gradient(rng.standard_normal((9, 9)), rng.standard_normal((4, 8)), topo, 0.005)


class TestOrthonormalize:
    def test_produces_orthonormal_rows(self, rng):
        out = symmetric_orthonormalize(rng.standard_normal((6, 10)))
        npt.assert_allclose(out @ out.T, np.eye(6), atol=1e-12)

    def test_fixed_point_on_orthonormal_input(self, rng):
        w = symmetric_orthonormalize(rng.standard_normal((5, 5)))
        npt.assert_allclose(symmetric_orthonormalize(w), w, atol=1e-12)

    def test_symmetric_projection_property(self, rng):
        # (W W^T)^(-1/2) W leaves the row space unchanged.
        w = rng.standard_normal((4, 8))
        out = symmetric_orthonormalize(w)
        # Every output row is a combination of input rows.
        coeffs, residual, *_ = np.linalg.lstsq(w.T, out.T, rcond=None)
        assert residual.size == 0 or residual.max() < 1e-20

    def test_singular_input_rejected(self):
        w = np.ones((3, 5))
        with pytest.raises(SingularMatrix):
            symmetric_orthonormalize(w)

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e300])    # 1e300 overflows the Gram
    def test_non_finite_gram_rejected(self, value):
        with pytest.raises(Diverged, match="not finite"):
            symmetric_orthonormalize(np.full((3, 3), value))

    def test_error_measure(self, rng):
        w = symmetric_orthonormalize(rng.standard_normal((6, 6)))
        assert orthonormality_error(w) < 1e-12
        assert orthonormality_error(2 * w) > 1


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.step0 == 0.1
        assert config.epsilon == 0.005
        assert config.tol == 1e-4

    @pytest.mark.parametrize("kwargs", [
        {"step0": 0.0}, {"epsilon": -1.0}, {"max_iters": 0},
        {"tol": -1e-9}, {"seed": -1},
        {"step0": np.nan}, {"step0": np.inf}, {"epsilon": np.nan}, {"epsilon": np.inf},
        {"tol": np.nan}, {"tol": np.inf},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


# Starts at a step that the first pass rejects, and rejects 7 of its 30 passes.
REJECTING = TrainConfig(seed=2, step0=1.0, max_iters=30, tol=0.0)


def regradient_reference(patches, whitening, topo, config):
    """The training loop with a fresh gradient on every pass, retries included."""
    z = whiten(whitening, patches)
    init_ss, holdout_ss = np.random.SeedSequence(config.seed).spawn(2)
    filters = symmetric_orthonormalize(
        np.random.default_rng(init_ss).standard_normal((topo.n_units, whitening.k)))
    n_holdout = min(1000, max(1, len(z) // 5))
    holdout_idx = np.sort(np.random.default_rng(holdout_ss).choice(
        len(z), size=n_holdout, replace=False))
    holdout = z[holdout_idx]
    rows = z[np.setdiff1d(np.arange(len(z)), holdout_idx)]
    step = config.step0
    objective = tica_objective(filters, holdout, topo, config.epsilon)
    log = [(objective, step)]
    for _ in range(config.max_iters):
        grad = tica_gradient(filters, rows, topo, config.epsilon)
        candidate = symmetric_orthonormalize(filters + step * grad)
        candidate_objective = tica_objective(candidate, holdout, topo, config.epsilon)
        if candidate_objective > objective:
            filters, objective = candidate, candidate_objective
            step = min(step * 1.2, 1.0)
        else:
            step *= 0.5
        log.append((objective, step))
    return filters, log


class TestTrain:
    def test_model_structure(self, small_tica, small_whitening, small_topo):
        model = small_tica
        assert model.kind == "TICA"
        assert model.n_units == 16
        assert model.patch_side == 5
        assert model.filters.shape == (16, 16)
        assert model.basis.shape == (25, 16)
        npt.assert_allclose(model.basis, small_whitening.inverse @ model.filters.T,
                            atol=1e-12)
        assert model.whitening_ref == small_whitening.identity_hash()

    def test_objective_never_decreases_in_log(self, small_tica):
        objectives = [r.objective for r in small_tica.training_log]
        assert all(b >= a for a, b in zip(objectives, objectives[1:]))
        assert objectives[-1] > objectives[0]

    def test_orthonormal_at_every_logged_iteration(self, small_tica):
        assert max(r.ortho_error for r in small_tica.training_log) < 1e-8

    def test_deterministic(self, small_patches, small_whitening, small_topo):
        config = TrainConfig(seed=2, max_iters=5)
        a = train(small_patches, small_whitening, small_topo, config)
        b = train(small_patches, small_whitening, small_topo, config)
        npt.assert_array_equal(a.filters, b.filters)
        assert a.identity_hash() == b.identity_hash()

    def test_seed_changes_result(self, small_patches, small_whitening, small_topo):
        a = train(small_patches, small_whitening, small_topo, TrainConfig(seed=2, max_iters=5))
        b = train(small_patches, small_whitening, small_topo, TrainConfig(seed=3, max_iters=5))
        assert not np.array_equal(a.filters, b.filters)

    def test_one_gradient_per_accepted_filter_set(self, small_patches, small_whitening,
                                                  small_topo, monkeypatch):
        calls = []

        def counting_gradient(*args):
            calls.append(1)
            return tica_gradient(*args)

        monkeypatch.setattr(topica.estimation, "tica_gradient", counting_gradient)
        model = train(small_patches, small_whitening, small_topo, REJECTING)
        objectives = [r.objective for r in model.training_log]
        accepted = [b > a for a, b in zip(objectives, objectives[1:])]
        assert len(accepted) == REJECTING.max_iters
        assert not accepted[0] and 0 < sum(accepted) < len(accepted)
        # The first pass takes a gradient; after that, only a pass that
        # follows an accepted one does.
        assert len(calls) == 1 + sum(accepted[:-1])

    def test_matches_loop_that_regradients_every_pass(self, small_patches, small_whitening,
                                                      small_topo):
        model = train(small_patches, small_whitening, small_topo, REJECTING)
        filters, log = regradient_reference(small_patches, small_whitening, small_topo,
                                            REJECTING)
        npt.assert_array_equal(model.filters, filters)
        assert [(r.objective, r.step) for r in model.training_log] == log

    def test_unit_count_mismatch(self, small_patches, small_whitening):
        topo = build_topography(3, 3, 1)
        with pytest.raises(DimensionMismatch):
            train(small_patches, small_whitening, topo, TrainConfig(max_iters=1))

    def test_ica_forces_radius_zero(self, small_patches, small_whitening, small_topo):
        model = ica_train(small_patches, small_whitening, small_topo,
                          TrainConfig(seed=2, max_iters=3))
        assert model.kind == "ICA"
        assert model.topo.radius == 0
        npt.assert_array_equal(model.topo.h, np.eye(16))

    def test_radius_zero_train_is_ica_kind(self, small_patches, small_whitening):
        topo = build_topography(4, 4, 0)
        model = train(small_patches, small_whitening, topo, TrainConfig(seed=2, max_iters=3))
        assert model.kind == "ICA"


class TestStopReason:
    @pytest.mark.parametrize("config, reason", [
        (TrainConfig(seed=2, max_iters=3, tol=0.0), "max_iters"),
        (TrainConfig(seed=2, max_iters=50, tol=1e3), "tol"),
        (TrainConfig(seed=2, max_iters=500, tol=0.0), "step_floor"),
    ], ids=["max_iters", "tol", "step_floor"])
    def test_recorded_and_saved(self, tmp_path, small_patches, small_whitening, small_topo,
                                config, reason):
        model = train(small_patches, small_whitening, small_topo, config)
        assert model.stop_reason == reason
        last = model.training_log[-1]
        assert (model.iterations == config.max_iters) == (reason == "max_iters")
        assert (last.step < STEP_FLOOR) == (reason == "step_floor")
        save_basis(model, tmp_path)
        assert read_meta(tmp_path / "basis.meta")["stop_reason"] == reason
        assert load_basis(tmp_path).stop_reason == reason

    def test_not_part_of_the_identity(self, small_tica):
        other = dataclasses.replace(small_tica, stop_reason="step_floor")
        assert other.identity_hash() == small_tica.identity_hash()

    def test_meta_without_it_loads(self, tmp_path, small_tica):
        save_basis(small_tica, tmp_path)
        meta = (tmp_path / "basis.meta").read_text()
        assert "stop_reason = " in meta
        (tmp_path / "basis.meta").write_text(
            "".join(line for line in meta.splitlines(keepends=True)
                    if not line.startswith("stop_reason")))
        back = load_basis(tmp_path)
        assert back.stop_reason is None
        assert back.identity_hash() == small_tica.identity_hash()

    def test_unknown_reason_rejected(self, tmp_path, small_tica):
        save_basis(small_tica, tmp_path)
        meta = (tmp_path / "basis.meta").read_text()
        (tmp_path / "basis.meta").write_text(
            meta.replace(f"stop_reason = {small_tica.stop_reason}", "stop_reason = bored"))
        with pytest.raises(FormatError, match="basis.meta: stop_reason"):
            load_basis(tmp_path)


class TestWhitenedRows:
    """`train` on the rows that `whiten(..., in_place=True)` returns."""

    def test_same_files_as_training_on_the_patch_set(self, tmp_path, small_patches,
                                                     small_whitening, small_topo):
        pixels = small_patches.data.tobytes()
        save_basis(train(small_patches, small_whitening, small_topo, REJECTING),
                   tmp_path / "patches")
        assert small_patches.data.tobytes() == pixels    # a PatchSet is never modified
        patches = topica.PatchSet(small_patches.data.copy(), small_patches.patch_side)
        rows = whiten(small_whitening, patches, in_place=True)
        save_basis(train(rows, small_whitening, small_topo, REJECTING), tmp_path / "rows")
        for name in ("filter_matrix.ticm", "basis_matrix.ticm", "training_log.csv"):
            assert (tmp_path / "rows" / name).read_bytes() == \
                (tmp_path / "patches" / name).read_bytes()

    @pytest.mark.parametrize("shape", [(100, 15), (100, 25), (1600,)])
    def test_rows_of_another_width_rejected(self, small_whitening, small_topo, shape):
        with pytest.raises(DimensionMismatch, match="whitened rows must have shape"):
            train(np.zeros(shape), small_whitening, small_topo, TrainConfig(max_iters=1))


class TestTrainMemory:
    def test_peak_is_about_the_whitened_rows(self, small_images):
        # The training rows are moved to the front of the whitened array in
        # place; a gathered copy of them peaked above twice its size.
        patches = topica.extract_patches_from_images(small_images, 5, 30000, seed=3)
        whitening = topica.fit_whitening(patches, 16)
        topo = build_topography(4, 4, 1)
        pixels = patches.data.copy()
        z_bytes = len(patches.data) * whitening.k * 8
        train(patches, whitening, topo, TrainConfig(max_iters=1))    # imports made on first use
        tracemalloc.start()
        try:
            train(patches, whitening, topo, TrainConfig(seed=1, max_iters=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * z_bytes
        npt.assert_array_equal(patches.data, pixels)

    def test_does_not_import_numpy_ma(self):
        # np.setdiff1d imports numpy.ma, which costs each train process 10-18 ms.
        code = ("import sys\n"
                "import topica\n"
                "images = [topica.generate_dead_leaves(32, 32, 20, seed=s) for s in (1, 2)]\n"
                "patches = topica.extract_patches_from_images(images, 4, 400, seed=0)\n"
                "whitening = topica.fit_whitening(patches, 4)\n"
                "topica.train(patches, whitening, topica.build_topography(2, 2, 0),\n"
                "             topica.TrainConfig(max_iters=2))\n"
                "print('numpy.ma' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(topica.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout == "False\n"


class TestThreadCount:
    # Trains on one saved whitening in a process per BLAS thread count and
    # prints the filters' bytes as hex.
    TRAIN = ("import sys\n"
             "from topica import PatchSet, TrainConfig, build_topography, load_whitening, train\n"
             "from topica.matrixio import read_matrix\n"
             "side, width = int(sys.argv[3]), int(sys.argv[4])\n"
             "patches = PatchSet(read_matrix(sys.argv[1]), side)\n"
             "topo = build_topography(width, width, 1)\n"
             "model = train(patches, load_whitening(sys.argv[2]), topo,\n"
             "              TrainConfig(max_iters=3, tol=0.0))\n"
             "print(model.filters.tobytes().hex())\n")

    def test_training_bits_do_not_depend_on_it(self, tmp_path):
        # 1990 patches leave 1592 training rows: one block of CHUNK and a
        # partial block of 568 rows. Unpadded, OpenBLAS 0.3.31 sums that
        # block's gradient product in another order at 1 and at 2 threads.
        self.assert_same_filters_at_1_and_2_threads(tmp_path, 1990, 9, 8)

    def test_wide_training_bits_do_not_depend_on_it(self, tmp_path):
        # The wide workload's shapes: 1200 training rows end in a partial
        # block of 176, and the 300 held-out rows and the 144x144
        # orthonormalization run at wide's sizes.
        self.assert_same_filters_at_1_and_2_threads(tmp_path, 1500, 16, 12)

    def assert_same_filters_at_1_and_2_threads(self, tmp_path, rows, side, width):
        data = np.random.default_rng(0).standard_normal((rows, side * side)) ** 3
        k = width * width
        write_matrix(tmp_path / "patches.ticm", data)
        topica.save_whitening(topica.fit_whitening(topica.PatchSet(data, side), k), tmp_path)
        filters = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.path.dirname(os.path.dirname(topica.__file__)))
            proc = subprocess.run([sys.executable, "-c", self.TRAIN,
                                   str(tmp_path / "patches.ticm"), str(tmp_path),
                                   str(side), str(width)],
                                  capture_output=True, text=True, env=env, check=True)
            filters.append(proc.stdout)
        assert len(filters[0]) == 2 * k * k * 8 + 1
        assert filters[0] == filters[1]


class TestPersistence:
    def test_roundtrip(self, tmp_path, small_tica):
        save_basis(small_tica, tmp_path)
        back = load_basis(tmp_path)
        npt.assert_array_equal(back.filters, small_tica.filters)
        npt.assert_array_equal(back.basis, small_tica.basis)
        npt.assert_array_equal(back.topo.h, small_tica.topo.h)
        assert back.kind == small_tica.kind
        assert back.epsilon == small_tica.epsilon
        assert back.seed == small_tica.seed
        assert back.whitening_ref == small_tica.whitening_ref
        assert back.identity_hash() == small_tica.identity_hash()

    def test_training_log_preserved(self, tmp_path, small_tica):
        save_basis(small_tica, tmp_path)
        back = load_basis(tmp_path)
        assert len(back.training_log) == len(small_tica.training_log)
        for mine, theirs in zip(small_tica.training_log, back.training_log):
            assert astuple(mine) == astuple(theirs)
            assert (np.float64(mine.ortho_error).tobytes()
                    == np.float64(theirs.ortho_error).tobytes())

    def test_log_header_is_the_record_fields(self, tmp_path, small_tica):
        save_basis(small_tica, tmp_path)
        header = (tmp_path / "training_log.csv").read_text().splitlines()[0]
        assert header == "iteration,objective,step,ortho_error"

    def test_three_column_log_rejected(self, tmp_path, small_tica):
        save_basis(small_tica, tmp_path)
        (tmp_path / "training_log.csv").write_text("iter,objective,step\n0,-1.5,0.1\n")
        with pytest.raises(FormatError, match="training_log.csv"):
            load_basis(tmp_path)

    def test_shuffled_permutation_roundtrip(self, tmp_path, small_tica):
        shuffled = topica.shuffle_topography(small_tica.topo, seed=6)
        model = BasisModel(
            filters=small_tica.filters, basis=small_tica.basis, topo=shuffled,
            whitening_ref=small_tica.whitening_ref, epsilon=small_tica.epsilon,
            seed=small_tica.seed)
        save_basis(model, tmp_path)
        back = load_basis(tmp_path)
        npt.assert_array_equal(back.topo.permutation, shuffled.permutation)
        npt.assert_array_equal(back.topo.h, shuffled.h)

    def test_kind_is_derived_from_radius(self, small_tica):
        with pytest.raises(TypeError):
            BasisModel(filters=small_tica.filters, basis=small_tica.basis,
                       topo=small_tica.topo, whitening_ref=small_tica.whitening_ref,
                       kind="ICA", epsilon=small_tica.epsilon, seed=small_tica.seed)

    def test_kind_contradicting_radius_rejected(self, tmp_path, small_tica):
        save_basis(small_tica, tmp_path)
        meta = (tmp_path / "basis.meta").read_text()
        (tmp_path / "basis.meta").write_text(meta.replace("kind = TICA", "kind = ICA"))
        with pytest.raises(FormatError, match="basis.meta"):
            load_basis(tmp_path)

    def test_corrupt_kind_rejected(self, tmp_path, small_tica):
        save_basis(small_tica, tmp_path)
        meta = (tmp_path / "basis.meta").read_text()
        (tmp_path / "basis.meta").write_text(meta.replace("kind = TICA", "kind = FICA"))
        with pytest.raises(FormatError):
            load_basis(tmp_path)

    def test_pairing_check(self, small_tica, small_whitening, small_patches):
        check_model_pairing(small_tica, small_whitening)
        other = topica.fit_whitening(small_patches, 15)
        with pytest.raises(ModelMismatch):
            check_model_pairing(small_tica, other)
