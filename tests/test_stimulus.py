import numpy as np
import numpy.testing as npt
import pytest

from topica.errors import BadSpec, IndexOutOfRange
from topica.images import normalize_image
from topica.stimulus import (
    BarStimulusSpec,
    generate_dead_leaves,
    generate_moving_bar,
    generate_panning_sequence,
    generate_single_basis_probe,
)


class TestBar:
    def test_offsets_sweep_the_full_range(self):
        spec = BarStimulusSpec(patch_side=9, thickness=1, n_frames=16)
        seq = generate_moving_bar(spec)
        assert len(seq) == 16
        rows = [int(np.flatnonzero(f.values.any(axis=1))[0]) for f in seq.frames]
        expected = [int(round(t * 8 / 15)) for t in range(16)]
        assert rows == expected
        assert rows[0] == 0 and rows[-1] == 8

    def test_frame_contents(self):
        spec = BarStimulusSpec(patch_side=5, thickness=2, n_frames=4)
        frame = generate_moving_bar(spec).frames[0].values
        expected = np.zeros((5, 5))
        expected[0:2, :] = 1.0
        npt.assert_array_equal(frame, expected)

    def test_vertical_is_transpose(self):
        hspec = BarStimulusSpec(patch_side=7, thickness=2, n_frames=5,
                                orientation="horizontal")
        vspec = BarStimulusSpec(patch_side=7, thickness=2, n_frames=5,
                                orientation="vertical")
        hseq = generate_moving_bar(hspec)
        vseq = generate_moving_bar(vspec)
        for hf, vf in zip(hseq.frames, vseq.frames):
            npt.assert_array_equal(vf.values, hf.values.T)

    def test_single_frame_at_origin(self):
        seq = generate_moving_bar(BarStimulusSpec(patch_side=4, n_frames=1))
        assert seq.frames[0].values[0].min() == 1.0

    def test_levels_are_not_options(self):
        with pytest.raises(TypeError):
            BarStimulusSpec(patch_side=3, high=0.25)

    @pytest.mark.parametrize("kwargs", [
        {"patch_side": 0}, {"patch_side": 4, "thickness": 0},
        {"patch_side": 4, "thickness": 5}, {"patch_side": 4, "orientation": "diagonal"},
        {"patch_side": 4, "n_frames": 0},
    ])
    def test_bad_specs(self, kwargs):
        with pytest.raises(BadSpec):
            BarStimulusSpec(**kwargs)


class TestProbe:
    def test_probe_is_basis_column(self, small_tica):
        img = generate_single_basis_probe(small_tica, 3)
        npt.assert_array_equal(img.values.reshape(-1), small_tica.basis[:, 3])
        assert img.width == small_tica.patch_side

    def test_unit_range_checked(self, small_tica):
        with pytest.raises(IndexOutOfRange):
            generate_single_basis_probe(small_tica, 16)
        with pytest.raises(IndexOutOfRange):
            generate_single_basis_probe(small_tica, -1)


class TestDeadLeaves:
    def test_deterministic(self):
        a = generate_dead_leaves(64, 48, 40, seed=5)
        b = generate_dead_leaves(64, 48, 40, seed=5)
        npt.assert_array_equal(a.values, b.values)
        c = generate_dead_leaves(64, 48, 40, seed=6)
        assert not np.array_equal(a.values, c.values)

    def test_dimensions_and_range(self):
        img = generate_dead_leaves(30, 20, 25, seed=1)
        assert (img.width, img.height) == (30, 20)
        assert img.values.min() >= 0.0 and img.values.max() <= 1.0

    def test_has_structure(self):
        img = generate_dead_leaves(64, 64, 60, seed=2)
        assert img.values.std() > 0.05

    @pytest.mark.parametrize("kwargs", [
        {"width": 0, "height": 5, "n_disks": 3},
        {"width": 5, "height": 5, "n_disks": 0},
        {"width": 5, "height": 5, "n_disks": 3, "min_radius": -1.0},
        {"width": 5, "height": 5, "n_disks": 3, "min_radius": 9.0, "max_radius": 4.0},
    ])
    def test_bad_specs(self, kwargs):
        with pytest.raises(BadSpec):
            generate_dead_leaves(seed=0, **kwargs)


def _full_canvas_dead_leaves(width, height, n_disks, seed, min_radius=2.0, max_radius=0.0):
    """Reference painter: tests every disk against every canvas pixel."""
    if max_radius <= 0:
        max_radius = max(min_radius, min(width, height) / 4.0)
    rng = np.random.default_rng(seed)
    canvas = np.full((height, width), 0.5, dtype=np.float64)
    ys, xs = np.mgrid[0:height, 0:width]
    log_lo, log_hi = np.log(min_radius), np.log(max_radius)
    for _ in range(n_disks):
        cx = rng.uniform(0, width)
        cy = rng.uniform(0, height)
        r = np.exp(rng.uniform(log_lo, log_hi))
        shade = rng.uniform(0.0, 1.0)
        canvas[(xs - cx) ** 2 + (ys - cy) ** 2 <= r * r] = shade
    return canvas


class TestDeadLeavesOracle:
    """The bounding-box painter matches the full-canvas one bit for bit."""

    @pytest.mark.parametrize("args, kwargs", [
        ((1, 1, 5, 0), {}),
        ((7, 300, 60, 1), {}),
        ((100, 37, 80, 2), {}),
        ((64, 64, 300, 3), {"min_radius": 0.5, "max_radius": 200}),
        ((37, 100, 300, 4), {"min_radius": 0.5, "max_radius": 200}),
        ((256, 256, 220, 5), {"min_radius": 3, "max_radius": 40}),
        ((512, 512, 900, 6), {"min_radius": 3, "max_radius": 40}),
    ] + [((64, 64, 60, seed), {}) for seed in range(20)])
    def test_matches_full_canvas(self, args, kwargs):
        image = generate_dead_leaves(*args, **kwargs)
        assert image.values.tobytes() == _full_canvas_dead_leaves(*args, **kwargs).tobytes()


@pytest.fixture(scope="module")
def scene():
    return generate_dead_leaves(96, 96, 120, seed=8, min_radius=2, max_radius=10)


class TestPanning:
    def test_shapes_and_determinism(self, scene):
        a = generate_panning_sequence(scene, 32, 20, speed=0.3, seed=1)
        assert len(a) == 20
        assert all(f.width == 32 and f.height == 32 for f in a.frames)
        b = generate_panning_sequence(scene, 32, 20, speed=0.3, seed=1)
        for fa, fb in zip(a.frames, b.frames):
            npt.assert_array_equal(fa.values, fb.values)

    def test_frames_are_normalized(self, scene):
        seq = generate_panning_sequence(scene, 32, 5, seed=2)
        for frame in seq.frames:
            assert abs(frame.values.mean()) < 1e-10
            assert abs(frame.values.var() - 1.0) < 1e-10

    def test_zero_speed_repeats_frame(self, scene):
        seq = generate_panning_sequence(scene, 32, 4, speed=0.0, seed=3)
        for frame in seq.frames[1:]:
            npt.assert_array_equal(frame.values, seq.frames[0].values)

    def test_consecutive_frames_overlap(self, scene):
        seq = generate_panning_sequence(scene, 32, 30, speed=0.2, seed=4)
        for a, b in zip(seq.frames, seq.frames[1:]):
            r = np.corrcoef(a.values.ravel(), b.values.ravel())[0, 1]
            assert r > 0.9

    def test_long_pan_stays_in_bounds(self, scene):
        # Many reflections; the window must never leave the scene.
        seq = generate_panning_sequence(scene, 80, 400, speed=2.5, seed=5)
        assert len(seq) == 400

    def test_window_equals_scene(self, scene):
        seq = generate_panning_sequence(scene, 96, 3, speed=1.0, seed=6)
        for frame in seq.frames:
            npt.assert_array_equal(frame.values, normalize_image(scene).values)

    def test_window_too_large(self, scene):
        with pytest.raises(BadSpec):
            generate_panning_sequence(scene, 97, 3)

    def test_bad_counts(self, scene):
        with pytest.raises(BadSpec):
            generate_panning_sequence(scene, 0, 3)
        with pytest.raises(BadSpec):
            generate_panning_sequence(scene, 32, 0)
