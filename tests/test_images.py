import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from topica.errors import (
    ConstantImage,
    DataError,
    FormatError,
    OutOfBounds,
    PatchTooLarge,
)
from topica.images import (
    CROP_BLOCK_PIXELS,
    FrameSequence,
    GrayImage,
    PatchSet,
    crop_image,
    extract_fixed_patches,
    extract_patches_from_images,
    load_images,
    load_sequence,
    normalize_image,
    per_image_seed,
    pgm_bytes,
    quantize,
    read_image,
    resize_to_width,
    save_sequence,
    to_grayscale,
    write_image,
    write_stack,
)


def ramp(height, width):
    return GrayImage(np.arange(height * width, dtype=np.float64).reshape(height, width))


class TestGrayImage:
    def test_rejects_non_2d(self):
        with pytest.raises(DataError):
            GrayImage(np.zeros(4))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            GrayImage(np.zeros((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            GrayImage(np.array([[1.0, np.nan]]))

    def test_dimensions(self):
        img = ramp(2, 5)
        assert (img.width, img.height) == (5, 2)


class TestNormalize:
    def test_zero_mean_unit_variance(self):
        img = normalize_image(ramp(4, 4))
        assert abs(img.values.mean()) < 1e-12
        assert abs(img.values.var() - 1.0) < 1e-12

    def test_constant_image_rejected(self):
        with pytest.raises(ConstantImage):
            normalize_image(GrayImage(np.full((3, 3), 0.7)))

    @pytest.mark.parametrize("value, shape", [(0.1, (32, 32)), (1 / 3, (32, 32)),
                                              (128 / 255, (7, 5))],
                             ids=["0.1", "1/3", "128/255"])
    def test_inexact_constant_image_rejected(self, value, shape):
        # The mean of these pixels is not their value, so their rounded variance is not 0.
        with pytest.raises(ConstantImage):
            normalize_image(GrayImage(np.full(shape, value)))

    def test_known_values(self):
        img = normalize_image(GrayImage(np.array([[0.0, 2.0]])))
        npt.assert_allclose(img.values, [[-1.0, 1.0]])


class TestRandomPatches:
    def test_shape_and_mean_removal(self):
        ps = extract_patches_from_images([ramp(20, 20)], 4, 50, seed=0)
        assert ps.data.shape == (50, 16)
        assert ps.patch_side == 4
        npt.assert_allclose(ps.data.mean(axis=1), 0.0, atol=1e-12)

    def test_no_source_tag(self):
        with pytest.raises(TypeError):
            PatchSet(np.zeros((2, 4)), 2, source_tag="random")

    def test_deterministic(self, small_images):
        img = small_images[0]
        a = extract_patches_from_images([img], 4, 50, seed=9)
        b = extract_patches_from_images([img], 4, 50, seed=9)
        npt.assert_array_equal(a.data, b.data)
        c = extract_patches_from_images([img], 4, 50, seed=10)
        assert not np.array_equal(a.data, c.data)

    def test_patch_contents_come_from_image(self):
        # On a ramp, a patch is determined by its top-left value: row-major
        # offsets within the patch are fixed relative to it.
        img = ramp(12, 12)
        ps = extract_patches_from_images([img], 3, 20, seed=2)
        offsets = np.array([0, 1, 2, 12, 13, 14, 24, 25, 26], dtype=np.float64)
        centered = offsets - offsets.mean()
        for row in ps.data:
            npt.assert_allclose(row, centered, atol=1e-12)

    def test_too_large_patch(self):
        with pytest.raises(PatchTooLarge):
            extract_patches_from_images([ramp(4, 4)], 5, 1, seed=0)

    def test_too_large_patch_is_refused_before_allocating(self):
        # (1, side^2) pixels at this side is beyond what numpy can even shape.
        with pytest.raises(PatchTooLarge, match="patch_side 100000000000 exceeds image size 4x4"):
            extract_patches_from_images([ramp(4, 4)], 10**11, 1, seed=0)

    def test_image_without_a_patch_is_not_checked(self):
        # One patch goes to the first image; the second, too small, gets none.
        ps = extract_patches_from_images([ramp(20, 20), ramp(4, 4)], 5, 1, seed=0)
        assert ps.data.shape == (1, 25)


def per_row_crops(img, side, count, seed):
    """Random crops copied and centred one row at a time."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, img.height - side + 1, size=count)
    cols = rng.integers(0, img.width - side + 1, size=count)
    out = np.empty((count, side * side))
    for i in range(count):
        patch = img.values[rows[i]:rows[i] + side, cols[i]:cols[i] + side].reshape(-1)
        out[i] = patch - patch.mean()
    return out


class TestBlockedCrops:
    # 12x12 patches: 144 pixels, so blocks of CROP_BLOCK_PIXELS // 144 rows.
    ROWS = CROP_BLOCK_PIXELS // 144

    @pytest.mark.parametrize("count", [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1])
    def test_is_the_per_row_loop(self, count):
        img = GrayImage(np.random.default_rng(count).standard_normal((40, 53)))
        ps = extract_patches_from_images([img], 12, count, seed=7)
        assert ps.data.tobytes() == per_row_crops(img, 12, count, per_image_seed(7, 0)).tobytes()

    @pytest.mark.parametrize("shape", [(12, 12), (12, 30), (30, 12)])
    def test_patch_side_is_the_image_side(self, shape):
        img = GrayImage(np.random.default_rng(1).standard_normal(shape))
        ps = extract_patches_from_images([img], 12, 300, seed=2)
        assert ps.data.tobytes() == per_row_crops(img, 12, 300, per_image_seed(2, 0)).tobytes()

    def test_patch_larger_than_a_block(self):
        # 150 x 150 pixels exceed CROP_BLOCK_PIXELS: a block of one row.
        img = GrayImage(np.random.default_rng(3).standard_normal((160, 170)))
        ps = extract_patches_from_images([img], 150, 3, seed=4)
        assert ps.data.tobytes() == per_row_crops(img, 150, 3, per_image_seed(4, 0)).tobytes()


class TestMultiImagePatches:
    def test_total_count_and_determinism(self, small_images):
        ps = extract_patches_from_images(small_images, 5, 101, seed=4)
        assert ps.data.shape == (101, 25)
        ps2 = extract_patches_from_images(small_images, 5, 101, seed=4)
        npt.assert_array_equal(ps.data, ps2.data)

    @pytest.mark.parametrize("count", [2, 100, 101])
    def test_is_the_per_image_extractions_stacked(self, small_images, count):
        # 101 does not divide evenly over 3 images; 2 leaves the last image none.
        ps = extract_patches_from_images(small_images, 5, count, seed=4)
        base, extra = divmod(count, len(small_images))
        parts = [per_row_crops(img, 5, base + (i < extra), per_image_seed(4, i))
                 for i, img in enumerate(small_images) if base + (i < extra) > 0]
        assert ps.data.tobytes() == np.concatenate(parts).tobytes()

    def test_peak_memory_is_about_the_result(self):
        # tracemalloc counts numpy's buffers, whatever the allocator keeps.
        # Per-image arrays, their mean-removed copies and the concatenation
        # peaked near twice the result.
        images = [ramp(64, 64), ramp(80, 64), ramp(64, 72), ramp(70, 70)]
        extract_patches_from_images(images, 5, 4, seed=1)    # imports made on first use
        tracemalloc.start()
        try:
            ps = extract_patches_from_images(images, 5, 6000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * ps.data.nbytes

    def test_single_image_matches_seeded_stream(self):
        # One image must reproduce the per-image seeded extraction exactly.
        img = ramp(16, 16)
        combined = extract_patches_from_images([img], 4, 30, seed=8)
        seed = np.random.SeedSequence([8, 0]).generate_state(1)[0]
        direct = per_row_crops(img, 4, 30, int(seed))
        npt.assert_array_equal(combined.data, direct)


class TestFixedPatches:
    def test_values_and_order(self):
        frames = [GrayImage(np.full((5, 5), float(t)) + ramp(5, 5).values)
                  for t in range(3)]
        seq = FrameSequence(frames=frames, frame_rate=10.0)
        ps = extract_fixed_patches(seq, (2, 1), 2)
        assert ps.data.shape == (3, 4)
        base = np.array([7.0, 8.0, 12.0, 13.0])
        for t in range(3):
            npt.assert_allclose(ps.data[t], base - base.mean(), atol=1e-12)

    def test_origin_is_left_then_top(self):
        # A ramp centres to the same patch anywhere, so a lone bright pixel
        # in a wide frame pins the order: top 3 would leave this 6x4 frame.
        values = np.zeros((4, 6))
        values[1, 3] = 1.0
        seq = FrameSequence(frames=[GrayImage(values)], frame_rate=24.0)
        ps = extract_fixed_patches(seq, (3, 1), 2)
        npt.assert_allclose(ps.data[0], [0.75, -0.25, -0.25, -0.25], atol=1e-12)

    def test_out_of_bounds(self):
        seq = FrameSequence(frames=[ramp(5, 5)], frame_rate=24.0)
        with pytest.raises(OutOfBounds):
            extract_fixed_patches(seq, (0, 4), 2)

    def test_too_large(self):
        seq = FrameSequence(frames=[ramp(5, 5)], frame_rate=24.0)
        with pytest.raises(PatchTooLarge):
            extract_fixed_patches(seq, (0, 0), 6)


class TestResize:
    def test_same_width_is_exact_copy(self):
        img = ramp(6, 8)
        out = resize_to_width(img, 8)
        npt.assert_array_equal(out.values, img.values)

    def test_align_corners_oracle(self):
        img = GrayImage(np.array([[0.0, 1.0], [2.0, 3.0]]))
        out = resize_to_width(img, 3)
        expected = np.array([[0.0, 0.5, 1.0], [1.0, 1.5, 2.0], [2.0, 2.5, 3.0]])
        npt.assert_allclose(out.values, expected, atol=1e-12)

    def test_height_rounding(self):
        img = ramp(10, 30)
        out = resize_to_width(img, 20)
        # floor(10 * 20 / 30 + 0.5) = 7
        assert (out.width, out.height) == (20, 7)

    def test_corners_preserved(self):
        img = ramp(7, 9)
        out = resize_to_width(img, 17)
        v, o = img.values, out.values
        npt.assert_allclose(
            [o[0, 0], o[0, -1], o[-1, 0], o[-1, -1]],
            [v[0, 0], v[0, -1], v[-1, 0], v[-1, -1]], atol=1e-10)


class TestCrop:
    def test_values(self):
        out = crop_image(ramp(6, 6), 2, 1, 2, 3)
        npt.assert_array_equal(out.values, ramp(6, 6).values[1:4, 2:4])

    def test_out_of_bounds(self):
        with pytest.raises(OutOfBounds):
            crop_image(ramp(6, 6), 0, 4, 2, 3)


class TestPnmIO:
    def test_pgm_roundtrip_bytes(self, tmp_path):
        img = GrayImage(np.linspace(0, 1, 30).reshape(5, 6))
        path = tmp_path / "x.pgm"
        write_image(path, img, lo=0.0, hi=1.0)
        back = read_image(path)
        assert (back.width, back.height) == (6, 5)
        # Quantization to 8 bits, then back to [0, 1].
        npt.assert_allclose(back.values, img.values, atol=1 / 255 / 2 + 1e-9)

    def test_write_is_deterministic(self, tmp_path):
        img = GrayImage(np.linspace(0, 1, 12).reshape(3, 4))
        write_image(tmp_path / "a.pgm", img)
        write_image(tmp_path / "b.pgm", img)
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()

    def test_constant_image_writes_zeros(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_image(path, GrayImage(np.full((2, 2), 3.0)))
        npt.assert_array_equal(read_image(path).values, np.zeros((2, 2)))

    @pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (0.0, np.inf)])
    def test_non_finite_range_rejected(self, lo, hi):
        with pytest.raises(DataError):
            quantize(np.zeros(3), lo, hi)

    def test_stack_is_its_images_in_order(self, tmp_path):
        path = tmp_path / "s.pgm"
        frames = [np.full((2, 3), v, dtype=np.uint8) for v in (0, 128, 255)]
        write_stack(path, frames)
        assert path.read_bytes() == b"".join(pgm_bytes(f) for f in frames)
        npt.assert_array_equal(read_image(path).values, np.zeros((2, 3)))   # the first

    def test_ppm_luminance(self, tmp_path):
        path = tmp_path / "x.ppm"
        header = b"P6\n2 1\n255\n"
        # Pure red and pure green pixels.
        path.write_bytes(header + bytes([255, 0, 0, 0, 255, 0]))
        img = read_image(path)
        npt.assert_allclose(img.values, [[0.299, 0.587]], atol=1e-9)

    def test_comment_and_whitespace_header(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5 # pgm\n# a comment\n 2\t1 \n255\n" + bytes([0, 255]))
        npt.assert_allclose(read_image(path).values, [[0.0, 1.0]])

    @pytest.mark.parametrize("header", [
        b"P5\n2 2\n255\n", b"P5 2 2 255 ", b"P5 2 2 255\t",
        b"P5\n# a comment\n2 2\n# another\n255\n", b"P5 # pgm\n2 2 255 ",
        b"P5\n2 2 # size\n255\t",
    ], ids=["newline", "space", "tab", "comments-newline", "comment-space", "comment-tab"])
    def test_one_whitespace_byte_after_maxval(self, tmp_path, header):
        # The raster starts with whitespace bytes, which must not be read as header.
        path = tmp_path / "x.pgm"
        path.write_bytes(header + bytes([10, 32, 9, 200]))
        npt.assert_array_equal(read_image(path).values, np.array([[10, 32], [9, 200]]) / 255)

    def test_low_maxval_scaling(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n2 1\n3\n" + bytes([0, 3]))
        npt.assert_allclose(read_image(path).values, [[0.0, 1.0]])

    @pytest.mark.parametrize("image", [b"P5\n2 2\n100\n" + bytes([0, 50, 200, 255]),
                                       b"P6\n1 1\n100\n" + bytes([0, 101, 50])],
                             ids=["P5", "P6"])
    def test_sample_above_maxval(self, tmp_path, image):
        # Netpbm requires every sample to be at most maxval.
        path = tmp_path / "x.pgm"
        path.write_bytes(image)
        with pytest.raises(FormatError, match=r"x\.pgm: .*maxval 100"):
            read_image(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P3\n1 1\n255\n0")
        with pytest.raises(FormatError):
            read_image(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(FormatError):
            read_image(path)

    @pytest.mark.parametrize("header", [b"4 x\n255\n", b"4 4\n2.5e2\n"])
    def test_non_integer_header_field(self, tmp_path, header):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n" + header + bytes(16))
        with pytest.raises(FormatError, match=r"x\.pgm"):
            read_image(path)

    def test_header_cut_short_names_file(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n4")
        with pytest.raises(FormatError, match=r"x\.pgm: unexpected end of file"):
            read_image(path)

    def test_fifo_is_refused_naming_it(self, tmp_path, fed_fifo):
        path = tmp_path / "x.pgm"
        fed_fifo(path, pgm_bytes(np.zeros((4, 4), dtype=np.uint8)))
        with pytest.raises(FormatError, match=r"x\.pgm: not a regular file"):
            read_image(path)

    def test_to_grayscale_weights(self):
        rgb = np.zeros((1, 2, 3))
        rgb[0, 0] = [1.0, 0.0, 0.0]
        rgb[0, 1] = [0.0, 0.0, 1.0]
        npt.assert_allclose(to_grayscale(rgb), [[0.299, 0.114]])


class TestDirectories:
    def test_load_images_sorted(self, tmp_path):
        for name, level in [("b.pgm", 0.25), ("a.pgm", 0.75)]:
            write_image(tmp_path / name, GrayImage(np.full((2, 2), level)), lo=0.0, hi=1.0)
        loaded = load_images(tmp_path)
        assert len(loaded) == 2
        assert loaded[0].values[0, 0] > loaded[1].values[0, 0]

    def test_load_images_empty(self, tmp_path):
        with pytest.raises(DataError):
            load_images(tmp_path)

    def test_sequence_roundtrip(self, tmp_path):
        frames = [GrayImage(np.linspace(0, 1, 6).reshape(2, 3) * (t + 1)) for t in range(4)]
        seq = FrameSequence(frames=frames, frame_rate=30.0)
        save_sequence(seq, tmp_path)
        back = load_sequence(tmp_path)
        assert (tmp_path / "sequence.meta").read_text() == "frame_rate = 30\n"
        assert len(back) == 4
        assert back.frame_rate == 30.0
        assert back.frames[0].width == 3
        # Shared scaling: the global max of the last frame hits white.
        assert back.frames[3].values.max() == 1.0
        assert back.frames[0].values.max() < 0.5

    def test_sequence_scale_is_not_an_option(self, tmp_path):
        seq = FrameSequence(frames=[ramp(2, 2)], frame_rate=24.0)
        with pytest.raises(TypeError):
            save_sequence(seq, tmp_path, lo=0.0)

    def test_sequence_default_frame_rate(self, tmp_path):
        write_image(tmp_path / "frame_000000.pgm", GrayImage(np.eye(3)))
        seq = load_sequence(tmp_path)
        assert seq.frame_rate == 24.0

    def test_sequence_empty_dir(self, tmp_path):
        with pytest.raises(DataError):
            load_sequence(tmp_path)

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_frame_rate_rejected(self, rate):
        with pytest.raises(DataError, match="frame_rate"):
            FrameSequence(frames=[ramp(2, 2)], frame_rate=rate)

    def test_mismatched_frame_sizes_rejected(self):
        with pytest.raises(DataError):
            FrameSequence(frames=[ramp(2, 2), ramp(3, 3)], frame_rate=24.0)
