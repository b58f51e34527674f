"""Grayscale images, frame sequences, and patch extraction.

Images are kept as float64 matrices in (height, width) layout. On disk
the package speaks binary PGM (P5, 8-bit), writing frame stacks as one
multi-image PGM file; color PPM (P6) input is converted to grayscale
with the 0.299/0.587/0.114 luminance weights.
Patches are flattened row-major.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    MAX_ARRAY_BYTES,
    ConstantImage,
    DataError,
    DimensionMismatch,
    FormatError,
    OutOfBounds,
    PatchTooLarge,
)
from .matrixio import format_float, meta_value, read_array, read_meta, write_meta

LUMINANCE_WEIGHTS = (0.299, 0.587, 0.114)
DEFAULT_FRAME_RATE = 24.0
FRAME_NAME_FORMAT = "frame_{:06d}.pgm"
SEQUENCE_META_NAME = "sequence.meta"
CROP_BLOCK_PIXELS = 1 << 14    # pixels of random crops gathered and centred at once


def check_frame_rate(rate) -> float:
    """`rate` as a float, if it is a number, finite and > 0; otherwise a DataError."""
    try:
        rate = float(rate)
    except ValueError:
        pass    # `rate` stays the text, which the message quotes
    if not (isinstance(rate, float) and np.isfinite(rate) and rate > 0):
        raise DataError(f"frame_rate must be finite and > 0, got {rate!r}")
    return rate


@dataclass
class GrayImage:
    """A single grayscale image; values may take any finite real range."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.size == 0:
            raise DataError(f"image must be a non-empty 2-D array, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise DataError("image contains non-finite values")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass
class PatchSet:
    """Vectorized image patches, one patch per row."""

    data: np.ndarray
    patch_side: int

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise DataError(f"patch data must be 2-D, got shape {self.data.shape}")
        if self.data.shape[1] != self.patch_side**2:
            raise DimensionMismatch(
                f"{self.data.shape[1]} pixels per row, expected patch_side^2 = {self.patch_side**2}"
            )

    @property
    def n_pixels(self) -> int:
        return self.data.shape[1]


@dataclass
class FrameSequence:
    """Ordered frames of identical size plus their frame rate."""

    frames: list
    frame_rate: float = DEFAULT_FRAME_RATE

    def __post_init__(self):
        if not self.frames:
            raise DataError("frame sequence is empty")
        w, h = self.frames[0].width, self.frames[0].height
        for i, frame in enumerate(self.frames):
            if frame.width != w or frame.height != h:
                raise DimensionMismatch(
                    f"frame {i} is {frame.width}x{frame.height}, expected {w}x{h}"
                )
        self.frame_rate = check_frame_rate(self.frame_rate)

    def __len__(self) -> int:
        return len(self.frames)


def normalize_image(img: GrayImage) -> GrayImage:
    """Shift and scale to zero mean and unit (population) variance.

    An image is constant when its pixels are all equal, which is tested
    exactly: the mean of equal pixels need not equal them, and so their
    rounded variance need not be 0.
    """
    values = img.values
    if values.min() == values.max():
        raise ConstantImage("image has zero pixel variance")
    return GrayImage((values - values.mean()) / np.sqrt(values.var()))


def _crop_patches(img: GrayImage, side: int, out: np.ndarray, seed: int) -> None:
    """Fill the rows of `out` with side x side crops of `img`, which the
    caller has checked are no larger than it, flattened row-major, at
    uniformly random locations drawn from `seed`, each with its own mean
    subtracted.

    Crops are gathered and centred in blocks of at most CROP_BLOCK_PIXELS
    pixels (one row at least), so no temporary grows with the number of
    rows; a row's mean is over that row alone, whatever its block.
    """
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, img.height - side + 1, size=len(out))
    cols = rng.integers(0, img.width - side + 1, size=len(out))
    windows = np.lib.stride_tricks.sliding_window_view(img.values, (side, side))
    step = max(1, CROP_BLOCK_PIXELS // (side * side))
    for start in range(0, len(out), step):
        pick = slice(start, start + step)
        block = out[pick]
        block[:] = windows[rows[pick], cols[pick]].reshape(len(block), -1)
        block -= block.mean(axis=1, keepdims=True)


def per_image_seed(master_seed: int, image_index: int) -> int:
    """Derive a deterministic per-image seed from the master seed."""
    return int(np.random.SeedSequence([master_seed, image_index]).generate_state(1)[0])


def extract_patches_from_images(images, patch_side: int, count: int, seed: int) -> PatchSet:
    """Cut `count` square patches at uniformly random locations, splitting
    the budget across the list `images`, earlier images first.

    Each patch is flattened row-major and has its own mean subtracted.
    Image i's patches are drawn from `per_image_seed(seed, i)`, so the
    same seed always yields bit-identical output. Every image that
    receives a patch is checked to hold one before the patch array is
    allocated.
    """
    if not images:
        raise DataError("no images to extract patches from")
    if patch_side < 1:
        raise DataError(f"patch_side must be >= 1, got {patch_side}")
    if count < 1:
        raise DataError(f"count must be >= 1, got {count}")
    used = images[:count]    # with fewer patches than images, the first get one each
    for img in used:
        if patch_side > min(img.width, img.height):
            raise PatchTooLarge(f"patch_side {patch_side} exceeds image size "
                                f"{img.width}x{img.height}")
    if count * patch_side * patch_side * 8 > MAX_ARRAY_BYTES:
        raise DataError(f"{count} patches of side {patch_side} exceed {MAX_ARRAY_BYTES} bytes")
    out = np.empty((count, patch_side * patch_side))
    base, extra = divmod(count, len(images))
    start = 0
    for i, img in enumerate(used):
        n = base + (1 if i < extra else 0)
        _crop_patches(img, patch_side, out[start:start + n], per_image_seed(seed, i))
        start += n
    return PatchSet(out, patch_side)


def extract_fixed_patches(seq: FrameSequence, origin, patch_side: int) -> PatchSet:
    """One row per frame: the patch whose top-left corner is `origin` = (left, top)."""
    left, top = origin
    frame = seq.frames[0]
    if patch_side > min(frame.width, frame.height):
        raise PatchTooLarge(
            f"patch_side {patch_side} exceeds frame size {frame.width}x{frame.height}"
        )
    if left < 0 or top < 0 or left + patch_side > frame.width or top + patch_side > frame.height:
        raise OutOfBounds(
            f"patch at left {left}, top {top} with side {patch_side} leaves the "
            f"{frame.width}x{frame.height} frame"
        )
    out = np.empty((len(seq), patch_side * patch_side))
    for t, fr in enumerate(seq.frames):
        out[t] = fr.values[top:top + patch_side, left:left + patch_side].reshape(-1)
    out -= out.mean(axis=1, keepdims=True)
    return PatchSet(out, patch_side)


def _resample_axis(values: np.ndarray, new_len: int, axis: int) -> np.ndarray:
    """Bilinear (align-corners) resampling along one axis."""
    old_len = values.shape[axis]
    if new_len == old_len:
        return values
    pixels = new_len * values.size // old_len
    if pixels * 8 > MAX_ARRAY_BYTES:
        raise DataError(f"resampling to {pixels} pixels exceeds {MAX_ARRAY_BYTES} bytes")
    values = np.moveaxis(values, axis, 0)
    if new_len == 1:
        pos = np.zeros(1)
    else:
        pos = np.arange(new_len) * ((old_len - 1) / (new_len - 1))
    lo = np.minimum(pos.astype(int), max(old_len - 2, 0))
    frac = pos - lo
    hi = np.minimum(lo + 1, old_len - 1)
    out = values[lo] * (1.0 - frac)[:, None] + values[hi] * frac[:, None]
    return np.moveaxis(out, 0, axis)


def resize_to_width(img: GrayImage, target_width: int) -> GrayImage:
    """Resize to the given width, preserving aspect ratio (bilinear)."""
    if target_width < 1:
        raise DataError(f"target_width must be >= 1, got {target_width}")
    if target_width == img.width:
        return GrayImage(img.values.copy())
    target_height = max(1, int(np.floor(img.height * target_width / img.width + 0.5)))
    out = _resample_axis(img.values, target_width, axis=1)
    out = _resample_axis(out, target_height, axis=0)
    return GrayImage(out)


def crop_image(img: GrayImage, left: int, top: int, width: int, height: int) -> GrayImage:
    if width < 1 or height < 1:
        raise DataError("crop height and width must be >= 1")
    if left < 0 or top < 0 or left + width > img.width or top + height > img.height:
        raise OutOfBounds(
            f"crop {width}x{height} at left {left}, top {top} leaves the "
            f"{img.width}x{img.height} image"
        )
    return GrayImage(img.values[top:top + height, left:left + width].copy())


def to_grayscale(rgb: np.ndarray) -> np.ndarray:
    r, g, b = LUMINANCE_WEIGHTS
    return r * rgb[..., 0] + g * rgb[..., 1] + b * rgb[..., 2]


# ---------------------------------------------------------------------------
# PGM / PPM input and output


def _read_pnm_header(f, n_fields: int, path):
    """Read whitespace-separated header fields byte by byte, a '#' comment
    counting as whitespace up to the end of its line. The single whitespace
    byte after the last field is read too, so `f` is left at the raster,
    which may itself start with whitespace bytes (Netpbm allows any one
    whitespace character after maxval)."""
    fields, token = [], b""
    while len(fields) < n_fields:
        byte = f.read(1)
        if not byte:
            raise FormatError(f"{path}: unexpected end of file in PNM header")
        if byte == b"#":
            while byte not in b"\r\n":    # b"" (end of file) ends the comment too
                byte = f.read(1)
            byte = b"\n"
        if not byte.isspace():
            token += byte
        elif token:
            fields.append(token)
            token = b""
    return fields


def read_image(path) -> GrayImage:
    """Read a binary PGM (P5) or PPM (P6, converted to grayscale) image.

    8-bit samples are mapped linearly to [0, 1].
    """
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic not in (b"P5", b"P6"):
            raise FormatError(f"{path}: expected binary PGM/PPM, got magic {magic!r}")
        fields = _read_pnm_header(f, 3, path)
        try:
            width, height, maxval = (int(v) for v in fields)
        except ValueError:
            raise FormatError(f"{path}: non-integer PNM header field in {fields!r}") from None
        if width < 1 or height < 1:
            raise FormatError(f"{path}: bad dimensions {width}x{height}")
        if not 0 < maxval <= 255:
            raise FormatError(f"{path}: only 8-bit images supported, maxval={maxval}")
        shape = (height, width, 3) if magic == b"P6" else (height, width)
        samples = read_array(f, shape, np.uint8, path)
    if maxval < 255 and samples.max() > maxval:
        raise FormatError(f"{path}: a sample exceeds maxval {maxval}")
    raw = samples.astype(np.float64) / maxval
    return GrayImage(to_grayscale(raw) if magic == b"P6" else raw)


def quantize(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """8-bit pixels mapping [lo, hi] linearly onto 0..255, clipped outside;
    hi <= lo maps everything to 0.

    Bounds taken as the data's own min/max are finite only if every value
    is, so checking them checks the data.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DataError(f"pixel range [{lo}, {hi}] is not finite")
    if hi <= lo:
        return np.zeros(np.shape(values), dtype=np.uint8)
    scaled = (values - lo) / (hi - lo) * 255.0
    return np.clip(np.rint(scaled), 0, 255).astype(np.uint8)


def pgm_bytes(pixels: np.ndarray) -> bytes:
    """One binary 8-bit PGM image (header and samples) of a 2-D uint8 array."""
    height, width = pixels.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes(order="C")


def write_image(path, img: GrayImage, lo: float | None = None, hi: float | None = None) -> None:
    """Write a binary 8-bit PGM, mapping [lo, hi] linearly onto 0..255.

    Without explicit bounds the image's own min/max are used; a constant
    image maps to all zeros.
    """
    values = img.values
    if lo is None:
        lo = float(values.min())
    if hi is None:
        hi = float(values.max())
    write_stack(path, [quantize(values, lo, hi)])


def write_stack(path, frames) -> None:
    """Write 2-D uint8 frames, in order, as one multi-image PGM file.

    Netpbm defines a PGM file as a sequence of one or more PGM images
    with nothing between them, so the file is the concatenation of the
    frames' single-image PGMs.
    """
    with open(path, "wb") as f:
        for pixels in frames:
            f.write(pgm_bytes(pixels))


def load_images(directory) -> list:
    """Read every .pgm/.ppm file in a directory, sorted by name."""
    names = sorted(
        name for name in os.listdir(directory) if name.lower().endswith((".pgm", ".ppm"))
    )
    if not names:
        raise DataError(f"no PGM/PPM images found in {directory}")
    return [read_image(os.path.join(directory, name)) for name in names]


def load_sequence(directory) -> FrameSequence:
    """Read a frame directory (frame_000000.pgm, ...) plus sequence.meta."""
    pattern = re.compile(r"^frame_(\d{6})\.pgm$")
    names = sorted(name for name in os.listdir(directory) if pattern.match(name))
    if not names:
        raise DataError(f"no frame_NNNNNN.pgm files found in {directory}")
    frames = [read_image(os.path.join(directory, name)) for name in names]
    frame_rate = DEFAULT_FRAME_RATE
    meta_path = os.path.join(directory, SEQUENCE_META_NAME)
    if os.path.exists(meta_path):
        meta = read_meta(meta_path)
        if "frame_rate" in meta:
            frame_rate = meta_value(meta, "frame_rate", meta_path, check_frame_rate)
    return FrameSequence(frames, frame_rate)


def save_sequence(seq: FrameSequence, directory) -> None:
    """Write frames as frame_NNNNNN.pgm plus sequence.meta, every frame
    mapped from the sequence's own intensity range."""
    lo = min(float(f.values.min()) for f in seq.frames)
    hi = max(float(f.values.max()) for f in seq.frames)
    os.makedirs(directory, exist_ok=True)
    for t, frame in enumerate(seq.frames):
        write_image(os.path.join(directory, FRAME_NAME_FORMAT.format(t)), frame, lo, hi)
    write_meta(os.path.join(directory, SEQUENCE_META_NAME),
               {"frame_rate": format_float(seq.frame_rate)})
