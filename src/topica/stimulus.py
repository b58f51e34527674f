"""Synthetic stimuli: moving bars, single-basis probes, dead-leaves images.

The dead-leaves generator exists so the test suite and the demo pipeline
have image material with natural-image-like sparse structure (occluding
edges at many orientations) without shipping photographs. Plain Gaussian
noise would be useless here: the estimator only finds meaningful
components in non-Gaussian data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, IndexOutOfRange
from .estimation import BasisModel
from .images import FrameSequence, GrayImage, normalize_image


@dataclass
class BarStimulusSpec:
    patch_side: int
    thickness: int = 1
    orientation: str = "horizontal"
    n_frames: int = 16

    def __post_init__(self):
        if self.patch_side < 1:
            raise BadSpec(f"patch_side must be >= 1, got {self.patch_side}")
        if not 1 <= self.thickness <= self.patch_side:
            raise BadSpec(f"thickness must be in 1..{self.patch_side}, got {self.thickness}")
        if self.orientation not in ("horizontal", "vertical"):
            raise BadSpec(f"orientation must be horizontal or vertical, got {self.orientation!r}")
        if self.n_frames < 1:
            raise BadSpec(f"n_frames must be >= 1, got {self.n_frames}")


def generate_moving_bar(spec: BarStimulusSpec) -> FrameSequence:
    """Bar of 1s on 0s sweeping across the patch, one exact pixel layout per frame.

    Frame t places the bar at offset round(t * (side - thickness) /
    (n_frames - 1)), so the first frame touches one edge and the last
    frame the opposite edge. A horizontal bar spans full rows; vertical
    is its transpose.
    """
    side, thick = spec.patch_side, spec.thickness
    travel = side - thick
    frames = []
    for t in range(spec.n_frames):
        if spec.n_frames == 1:
            offset = 0
        else:
            offset = int(round(t * travel / (spec.n_frames - 1)))
        values = np.zeros((side, side))
        values[offset:offset + thick, :] = 1.0
        if spec.orientation == "vertical":
            values = values.T.copy()
        frames.append(GrayImage(values))
    return FrameSequence(frames)


def generate_single_basis_probe(model: BasisModel, unit: int) -> GrayImage:
    """Basis image of one unit as a patch (column of A, row-major)."""
    if not 0 <= unit < model.n_units:
        raise IndexOutOfRange(f"unit {unit} out of range 0..{model.n_units - 1}")
    side = model.patch_side
    return GrayImage(model.basis[:, unit].reshape(side, side).copy())


def generate_dead_leaves(width: int, height: int, n_disks: int, seed: int,
                         min_radius: float = 2.0, max_radius: float = 0.0) -> GrayImage:
    """Occlusion image: random gray disks painted back to front.

    Disk centers are uniform over the canvas, radii are drawn from a
    1/r density between min_radius and max_radius (default a quarter of
    the smaller canvas side), intensities uniform in [0, 1]. Later disks
    occlude earlier ones, which produces sharp edges and T-junctions at
    all orientations.

    Each disk is tested only inside its bounding box clipped to the
    canvas, by the same per-pixel arithmetic as a canvas-wide test, so
    the image for a given seed is unchanged from earlier versions.
    """
    if width < 1 or height < 1:
        raise BadSpec(f"canvas must be at least 1x1, got {width}x{height}")
    if n_disks < 1:
        raise BadSpec(f"n_disks must be >= 1, got {n_disks}")
    if max_radius <= 0:
        max_radius = max(min_radius, min(width, height) / 4.0)
    if min_radius <= 0 or max_radius < min_radius:
        raise BadSpec(f"bad radius range [{min_radius}, {max_radius}]")
    rng = np.random.default_rng(seed)
    canvas = np.full((height, width), 0.5, dtype=np.float64)
    log_lo, log_hi = np.log(min_radius), np.log(max_radius)
    for _ in range(n_disks):
        cx = rng.uniform(0, width)
        cy = rng.uniform(0, height)
        r = np.exp(rng.uniform(log_lo, log_hi))
        shade = rng.uniform(0.0, 1.0)
        # Bounding box clipped to the canvas, one pixel wider on each side
        # so that float rounding at the rim cannot drop a pixel.
        x0, x1 = max(int(cx - r) - 1, 0), min(int(cx + r) + 2, width)
        y0, y1 = max(int(cy - r) - 1, 0), min(int(cy + r) + 2, height)
        ys, xs = np.ogrid[y0:y1, x0:x1]
        mask = (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
        canvas[y0:y1, x0:x1][mask] = shade
    return GrayImage(canvas)


def _subpixel_crop(values: np.ndarray, x: float, y: float, window: int) -> np.ndarray:
    """Window crop at the fractional top-left corner (x, y), bilinearly interpolated."""
    left, top = int(np.floor(x)), int(np.floor(y))
    frac_x, frac_y = x - left, y - top
    block = values[top:top + window + (frac_y > 0), left:left + window + (frac_x > 0)]
    if frac_x > 0:
        block = (1 - frac_x) * block[:, :-1] + frac_x * block[:, 1:]
    if frac_y > 0:
        block = (1 - frac_y) * block[:-1, :] + frac_y * block[1:, :]
    return block


def generate_panning_sequence(scene: GrayImage, window: int, n_frames: int,
                              speed: float = 0.1, seed: int = 0) -> FrameSequence:
    """Camera pan: a window crop gliding across a larger scene.

    The crop origin starts at a seeded position and moves along a seeded
    direction at `speed` pixels per frame, reflecting off the scene
    borders. Motion is sub-pixel: frames are bilinearly interpolated at
    the fractional origin, so consecutive frames change smoothly instead
    of jumping a whole pixel at a time. Each frame is normalized to zero
    mean, unit variance.
    """
    if window < 1:
        raise BadSpec(f"window must be >= 1, got {window}")
    if scene.width < window or scene.height < window:
        raise BadSpec(f"scene {scene.width}x{scene.height} too small for window {window}")
    if n_frames < 1:
        raise BadSpec(f"n_frames must be >= 1, got {n_frames}")
    rng = np.random.default_rng(seed)
    span_x = float(scene.width - window)
    span_y = float(scene.height - window)
    x = rng.uniform(0, span_x) if span_x else 0.0
    y = rng.uniform(0, span_y) if span_y else 0.0
    angle = rng.uniform(0, 2 * np.pi)
    dx = speed * np.cos(angle)
    dy = speed * np.sin(angle)
    frames = []
    for _ in range(n_frames):
        frames.append(normalize_image(GrayImage(_subpixel_crop(scene.values, x, y, window))))
        x, dx = _reflect(x, dx, span_x)
        y, dy = _reflect(y, dy, span_y)
    return FrameSequence(frames)


def _reflect(pos: float, step: float, span: float) -> tuple:
    """`pos` moved by `step`, reflected off 0 and `span` (reversing `step`
    each time) until it lies in the pan range; a zero span holds it at 0."""
    if not span:
        return 0.0, step
    pos += step
    while pos < 0 or pos > span:
        pos = -pos if pos < 0 else 2 * span - pos
        step = -step
    return pos, step
