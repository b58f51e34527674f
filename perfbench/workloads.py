"""Benchmark workloads: their sizes, their inputs and the CLI chain they run.

Run as a script, this module writes one workload's inputs:

    python3 perfbench/workloads.py SPEC_JSON SEED DIR

SPEC_JSON is a `Workload` as JSON. The same seed always writes the same
files. The program under test only ever sees those files.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass

IMAGES_DIR = "images"
FRAMES_DIR = "frames"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_images: int            # dead-leaves training images
    image_side: int
    image_disks: int
    patch_side: int
    n_patches: int
    map_width: int           # k = map_width * map_height
    map_height: int
    max_iters: int           # every training runs with --tol 0, so passes are fixed
    n_frames: int            # panning sequence fed to activate
    window: int
    scene_side: int = 512
    scene_disks: int = 900
    permutations: int = 10000
    max_lag: int = 10
    locality_k: int = 5

    @property
    def k(self) -> int:
        return self.map_width * self.map_height

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        return cls(**json.loads(text))


# Sizes keep each workload's dominant layer while a pipeline stays short
# enough (6-10 s) that a 50-second run takes the median of five to seven.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk",
        why="README data scale, full-batch training on 19000 patches of 81 pixels: gradient and whitening dominate",
        n_images=4, image_side=256, image_disks=220, patch_side=9, n_patches=20000,
        map_width=8, map_height=8, max_iters=40,
        n_frames=300, window=64),
    Workload(
        name="wide",
        why="patch dimension above sample count (p=4096 > T=1500): the whitening fit dominates time and memory",
        n_images=3, image_side=256, image_disks=220, patch_side=64, n_patches=1500,
        map_width=12, map_height=12, max_iters=20,
        n_frames=300, window=128),
)}


def _seed(seed: int, role: int, index: int = 0) -> int:
    import numpy as np
    return int(np.random.SeedSequence([seed, role, index]).generate_state(1)[0])


def make_inputs(w: Workload, seed: int, directory: str) -> None:
    """Write the training images and the frame sequence of one workload."""
    from topica import generate_dead_leaves, generate_panning_sequence, normalize_image
    from topica.images import save_sequence, write_image

    image_dir = os.path.join(directory, IMAGES_DIR)
    os.makedirs(image_dir, exist_ok=True)
    for i in range(w.n_images):
        img = generate_dead_leaves(w.image_side, w.image_side, w.image_disks, seed=_seed(seed, 1, i))
        write_image(os.path.join(image_dir, f"leaves_{i:02d}.pgm"), normalize_image(img))
    scene = generate_dead_leaves(w.scene_side, w.scene_side, w.scene_disks, seed=_seed(seed, 2),
                                 min_radius=3.0, max_radius=40.0)
    pan = generate_panning_sequence(scene, w.window, w.n_frames, speed=0.1, seed=_seed(seed, 3))
    save_sequence(pan, os.path.join(directory, FRAMES_DIR))


def pipeline(w: Workload, seed: int, inputs: str, out: str) -> list:
    """The CLI chain of one pipeline run, as (stage, argv) in execution order."""
    def path(name):
        return os.path.join(out, name)

    train = ["train", "--images", os.path.join(inputs, IMAGES_DIR),
             "--patch-side", str(w.patch_side), "--n-patches", str(w.n_patches),
             "--k", str(w.k), "--map-width", str(w.map_width), "--map-height", str(w.map_height),
             "--max-iters", str(w.max_iters), "--tol", "0", "--seed", str(seed)]
    frames = os.path.join(inputs, FRAMES_DIR)
    return [
        ("train", train + ["--radius", "1", "--out", path("tica")]),
        ("train", train + ["--radius", "0", "--out", path("ica")]),
        ("activate", ["activate", "--model", path("tica"), "--frames", frames,
                      "--out", path("tica_trace")]),
        ("activate", ["activate", "--model", path("ica"), "--frames", frames,
                      "--out", path("ica_trace")]),
        ("analyze", ["analyze", "--mode", "autocorr", "--trace", path("tica_trace"),
                     "--max-lag", str(w.max_lag), "--out", path("autocorr")]),
        ("analyze", ["analyze", "--mode", "adjacency", "--trace", path("tica_trace"),
                     "--model", path("tica"), "--compare", path("ica_trace"),
                     "--compare-model", path("ica"), "--permutations", str(w.permutations),
                     "--out", path("adjacency")]),
        ("analyze", ["analyze", "--mode", "locality", "--trace", path("tica_trace"),
                     "--model", path("tica"), "--k", str(w.locality_k), "--out", path("locality")]),
        ("render", ["render", "--model", path("tica"), "--out", path("montage.pgm")]),
    ]


if __name__ == "__main__":
    make_inputs(Workload.from_json(sys.argv[1]), int(sys.argv[2]), sys.argv[3])
