"""Bounded fuzzing of artifacts: a loader returns or raises TopicaError.

Each header case cuts a valid file short inside its first 32 bytes, or
flips bytes there, where the magic numbers, sizes and metadata keys live.
Each text-file case does the same anywhere in a `.meta` file or a
training log.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topica.activation import ActivationTrace, load_trace, save_trace
from topica.errors import TopicaError
from topica.estimation import BasisModel, TrainingRecord, load_basis, save_basis
from topica.images import (
    FrameSequence,
    GrayImage,
    load_sequence,
    read_image,
    save_sequence,
    write_image,
)
from topica.matrixio import read_matrix, read_meta, write_matrix
from topica.topography import build_topography
from topica.whitening import WhiteningModel, load_whitening, save_whitening

HEAD = 32

# Each fuzzed text file, its directory under the fixture root, and its loader.
TEXT_FILES = {
    "trace.meta": ("trace", load_trace),
    "whitening.meta": ("trained", load_whitening),
    "training_log.csv": ("trained", load_basis),
    "sequence.meta": ("frames", load_sequence),
}


def mutations_within(size):
    """Cut the file to fewer than `size` bytes, or XOR up to 4 of its first `size`."""
    truncations = st.integers(0, size - 1).map(lambda n: ("cut", n))
    flips = st.lists(st.tuples(st.integers(0, size - 1), st.integers(1, 255)),
                     min_size=1, max_size=4).map(lambda pairs: ("flip", pairs))
    return st.one_of(truncations, flips)


mutations = mutations_within(HEAD)


def mutate(data: bytes, mutation) -> bytes:
    kind, arg = mutation
    if kind == "cut":
        return data[:arg]
    out = bytearray(data)
    for index, mask in arg:
        if index < len(out):
            out[index] ^= mask
    return bytes(out)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A valid .ticm, .pgm, model directory, trained model, trace and frame
    sequence, with the original bytes of the first three."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(8)
    write_matrix(root / "m.ticm", rng.standard_normal((3, 5)))
    write_image(root / "i.pgm", GrayImage(rng.random((5, 6))))
    model_dir = root / "model"
    save_basis(BasisModel(filters=np.eye(4), basis=rng.standard_normal((4, 4)),
                          topo=build_topography(2, 2, 0), whitening_ref="0" * 64,
                          epsilon=0.005, seed=1), model_dir)
    trained = root / "trained"
    log = [TrainingRecord(i, -2.0 + rng.random(), 0.1 * 1.2**i, 0.0) for i in range(3)]
    save_basis(BasisModel(filters=np.eye(4), basis=rng.standard_normal((4, 4)),
                          topo=build_topography(2, 2, 0), whitening_ref="0" * 64,
                          epsilon=0.005, seed=1, training_log=log), trained)
    save_whitening(WhiteningModel(np.eye(4), np.eye(4), np.sort(rng.random(4))[::-1] + 0.1),
                   trained)
    save_trace(ActivationTrace(rng.standard_normal((3, 4)), 24.0, "0" * 64),
               root / "trace")
    save_sequence(FrameSequence([GrayImage(rng.random((4, 4))) for _ in range(2)], 12.5),
                  root / "frames")
    for directory, load in TEXT_FILES.values():
        load(root / directory)
    originals = {name: (root / name).read_bytes() for name in ("m.ticm", "i.pgm")}
    originals["basis.meta"] = (model_dir / "basis.meta").read_bytes()
    return root, model_dir, originals


def loads_or_raises_topica_error(load, path):
    try:
        load(path)
    except TopicaError:
        pass


@settings(deadline=None, max_examples=60)
@given(mutation=mutations)
def test_matrix_header(artifacts, mutation):
    root, _, originals = artifacts
    path = root / "m.ticm"
    path.write_bytes(mutate(originals["m.ticm"], mutation))
    loads_or_raises_topica_error(read_matrix, path)


@settings(deadline=None, max_examples=60)
@given(mutation=mutations)
def test_image_header(artifacts, mutation):
    root, _, originals = artifacts
    path = root / "i.pgm"
    path.write_bytes(mutate(originals["i.pgm"], mutation))
    loads_or_raises_topica_error(read_image, path)


@settings(deadline=None, max_examples=60)
@given(mutation=mutations)
def test_model_meta(artifacts, mutation):
    _, model_dir, originals = artifacts
    try:
        (model_dir / "basis.meta").write_bytes(mutate(originals["basis.meta"], mutation))
        loads_or_raises_topica_error(read_meta, model_dir / "basis.meta")
        loads_or_raises_topica_error(load_basis, model_dir)
    finally:
        (model_dir / "basis.meta").write_bytes(originals["basis.meta"])


@pytest.mark.parametrize("name", sorted(TEXT_FILES))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_text_file_anywhere(artifacts, name, data):
    root, _, _ = artifacts
    directory, load = TEXT_FILES[name]
    path = root / directory / name
    original = path.read_bytes()
    try:
        path.write_bytes(mutate(original, data.draw(mutations_within(len(original)))))
        loads_or_raises_topica_error(load, root / directory)
    finally:
        path.write_bytes(original)
