"""Bounded fuzzing of artifact headers: a loader returns or raises TopicaError.

Each case cuts a valid file short inside its first 32 bytes, or flips
bytes there, where the magic numbers, sizes and metadata keys live.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topica.errors import TopicaError
from topica.estimation import BasisModel, load_basis, save_basis
from topica.images import GrayImage, read_image, write_image
from topica.matrixio import read_matrix, read_meta, write_matrix
from topica.topography import build_topography

HEAD = 32

truncations = st.integers(0, HEAD - 1).map(lambda n: ("cut", n))
flips = st.lists(st.tuples(st.integers(0, HEAD - 1), st.integers(1, 255)),
                 min_size=1, max_size=4).map(lambda pairs: ("flip", pairs))
mutations = st.one_of(truncations, flips)


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
    """A valid .ticm, .pgm and model directory, with their original bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(8)
    write_matrix(root / "m.ticm", rng.standard_normal((3, 5)))
    write_image(root / "i.pgm", GrayImage(rng.random((5, 6))))
    model_dir = root / "model"
    save_basis(BasisModel(filters=np.eye(4), basis=rng.standard_normal((4, 4)),
                          topo=build_topography(2, 2, 0), whitening_ref="0" * 64,
                          kind="ICA", epsilon=0.005, seed=1), model_dir)
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
    (model_dir / "basis.meta").write_bytes(mutate(originals["basis.meta"], mutation))
    loads_or_raises_topica_error(read_meta, model_dir / "basis.meta")
    loads_or_raises_topica_error(load_basis, model_dir)
