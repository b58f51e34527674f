import weakref

import numpy as np
import numpy.testing as npt
import pytest

from topica import _blas
from topica._blas import top_eigh
from topica.errors import BadK, DimensionMismatch, RankDeficient
from topica.images import PatchSet
from topica.whitening import (
    CHUNK,
    WhiteningModel,
    dewhiten,
    fit_whitening,
    load_whitening,
    save_whitening,
    whiten,
)


def random_patches(rng, count=400, side=4):
    data = rng.standard_normal((count, side * side))
    data = data - data.mean(axis=1, keepdims=True)
    return PatchSet(data, side)


def test_whitened_covariance_is_identity(rng):
    ps = random_patches(rng)
    model = fit_whitening(ps, 12)
    z = whiten(model, ps)
    cov = z.T @ z / z.shape[0]
    npt.assert_allclose(cov, np.eye(12), atol=1e-10)


def test_eigenvalues_match_direct_eigendecomposition(rng):
    ps = random_patches(rng)
    model = fit_whitening(ps, 10)
    cov = ps.data.T @ ps.data / ps.data.shape[0]
    reference = np.sort(np.linalg.eigvalsh(cov))[::-1][:10]
    npt.assert_allclose(model.eigenvalues, reference, atol=1e-10)
    assert (np.diff(model.eigenvalues) <= 1e-12).all()


def test_transform_inverse_are_mutual_pseudoinverses(rng):
    ps = random_patches(rng)
    model = fit_whitening(ps, 12)
    npt.assert_allclose(model.transform @ model.inverse, np.eye(12), atol=1e-10)


def test_dewhiten_restores_retained_subspace(rng):
    # With k = rank (mean-free 2x2 patches have rank 3), whiten followed
    # by dewhiten reproduces the data exactly.
    data = rng.standard_normal((200, 4))
    data = data - data.mean(axis=1, keepdims=True)
    ps = PatchSet(data, 2)
    model = fit_whitening(ps, 3)
    back = dewhiten(model, whiten(model, ps))
    npt.assert_allclose(back, data, atol=1e-10)


def test_sign_convention(rng):
    ps = random_patches(rng)
    model = fit_whitening(ps, 8)
    vectors = model.transform * np.sqrt(model.eigenvalues)[:, None]
    for row in vectors:
        assert row[np.argmax(np.abs(row))] > 0


def test_bad_k_rejected(rng):
    ps = random_patches(rng, count=50)
    with pytest.raises(BadK):
        fit_whitening(ps, 0)
    with pytest.raises(BadK):
        fit_whitening(ps, 17)
    with pytest.raises(BadK):
        fit_whitening(ps, 51)    # more than the sample count


def test_rank_deficient_rejected(rng):
    # Mean-free 2x2 patches span only 3 dimensions; asking for 4 must fail.
    data = rng.standard_normal((100, 4))
    data = data - data.mean(axis=1, keepdims=True)
    ps = PatchSet(data, 2)
    with pytest.raises(RankDeficient):
        fit_whitening(ps, 4)


def test_whiten_shape_check(rng):
    model = fit_whitening(random_patches(rng), 8)
    with pytest.raises(DimensionMismatch):
        whiten(model, PatchSet(rng.standard_normal((5, 9)), 3))
    with pytest.raises(DimensionMismatch):
        dewhiten(model, rng.standard_normal((5, 9)))


# 81 pixels is at most T for every T but 1; 46 * 46 = 2116 pixels exceeds
# every T. The first model is fitted from X^T X, the second from X X^T.
@pytest.mark.parametrize("side, fit_rows", [(9, 2000), (46, 300)], ids=["p81", "p2116"])
@pytest.mark.parametrize("n_samples", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7])
def test_blocked_whiten_is_the_one_product(side, fit_rows, n_samples):
    rng = np.random.default_rng(n_samples)
    model = fit_whitening(random_patches(rng, fit_rows, side), 64)
    patches = random_patches(rng, n_samples, side)
    z = whiten(model, patches)
    assert z.flags.c_contiguous
    assert z.tobytes() == (patches.data @ model.transform.T).tobytes()


def test_save_load_roundtrip(tmp_path, rng):
    model = fit_whitening(random_patches(rng), 9)
    save_whitening(model, tmp_path)
    back = load_whitening(tmp_path)
    npt.assert_array_equal(back.transform, model.transform)
    npt.assert_array_equal(back.inverse, model.inverse)
    npt.assert_array_equal(back.eigenvalues, model.eigenvalues)
    assert back.k == model.k and back.n_pixels == model.n_pixels
    assert back.identity_hash() == model.identity_hash()


def test_identity_hash_tracks_content(rng):
    model = fit_whitening(random_patches(rng), 6)
    other = WhiteningModel(
        transform=model.transform * 1.0000001,
        inverse=model.inverse,
        eigenvalues=model.eigenvalues,
    )
    assert model.identity_hash() != other.identity_hash()


def test_sizes_are_derived_from_the_transform(rng):
    model = fit_whitening(random_patches(rng), 6)
    assert (model.k, model.n_pixels) == model.transform.shape
    with pytest.raises(TypeError):
        WhiteningModel(transform=model.transform, inverse=model.inverse,
                       eigenvalues=model.eigenvalues, n_pixels=model.n_pixels, k=model.k)


def test_deterministic_fit(small_patches):
    a = fit_whitening(small_patches, 16)
    b = fit_whitening(small_patches, 16)
    npt.assert_array_equal(a.transform, b.transform)
    assert a.identity_hash() == b.identity_hash()


# More pixels than samples (p = 64 > T = 40): the fit takes the T x T Gram
# matrix and maps its eigenvectors back to pixel space.
WIDE_K = 30


@pytest.fixture()
def wide_patches(rng):
    return random_patches(rng, count=40, side=8)


def test_wide_fit_matches_svd_oracle(wide_patches):
    data = wide_patches.data
    model = fit_whitening(wide_patches, WIDE_K)
    _, svals, vt = np.linalg.svd(data / np.sqrt(data.shape[0]), full_matrices=False)
    vectors = vt[:WIDE_K]
    vectors *= np.sign(vectors[np.arange(WIDE_K), np.argmax(np.abs(vectors), axis=1)])[:, None]
    npt.assert_allclose(model.eigenvalues, svals[:WIDE_K] ** 2, rtol=1e-12)
    npt.assert_allclose(model.transform, vectors / svals[:WIDE_K, None], rtol=1e-9, atol=1e-12)


def test_wide_fit_whitens_and_inverts(wide_patches):
    model = fit_whitening(wide_patches, WIDE_K)
    z = whiten(model, wide_patches)
    npt.assert_allclose(z.T @ z / z.shape[0], np.eye(WIDE_K), atol=1e-10)
    npt.assert_allclose(model.transform @ model.inverse, np.eye(WIDE_K), atol=1e-10)


def test_wide_fit_sign_convention(wide_patches):
    model = fit_whitening(wide_patches, WIDE_K)
    vectors = model.transform * np.sqrt(model.eigenvalues)[:, None]
    for row in vectors:
        assert row[np.argmax(np.abs(row))] > 0


@pytest.mark.parametrize("side, distinct", [(8, 20), (100, 150)], ids=["8x8", "100x100"])
def test_wide_duplicated_rows_rank_deficient(rng, side, distinct):
    # `distinct` rows, each twice: rank `distinct`, so the next eigenvalue is
    # exactly zero and shows only as the Gram matrix's roundoff. 100x100 is
    # the full-scale patch size.
    half = random_patches(rng, count=distinct, side=side).data
    ps = PatchSet(np.vstack([half, half]), side)
    assert fit_whitening(ps, distinct).eigenvalues[-1] > 1e-3
    with pytest.raises(RankDeficient):
        fit_whitening(ps, distinct + 1)


def test_rank_floor_is_relative_to_the_spectrum():
    # One pixel copies another, so the covariance has one zero eigenvalue.
    # At this scale its roundoff (about 1e-8 here, positive for this seed)
    # lies far above a fixed floor like 1e-12.
    data = 1e4 * np.random.default_rng(0).standard_normal((400, 16))
    data[:, 15] = data[:, 14]
    ps = PatchSet(data, 4)
    gram = data.T @ data
    gram /= 400
    assert np.linalg.eigh(gram)[0][0] > 1e-12
    assert fit_whitening(ps, 15).eigenvalues[-1] > 1e6
    with pytest.raises(RankDeficient):
        fit_whitening(ps, 16)


# (n_samples, k) on 9x9 patches. 7 and CHUNK rows are a single block. For
# CHUNK + 1 and 2 * CHUNK + 7 rows, below CHUNK * 81 / (81 - k), and for
# k = 81, which keeps every row in place, an earlier block overwrites the
# last block's input, were that block computed last.
@pytest.mark.parametrize("n_samples, k", [
    (7, 64), (CHUNK, 64), (CHUNK + 1, 64), (2 * CHUNK + 7, 64), (3 * CHUNK + 100, 81),
])
def test_in_place_whiten_is_the_one_product(n_samples, k):
    rng = np.random.default_rng(n_samples)
    model = fit_whitening(PatchSet(rng.standard_normal((2000, 81)), 9), k)
    data = rng.standard_normal((n_samples, 81))
    expected = (data @ model.transform.T).tobytes()
    patches = PatchSet(data.copy(), 9)
    z = whiten(model, patches, in_place=True)
    # The patch buffer itself, given up by `patches` and shrunk to (n, k).
    assert patches.data is None and z.base is None
    assert z.shape == (n_samples, k) and z.flags.c_contiguous
    assert z.nbytes == n_samples * k * 8
    assert z.tobytes() == expected


def test_in_place_whiten_refuses_non_contiguous_data(rng):
    model = fit_whitening(random_patches(rng), 8)
    patches = PatchSet(rng.standard_normal((16, 50))[:, :16], 4)
    before = patches.data.copy()
    with pytest.raises(ValueError, match="C-contiguous"):
        whiten(model, patches, in_place=True)
    npt.assert_array_equal(patches.data, before)


@pytest.mark.parametrize("holder", [lambda data: data, lambda data: data[:5], weakref.ref],
                         ids=["second-name", "view", "weakref"])
def test_in_place_whiten_refuses_a_buffer_held_elsewhere(rng, holder):
    # Such a buffer cannot be shrunk, so it is refused before it is written.
    model = fit_whitening(random_patches(rng), 8)
    patches = PatchSet(rng.standard_normal((30, 16)), 4)
    pixels = patches.data.tobytes()
    other = holder(patches.data)
    with pytest.raises(ValueError, match="nothing else refers to"):
        whiten(model, patches, in_place=True)
    assert patches.data.tobytes() == pixels
    del other
    assert whiten(model, patches, in_place=True).shape == (30, 8)


def _symmetric(rng, eigenvalues):
    q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues), len(eigenvalues))))
    return (q * eigenvalues) @ q.T


@pytest.mark.parametrize("eigenvalues, k", [
    (np.linspace(1, 20, 20), 1),
    (np.linspace(1, 20, 20), 20),
    (np.linspace(1, 20, 20), 7),
    (np.array([9.0, 9.0, 9.0, 4.0, 4.0, 1.0, 0.5, 0.5]), 3),    # k ends a repeated triple
    (np.array([9.0, 9.0, 9.0, 4.0, 4.0, 1.0, 0.5, 0.5]), 5),
    (np.array([9.0, 9.0, 9.0, 4.0, 4.0, 1.0, 0.5, 0.5]), 8),
], ids=["k1", "kn", "k7", "triple-k3", "pairs-k5", "pairs-kn"])
def test_top_eigh_matches_eigh(eigenvalues, k):
    # The vectors of a repeated eigenvalue are not unique, so compare the
    # projector onto the returned subspace; every k here ends at a gap.
    gram = _symmetric(np.random.default_rng(k), eigenvalues)
    values, vectors = top_eigh(gram.copy(), k)
    reference_values, reference = np.linalg.eigh(gram)
    reference_values, reference = reference_values[::-1][:k], reference[:, ::-1][:, :k]
    assert vectors.shape == (gram.shape[0], k)
    npt.assert_allclose(values, reference_values, rtol=1e-12)
    npt.assert_allclose(vectors.T @ vectors, np.eye(k), atol=1e-12)
    npt.assert_allclose(vectors @ vectors.T, reference @ reference.T, atol=1e-12)
    npt.assert_allclose(gram @ vectors, vectors * values, atol=1e-12)


@pytest.mark.parametrize("shape, k", [((4, 3), 2), ((3, 3), 0), ((3, 3), 4)])
def test_top_eigh_refuses_sizes_lapack_would_overrun(shape, k):
    with pytest.raises(ValueError, match="square matrix"):
        top_eigh(np.ones(shape), k)


def test_top_eigh_binds_the_bundled_lapack():
    # numpy's wheel bundles the ILP64 OpenBLAS; without it the fallback test
    # below would compare the fallback with itself.
    assert _blas._dsyevr() is not None


def test_fallback_matches_the_solver(rng, monkeypatch):
    ps = random_patches(rng, count=40, side=8)
    solved = fit_whitening(ps, 30)
    monkeypatch.setattr(_blas, "_dsyevr", lambda: None)
    sliced = fit_whitening(ps, 30)
    npt.assert_allclose(sliced.eigenvalues, solved.eigenvalues, rtol=1e-10)
    npt.assert_allclose(sliced.transform, solved.transform, atol=1e-10)
    npt.assert_allclose(sliced.inverse, solved.inverse, atol=1e-10)


def test_fallback_keeps_the_rank_floor(rng, monkeypatch):
    monkeypatch.setattr(_blas, "_dsyevr", lambda: None)
    data = rng.standard_normal((100, 4))
    data = data - data.mean(axis=1, keepdims=True)
    with pytest.raises(RankDeficient):
        fit_whitening(PatchSet(data, 2), 4)


@pytest.mark.parametrize("count, side", [(40, 8), (400, 4)], ids=["p>T", "p<=T"])
def test_map_back_is_the_snapshot_formula_in_the_transform_layout(count, side):
    ps = random_patches(np.random.default_rng(11), count, side)
    data = ps.data
    before = data.tobytes()
    model = fit_whitening(ps, 12)
    # The fit leaves its argument as it was.
    assert ps.data is data and data.tobytes() == before
    assert model.transform.flags.c_contiguous and model.inverse.flags.c_contiguous
    # X^T u / sqrt(lambda T), then the sign fix, then the scale, as (p, k).
    snapshots = count < side * side
    values, vectors = top_eigh((data @ data.T if snapshots else data.T @ data) / count, 12)
    if snapshots:
        vectors = data.T @ vectors / np.sqrt(values * count)
    vectors = vectors * np.sign(vectors[np.argmax(np.abs(vectors), axis=0), np.arange(12)])
    npt.assert_allclose(model.transform, vectors.T / np.sqrt(values)[:, None], rtol=0, atol=1e-12)
    npt.assert_allclose(model.inverse, vectors * np.sqrt(values), rtol=0, atol=1e-12)
