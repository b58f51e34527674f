"""PCA dimensionality reduction with whitening, and its inverse.

The whitening transform is built from the eigendecomposition of the
uncentered sample covariance (expectation form, divisor n_samples):
rows of the transform are the top-k eigenvectors scaled by 1/sqrt of
their eigenvalues, so the whitened training data has identity
covariance. The eigenvectors come from whichever Gram matrix is smaller:
X^T X / T when there are no more pixels than samples, and otherwise
X X^T / T, whose eigenvectors u map to those of X^T X / T as
X^T u / sqrt(lambda T) (the method of snapshots, Sirovich 1987). The
branch depends on the data shape alone, so refits are bit-identical.

Only the top k eigenpairs are computed, by LAPACK's `dsyevr` from the
OpenBLAS bundled with numpy (`_blas.top_eigh`), which needs no n x n
workspace. Where numpy brings no such library, the top k are sliced from
``numpy.linalg.eigh``, which computes all n.
"""

from __future__ import annotations

import os
import sys
import weakref
from dataclasses import dataclass

import numpy as np

from ._blas import top_eigh
from .errors import BadK, DimensionMismatch, FormatError, RankDeficient
from .images import PatchSet
from .matrixio import (
    content_hash,
    format_float,
    meta_value,
    read_matrix,
    read_meta,
    write_matrix,
    write_meta,
)

TRANSFORM_FILE = "whitening_matrix.ticm"
INVERSE_FILE = "dewhitening_matrix.ticm"
META_FILE = "whitening.meta"

# Rows per block of every row-blocked product: `whiten`'s projection and
# the pooled-energy kernel of `estimation`. The kernel's (CHUNK, n) buffers
# stay in cache, the BLAS packs one block at a time, and a fixed size keeps
# the gradient's summation order independent of the batch size. Artifacts
# are bit-identical for a given seed and BLAS thread count; at another
# thread count the BLAS may sum a product in another order. Given the same
# whitening, training is bit-identical across thread counts: the gradient
# pads a shorter last block with zero rows, so its product that sums over
# rows always runs over exactly CHUNK rows.
CHUNK = 1024


@dataclass(eq=False)
class WhiteningModel:
    """Retained-subspace whitening transform and its pseudo-inverse."""

    transform: np.ndarray       # (k, n_pixels), rows e_i^T / sqrt(lambda_i)
    inverse: np.ndarray         # (n_pixels, k), columns e_i * sqrt(lambda_i)
    eigenvalues: np.ndarray     # (k,), strictly positive, non-increasing

    @property
    def k(self) -> int:
        return self.transform.shape[0]

    @property
    def n_pixels(self) -> int:
        return self.transform.shape[1]

    def identity_hash(self) -> str:
        return content_hash(
            "topica-whitening-v1",
            self.k,
            self.n_pixels,
            self.transform,
            self.inverse,
            self.eigenvalues,
        )


def _fix_eigenvector_signs(vectors: np.ndarray) -> None:
    """Flip rows in place so each eigenvector's largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(vectors), axis=1)
    vectors *= np.sign(vectors[np.arange(vectors.shape[0]), idx])[:, None]


def fit_whitening(patches: PatchSet, k: int) -> WhiteningModel:
    """Fit the top-k whitening transform to a patch set.

    Parameters
    ----------
    patches : PatchSet
        Training data, one flattened patch per row; not modified.
    k : int
        Number of principal components to retain. Must not exceed
        min(n_samples, n_pixels), and the k-th eigenvalue of the sample
        covariance must exceed max(n_samples, n_pixels) * eps * lambda_max,
        the Gram matrix's roundoff floor (the analogue of the default
        tolerance of ``numpy.linalg.matrix_rank``).

    Returns
    -------
    WhiteningModel
        With transform V (k x n_pixels) and inverse V_inv (n_pixels x k)
        such that V @ V_inv = I and the whitened training data has
        identity covariance. Eigenvector signs follow the convention
        that the largest-magnitude entry of each eigenvector is positive.

    Notes
    -----
    The eigendecomposition works on the smaller of the two Gram matrices,
    a square of side min(n_samples, n_pixels), scaled in place. The map
    back computes u^T X, which has the transform's (k, n_pixels) layout,
    and scales and sign-fixes it in place, so beside the patches the fit
    holds at most two (k, n_pixels) arrays: the transform and the inverse.
    """
    data = patches.data
    n_samples, n_pixels = data.shape
    if not 1 <= k <= min(n_samples, n_pixels):
        raise BadK(f"k={k} outside 1..min({n_samples}, {n_pixels})")
    snapshots = n_pixels > n_samples
    gram = data @ data.T if snapshots else data.T @ data
    gram /= n_samples
    eigenvalues, vectors = top_eigh(gram, k)
    del gram
    floor = max(n_samples, n_pixels) * np.finfo(np.float64).eps * eigenvalues[0]
    if eigenvalues[-1] <= floor:
        raise RankDeficient(
            f"eigenvalue {k} of the sample covariance is {eigenvalues[-1]:.3e}, "
            f"within roundoff of zero (<= {floor:.3e})"
        )
    # From here on `vectors` is (k, n_pixels), a C array laid out as the
    # transform, and every step but the inverse works in it.
    if snapshots:
        vectors = vectors.T @ data
        vectors /= np.sqrt(eigenvalues * n_samples)[:, None]
    else:
        vectors = np.ascontiguousarray(vectors.T)
    _fix_eigenvector_signs(vectors)
    scale = np.sqrt(eigenvalues)
    inverse = np.multiply(vectors.T, scale, order="C")
    vectors /= scale[:, None]
    return WhiteningModel(transform=vectors, inverse=inverse, eigenvalues=eigenvalues)


def whiten(model: WhiteningModel, patches: PatchSet, in_place: bool = False) -> np.ndarray:
    """Project patches into the whitened space, one row per sample.

    Equal, bit for bit, to `patches.data @ model.transform.T`, but computed
    CHUNK rows at a time, so the BLAS packs one block and not the whole
    batch. The last block is the last CHUNK rows and may overlap the one
    before it: a product of fewer rows can take another BLAS path, with
    other bits.

    By default the rows go into a new array and `patches` is not modified.
    With `in_place`, the caller gives up the patches: the rows overwrite
    `patches.data`, row i's k values in its flat slots i*k .. i*k + k - 1,
    `patches.data` is set to None, and the buffer itself is shrunk to
    (n, k) and returned, without a copy. Training then holds the (n, k)
    rows only. As k <= n_pixels, each forward block overwrites only slots
    of rows up to its own, which it has read; the last block, whose input
    an earlier block may overwrite, is computed first. A buffer that cannot
    be shrunk is refused with ValueError before it is written: one that is
    not C-contiguous, does not own its data, or that anything but
    `patches` refers to (another name, a view, a weak reference).
    """
    if patches.n_pixels != model.n_pixels:
        raise DimensionMismatch(
            f"patches have {patches.n_pixels} pixels, model expects {model.n_pixels}"
        )
    data = patches.data
    n_samples, k = data.shape[0], model.k
    if in_place:
        patches.data = None
        # The test `resize` makes, made before any row is written: only
        # `data` refers to the buffer. getrefcount counts its own argument,
        # as `resize` counts the reference of the call.
        if not (data.flags.c_contiguous and data.flags.owndata
                and sys.getrefcount(data) == 2 and weakref.getweakrefcount(data) == 0):
            patches.data = data
            raise ValueError("whitening in place needs C-contiguous patch data that owns "
                             "its buffer and that nothing else refers to")
        z = data.reshape(-1)[:n_samples * k].reshape(n_samples, k)
    else:
        z = np.empty((n_samples, k))
    transform_t = model.transform.T
    last = max(n_samples - CHUNK, 0)
    last_rows = data[last:] @ transform_t
    for start in range(0, n_samples - CHUNK, CHUNK):
        # In place, the output block overlaps its own input rows; numpy
        # computes such a product as if the operands did not overlap.
        np.matmul(data[start:start + CHUNK], transform_t, out=z[start:start + CHUNK])
    z[last:] = last_rows
    if not in_place:
        return z
    del z    # the view's reference would block the resize
    data.resize((n_samples, k))    # realloc keeps the first n*k values in place
    return data


def dewhiten(model: WhiteningModel, z: np.ndarray) -> np.ndarray:
    """Map whitened rows back to pixel space (pseudo-inverse of whiten)."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != model.k:
        raise DimensionMismatch(f"expected shape (n, {model.k}), got {z.shape}")
    return z @ model.inverse.T


def save_whitening(model: WhiteningModel, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    write_matrix(os.path.join(directory, TRANSFORM_FILE), model.transform)
    write_matrix(os.path.join(directory, INVERSE_FILE), model.inverse)
    write_meta(
        os.path.join(directory, META_FILE),
        {
            "format_version": 1,
            "k": model.k,
            "n_pixels": model.n_pixels,
            "eigenvalues": ",".join(format_float(v) for v in model.eigenvalues),
        },
    )


def load_whitening(directory) -> WhiteningModel:
    meta_path = os.path.join(directory, META_FILE)
    meta = read_meta(meta_path)
    transform = read_matrix(os.path.join(directory, TRANSFORM_FILE))
    inverse = read_matrix(os.path.join(directory, INVERSE_FILE))
    k = meta_value(meta, "k", meta_path, int)
    n_pixels = meta_value(meta, "n_pixels", meta_path, int)
    eigenvalues = meta_value(meta, "eigenvalues", meta_path,
                             lambda raw: np.array([float(v) for v in raw.split(",")]))
    if transform.shape != (k, n_pixels) or inverse.shape != (n_pixels, k):
        raise FormatError(f"{directory}: matrix shapes disagree with header")
    if eigenvalues.shape != (k,):
        raise FormatError(f"{directory}: expected {k} eigenvalues, got {eigenvalues.shape[0]}")
    return WhiteningModel(transform, inverse, eigenvalues)
