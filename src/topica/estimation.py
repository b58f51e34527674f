"""Gradient-ascent estimation of the topographic filter bank.

The model keeps an orthonormal filter matrix in whitened space and
scores a sample batch by neighborhood-pooled squared filter responses:
each unit's pooled energy u_i is the sum of squared responses over its
lattice neighborhood, and the batch objective is the mean of
G(u) = -sqrt(epsilon + u) over units and samples. With a radius-0
lattice the pooling disappears and the estimator reduces to plain ICA
with the same smooth sparsity score, which is how the ICA baseline is
produced here.

Training ascends the exact full-batch objective gradient with symmetric
re-orthonormalization after every step and an adaptive step size
controlled by a fixed held-out batch: an improving pass grows the step
by 1.2x (capped at 1.0), a non-improving pass is retried from the
pre-pass filters at half the step, reusing that pass's gradient, and a
step below 1e-6 stops training.
"""

from __future__ import annotations

import csv
import os
from dataclasses import astuple, dataclass, field
from typing import get_type_hints

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    Diverged,
    FormatError,
    ModelMismatch,
    SingularMatrix,
)
from .images import PatchSet
from .matrixio import (
    content_hash,
    format_float,
    meta_value,
    read_matrix,
    read_meta,
    write_matrix,
    write_meta,
    write_table,
)
from .topography import Topography
from .whitening import CHUNK, WhiteningModel, whiten

STEP_FLOOR = 1e-6
STEP_GROWTH = 1.2
STEP_SHRINK = 0.5
STEP_CAP = 1.0

FILTERS_FILE = "filter_matrix.ticm"
BASIS_FILE = "basis_matrix.ticm"
META_FILE = "basis.meta"
LOG_FILE = "training_log.csv"

# Why training stopped: the filters moved less than `tol`, the step fell
# below STEP_FLOOR, or `max_iters` passes ran.
STOP_REASONS = ("tol", "step_floor", "max_iters")


# Held-out samples that score each pass (at most a fifth of the data).
HOLDOUT_SIZE = 1000


@dataclass
class TrainConfig:
    """Gradient-ascent settings, range-checked by `validate` on construction."""

    step0: float = 0.1
    epsilon: float = 0.005
    max_iters: int = 200
    tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not (np.isfinite(self.step0) and self.step0 > 0):
            raise ConfigError(f"step0 must be finite and > 0, got {self.step0}")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (np.isfinite(self.tol) and self.tol >= 0):
            raise ConfigError(f"tol must be finite and >= 0, got {self.tol}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainingRecord:
    iteration: int
    objective: float
    step: float
    ortho_error: float


# The columns of LOG_FILE, in order, each with the type that parses it.
LOG_COLUMNS = get_type_hints(TrainingRecord)


@dataclass(eq=False)
class BasisModel:
    """Trained filter bank, its pixel-space basis, and training metadata."""

    filters: np.ndarray          # (n, k) orthonormal rows, whitened space
    basis: np.ndarray            # (n_pixels, n), columns are basis images
    topo: Topography
    whitening_ref: str
    epsilon: float
    seed: int
    training_log: list = field(default_factory=list)
    stop_reason: str | None = None   # one of STOP_REASONS; None if not recorded

    @property
    def n_units(self) -> int:
        return self.filters.shape[0]

    @property
    def kind(self) -> str:
        """ICA on a radius-0 lattice, which pools nothing; TICA otherwise."""
        return "ICA" if self.topo.radius == 0 else "TICA"

    @property
    def iterations(self) -> int:
        """Training passes run; the log's iteration-0 row is the starting point."""
        return self.training_log[-1].iteration if self.training_log else 0

    @property
    def patch_side(self) -> int:
        side = int(np.sqrt(self.basis.shape[0]))
        if side * side != self.basis.shape[0]:
            raise DimensionMismatch(f"basis rows {self.basis.shape[0]} are not a square count")
        return side

    def identity_hash(self) -> str:
        return content_hash(
            "topica-basis-v1",
            self.kind,
            float(self.epsilon),
            self.topo.width,
            self.topo.height,
            self.topo.radius,
            self.topo.permutation.astype(np.float64),
            self.whitening_ref,
            self.filters,
            self.basis,
        )


def _kernel_work(n_units: int, dims: int) -> tuple:
    """Scratch for `tica_objective` and `tica_gradient`: three (CHUNK, n_units)
    buffers for a block's responses, energies and pooled energies, and a
    (CHUNK, dims) buffer for the samples of a shorter block, padded with zeros."""
    return (*np.empty((3, CHUNK, n_units)), np.empty((CHUNK, dims)))


def _pooled_energy(filters: np.ndarray, batch: np.ndarray, topo: Topography,
                   epsilon: float, gradient: bool, work: tuple | None):
    """The kernel behind `tica_objective` and `tica_gradient`.

    Walks the whitened (T, k) batch in blocks of CHUNK rows through the
    buffers of `work`, or of a `_kernel_work` allocated for this call when
    `work` is None. Per block: responses
    y = z W^T, pooled energies u = (y * y) h, then sqrt(epsilon + u) in
    place. Returns the mean over samples of sum_i sqrt(epsilon + u_i) or,
    with `gradient`, of (y(t) * (G'(u(t)) h))^T z_t with
    G'(u) = -1 / (2 sqrt(epsilon + u)), summed block by block in row
    order. At radius 0, h is the identity and both products with it are
    skipped. The one product that sums over rows, (y * G'(u) h)^T z, always
    runs over CHUNK rows: a shorter last block is padded with zero rows,
    which add exactly 0. Over fewer rows the BLAS can take a path whose
    summation order depends on the thread count.
    """
    filters = np.asarray(filters, dtype=np.float64)
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    n, k = filters.shape
    if n != topo.n_units:
        raise DimensionMismatch(f"{n} filters for a {topo.n_units}-unit lattice")
    if batch.shape[-1] != k:
        raise DimensionMismatch(f"samples have {batch.shape[-1]} dims, filters expect {k}")
    if work is None:
        work = _kernel_work(n, k)
    responses, energies, pooled, padded = work
    pooling = topo.radius > 0
    if not pooling:
        pooled = energies
    if gradient:
        total = np.zeros((n, k))
        block_grad = np.empty((n, k))
    else:
        total = 0.0
    for start in range(0, batch.shape[0], CHUNK):
        z = batch[start:start + CHUNK]
        y, e, u = responses[:len(z)], energies[:len(z)], pooled[:len(z)]
        np.matmul(z, filters.T, out=y)
        np.multiply(y, y, out=e)
        if pooling:
            np.matmul(e, topo.h, out=u)
        u += epsilon
        np.sqrt(u, out=u)
        if gradient:
            np.divide(-0.5, u, out=u)
            if pooling:
                np.matmul(u, topo.h, out=e)    # h is symmetric
            e *= y
            if len(z) < CHUNK:
                energies[len(z):] = 0.0
                padded[:len(z)] = z
                padded[len(z):] = 0.0
                e, z = energies, padded
            np.matmul(e.T, z, out=block_grad)
            total += block_grad
        else:
            total += u.sum()
    return total / batch.shape[0]


def tica_objective(filters: np.ndarray, batch: np.ndarray, topo: Topography,
                   epsilon: float, work: tuple | None = None) -> float:
    """Mean pooled-energy score of a whitened batch; higher is better.

    J = (1/T) sum_t sum_i G(u_i(t)) with G(u) = -sqrt(epsilon + u) and
    u_i(t) the neighborhood-pooled squared responses of sample t.
    `work`, the buffers of `_kernel_work(n, k)`, is used as scratch in
    place of ones allocated for the call.
    """
    return float(-_pooled_energy(filters, batch, topo, epsilon, False, work))


def tica_gradient(filters: np.ndarray, batch: np.ndarray, topo: Topography,
                  epsilon: float, work: tuple | None = None) -> np.ndarray:
    """Exact gradient of `tica_objective` with respect to the filters.

    Row i is (2/T) sum_t z_t (w_i . z_t) r_i(t) where
    r_i(t) = sum_j h(i,j) G'(u_j(t)): the squared response of unit i
    feeds every neighborhood containing i, and differentiating the
    square contributes the factor 2. `work` is as in `tica_objective`.
    """
    return 2.0 * _pooled_energy(filters, batch, topo, epsilon, True, work)


def orthonormality_error(filters: np.ndarray) -> float:
    """Frobenius distance of W W^T from the identity."""
    n = filters.shape[0]
    return float(np.linalg.norm(filters @ filters.T - np.eye(n)))


def symmetric_orthonormalize(filters: np.ndarray) -> np.ndarray:
    """Project onto the nearest matrix with orthonormal rows.

    Computes (W W^T)^(-1/2) W through the eigendecomposition of W W^T.
    Raises Diverged when W W^T is not finite (a step so large that it
    overflows, say), and SingularMatrix when its condition number is
    above 1e12.
    """
    filters = np.asarray(filters, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):    # reported as Diverged below
        gram = filters @ filters.T
    if not np.all(np.isfinite(gram)):
        raise Diverged("filter Gram matrix is not finite")
    vals, vecs = np.linalg.eigh(gram)
    if vals[-1] <= 0 or vals[0] <= 0 or vals[-1] / vals[0] > 1e12:
        raise SingularMatrix("filter Gram matrix is numerically singular")
    inv_root = (vecs / np.sqrt(vals)[None, :]) @ vecs.T
    return inv_root @ filters


def train(patches: PatchSet | np.ndarray, whitening: WhiteningModel, topo: Topography,
          config: TrainConfig | None = None) -> BasisModel:
    """Estimate the filter bank on whitened patches by full-batch gradient ascent.

    A rejected pass leaves the filters as they were, so its retry reuses their gradient.

    Parameters
    ----------
    patches : PatchSet or ndarray
        Training patches in pixel space, as a PatchSet, which is whitened
        into a new array and never modified; or the (n_samples, k) rows
        that `whiten(whitening, ...)` returned, which training reorders in
        place, so the caller gives them up.
    whitening : WhiteningModel
        Transform fitted on the same data distribution. Its dimension k
        must equal the number of lattice units.
    topo : Topography
        Unit lattice; radius 0 yields a plain ICA model.
    config : TrainConfig
        Step schedule and seed (of the random orthonormal start and the
        held-out rows). Defaults: start step 0.1, epsilon 0.005.

    Returns
    -------
    BasisModel
        With orthonormal whitened-space filters, the pixel-space basis
        matrix (dewhitened filter transposes), a per-iteration log of
        (iteration, held-out objective, step size, orthonormality error),
        and the stop reason: "tol", "step_floor" or "max_iters".
    """
    if config is None:
        config = TrainConfig()
    n = topo.n_units
    if whitening.k != n:
        raise DimensionMismatch(
            f"whitening keeps k={whitening.k} components but the lattice has {n} units"
        )
    if isinstance(patches, PatchSet):
        z = whiten(whitening, patches)
    elif patches.ndim != 2 or patches.shape[1] != whitening.k:
        raise DimensionMismatch(f"whitened rows must have shape (n, {whitening.k}), "
                                f"got {patches.shape}")
    else:
        z = patches
    n_samples = z.shape[0]

    init_ss, holdout_ss = np.random.SeedSequence(config.seed).spawn(2)
    filters = symmetric_orthonormalize(np.random.default_rng(init_ss).standard_normal((n, n)))

    n_holdout = min(HOLDOUT_SIZE, max(1, n_samples // 5))
    holdout_idx = np.sort(np.random.default_rng(holdout_ss).choice(
        n_samples, size=n_holdout, replace=False))
    in_holdout = np.zeros(n_samples, dtype=bool)
    in_holdout[holdout_idx] = True
    train_idx = np.flatnonzero(~in_holdout)
    if train_idx.size == 0:
        train_idx = holdout_idx
    holdout = z[holdout_idx]
    # Move the training rows to the front of z, which whiten made for this
    # call or the caller gave up, block by block. train_idx is increasing,
    # so train_idx[j] >= j and no block reads a row that an earlier block wrote.
    for start in range(0, train_idx.size, CHUNK):
        block = train_idx[start:start + CHUNK]
        z[start:start + block.size] = z[block]
    rows = z[:train_idx.size]

    # One scratch for every pass: buffers allocated per call were returned
    # to the system and faulted in again on each call.
    work = _kernel_work(n, whitening.k)
    step = config.step0
    objective = tica_objective(filters, holdout, topo, config.epsilon, work)
    if not np.isfinite(objective):
        raise Diverged(f"initial objective is {objective}")
    log = [TrainingRecord(0, objective, step, orthonormality_error(filters))]

    grad = None
    for iteration in range(1, config.max_iters + 1):
        if grad is None:
            grad = tica_gradient(filters, rows, topo, config.epsilon, work)
        candidate = symmetric_orthonormalize(filters + step * grad)
        candidate_objective = tica_objective(candidate, holdout, topo, config.epsilon, work)
        if not np.isfinite(candidate_objective):
            raise Diverged(f"objective became {candidate_objective} at iteration {iteration}")

        if candidate_objective > objective:
            delta = float(np.linalg.norm(candidate - filters))
            filters, objective = candidate, candidate_objective
            step = min(step * STEP_GROWTH, STEP_CAP)
            grad = None
            log.append(TrainingRecord(iteration, objective, step, orthonormality_error(filters)))
            if delta < config.tol:
                stop_reason = "tol"
                break
        else:
            # Retry from the pre-pass filters, and so with their gradient, at half the step.
            step *= STEP_SHRINK
            log.append(TrainingRecord(iteration, objective, step, orthonormality_error(filters)))
            if step < STEP_FLOOR:
                stop_reason = "step_floor"
                break
    else:
        stop_reason = "max_iters"

    basis = whitening.inverse @ filters.T
    return BasisModel(
        filters=filters,
        basis=basis,
        topo=topo,
        whitening_ref=whitening.identity_hash(),
        epsilon=config.epsilon,
        seed=config.seed,
        training_log=log,
        stop_reason=stop_reason,
    )


def ica_train(patches: PatchSet, whitening: WhiteningModel, topo: Topography,
              config: TrainConfig | None = None) -> BasisModel:
    """Train with the pooling radius forced to 0 (plain ICA baseline)."""
    flat = Topography(width=topo.width, height=topo.height, radius=0)
    return train(patches, whitening, flat, config)


def save_basis(model: BasisModel, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    write_matrix(os.path.join(directory, FILTERS_FILE), model.filters)
    write_matrix(os.path.join(directory, BASIS_FILE), model.basis)
    meta = {
        "format_version": 1,
        "kind": model.kind,
        "epsilon": format_float(model.epsilon),
        "map_width": model.topo.width,
        "map_height": model.topo.height,
        "radius": model.topo.radius,
        "whitening_ref": model.whitening_ref,
        "seed": model.seed,
        "iterations": model.iterations,
    }
    if model.stop_reason is not None:
        meta["stop_reason"] = model.stop_reason
    identity = np.arange(model.topo.n_units)
    if not np.array_equal(model.topo.permutation, identity):
        meta["permutation"] = ",".join(str(int(p)) for p in model.topo.permutation)
    write_meta(os.path.join(directory, META_FILE), meta)
    write_table(os.path.join(directory, LOG_FILE), list(LOG_COLUMNS),
                (astuple(record) for record in model.training_log))


def _read_log(path) -> list:
    """The records of a training log whose header is exactly `LOG_COLUMNS`."""
    # UnicodeDecodeError (non-ASCII bytes) and zip's length check are ValueErrors too.
    try:
        with open(path, newline="", encoding="ascii") as f:
            rows = list(csv.reader(f))
        if not rows or rows[0] != list(LOG_COLUMNS):
            raise ValueError
        return [TrainingRecord(*(parse(v) for parse, v in
                                 zip(LOG_COLUMNS.values(), row, strict=True)))
                for row in rows[1:]]
    except (ValueError, csv.Error):
        raise FormatError(f"{path}: expected the columns {','.join(LOG_COLUMNS)}") from None


def load_basis(directory) -> BasisModel:
    meta_path = os.path.join(directory, META_FILE)
    meta = read_meta(meta_path)
    filters = read_matrix(os.path.join(directory, FILTERS_FILE))
    basis = read_matrix(os.path.join(directory, BASIS_FILE))
    permutation = None
    if "permutation" in meta:
        permutation = meta_value(meta, "permutation", meta_path,
                                 lambda raw: np.array([int(v) for v in raw.split(",")], np.intp))
    stop_reason = None
    if "stop_reason" in meta:    # absent from models saved before it was recorded
        stop_reason = meta_value(meta, "stop_reason", meta_path)
        if stop_reason not in STOP_REASONS:
            raise FormatError(f"{meta_path}: stop_reason must be one of "
                              f"{', '.join(STOP_REASONS)}, got {stop_reason!r}")
    width = meta_value(meta, "map_width", meta_path, int)
    height = meta_value(meta, "map_height", meta_path, int)
    if filters.shape[0] != width * height:    # before the lattice's arrays are sized by it
        raise FormatError(f"{directory}: {filters.shape[0]} filters for {width * height} units")
    topo = Topography(width=width, height=height,
                      radius=meta_value(meta, "radius", meta_path, int), permutation=permutation)
    if basis.shape[1] != filters.shape[0]:
        raise FormatError(f"{os.path.join(directory, BASIS_FILE)}: {basis.shape[1]} basis "
                          f"columns for {filters.shape[0]} filters")
    if int(np.sqrt(basis.shape[0])) ** 2 != basis.shape[0]:
        raise FormatError(f"{os.path.join(directory, BASIS_FILE)}: {basis.shape[0]} basis "
                          f"rows are not a square patch")
    log_path = os.path.join(directory, LOG_FILE)
    log = _read_log(log_path) if os.path.exists(log_path) else []
    model = BasisModel(
        filters=filters,
        basis=basis,
        topo=topo,
        whitening_ref=meta_value(meta, "whitening_ref", meta_path),
        epsilon=meta_value(meta, "epsilon", meta_path, float),
        seed=meta_value(meta, "seed", meta_path, int),
        training_log=log,
        stop_reason=stop_reason,
    )
    kind = meta_value(meta, "kind", meta_path)
    if kind != model.kind:
        raise FormatError(f"{meta_path}: kind {kind!r} does not match radius {topo.radius}")
    return model


def check_model_pairing(model: BasisModel, whitening: WhiteningModel) -> None:
    """Raise unless the basis model was trained with this whitening model."""
    if model.filters.shape[1] != whitening.k:
        raise ModelMismatch(f"{FILTERS_FILE} has {model.filters.shape[1]} columns, "
                            f"but the whitening keeps k={whitening.k}")
    if model.basis.shape[0] != whitening.n_pixels:
        raise ModelMismatch(f"{BASIS_FILE} has {model.basis.shape[0]} rows, "
                            f"but the whitening has {whitening.n_pixels} pixels")
    if model.whitening_ref != whitening.identity_hash():
        raise ModelMismatch("basis model was trained with a different whitening model")
