"""Applying a trained model to frame sequences.

Activation of unit i on a patch x is its whitened-space filter response
s_i = w_i . (V x); the unit's energy is s_i^2. A trace holds one row per
frame, in frame order, so downstream temporal analyses can treat columns
as per-unit time series.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, DimensionMismatch, ModelMismatch
from .estimation import BasisModel, check_model_pairing
from .images import DEFAULT_FRAME_RATE, PatchSet
from .matrixio import (
    format_float,
    meta_positive_float,
    meta_str,
    read_matrix,
    read_meta,
    write_matrix,
    write_meta,
)
from .whitening import WhiteningModel, whiten

ACTIVATIONS_FILE = "activations.ticm"
ENERGIES_FILE = "energies.ticm"
META_FILE = "trace.meta"


@dataclass(eq=False)
class ActivationTrace:
    activations: np.ndarray      # (n_frames, n_units)
    frame_rate: float
    model_ref: str               # BasisModel.identity_hash(), which commits to the whitening
    energies: np.ndarray = field(init=False, repr=False)   # activations squared, elementwise

    def __post_init__(self):
        self.activations = np.asarray(self.activations, dtype=np.float64)
        if self.activations.ndim != 2:
            raise DimensionMismatch(f"trace must be 2-D, got shape {self.activations.shape}")
        if 0 in self.activations.shape:
            raise DataError(f"trace needs at least one frame and one unit, "
                            f"got shape {self.activations.shape}")
        self.energies = self.activations * self.activations

    @property
    def n_frames(self) -> int:
        return self.activations.shape[0]

    @property
    def n_units(self) -> int:
        return self.activations.shape[1]


def compute_activation(model: BasisModel, whitening: WhiteningModel,
                       patches: PatchSet,
                       frame_rate: float = DEFAULT_FRAME_RATE) -> ActivationTrace:
    """Filter responses and energies of each patch row, in order, after
    checking that `model` was trained with `whitening`."""
    check_model_pairing(model, whitening)
    z = whiten(whitening, patches)
    return ActivationTrace(
        activations=z @ model.filters.T,
        frame_rate=frame_rate,
        model_ref=model.identity_hash(),
    )


def reconstruct(model: BasisModel, trace: ActivationTrace) -> PatchSet:
    """Patch reconstructions A s from the trace's activations.

    Reconstructions live in the k-dimensional retained subspace, so they
    match the original patches only up to the discarded components.
    """
    if trace.model_ref != model.identity_hash():
        raise ModelMismatch("trace was computed from a different basis model")
    data = trace.activations @ model.basis.T
    return PatchSet(data=data, patch_side=model.patch_side, per_patch_mean_removed=False)


def shuffle_frames(trace: ActivationTrace, seed: int) -> ActivationTrace:
    """Seeded random permutation of the frame axis (temporal control)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(trace.n_frames)
    return replace(trace, activations=trace.activations[order])


def save_trace(trace: ActivationTrace, directory) -> None:
    """Write format v1; its energies file is for v1 readers, `load_trace` ignores it."""
    os.makedirs(directory, exist_ok=True)
    write_matrix(os.path.join(directory, ACTIVATIONS_FILE), trace.activations)
    write_matrix(os.path.join(directory, ENERGIES_FILE), trace.energies)
    write_meta(os.path.join(directory, META_FILE), {
        "format_version": 1,
        "frame_rate": format_float(trace.frame_rate),
        "model_ref": trace.model_ref,
    })


def load_trace(directory) -> ActivationTrace:
    """Read a trace; keys that `save_trace` does not write, such as the
    `whitening_ref` of older traces, are ignored."""
    meta_path = os.path.join(directory, META_FILE)
    meta = read_meta(meta_path)
    return ActivationTrace(
        activations=read_matrix(os.path.join(directory, ACTIVATIONS_FILE)),
        frame_rate=meta_positive_float(meta, "frame_rate", meta_path),
        model_ref=meta_str(meta, "model_ref", meta_path),
    )

