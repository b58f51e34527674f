import numpy as np
import numpy.testing as npt
import pytest

import topica
from topica.activation import (
    ActivationTrace,
    compute_activation,
    load_trace,
    reconstruct,
    save_trace,
    shuffle_frames,
)
from topica.errors import DimensionMismatch, ModelMismatch
from topica.images import PatchSet
from topica.matrixio import read_matrix


@pytest.fixture()
def trace(small_tica, small_whitening, small_patches):
    subset = PatchSet(small_patches.data[:40], small_patches.patch_side,
                      per_patch_mean_removed=True)
    return compute_activation(small_tica, small_whitening, subset, frame_rate=12.0)


def test_activation_matches_manual_projection(small_tica, small_whitening, small_patches, trace):
    x = small_patches.data[:40]
    expected = (small_tica.filters @ small_whitening.transform @ x.T).T
    npt.assert_allclose(trace.activations, expected, atol=1e-10)
    assert trace.frame_rate == 12.0


def test_energies_are_squared_activations(trace):
    npt.assert_array_equal(trace.energies, trace.activations ** 2)


def test_model_refs_recorded(trace, small_tica, small_whitening):
    assert trace.model_ref == small_tica.identity_hash()


def test_mismatched_whitening_rejected(small_tica, small_patches):
    other = topica.fit_whitening(small_patches, 15)
    with pytest.raises(ModelMismatch):
        compute_activation(small_tica, other, small_patches)


def test_reconstruction_matches_basis_combination(small_tica, trace):
    recon = reconstruct(small_tica, trace)
    expected = trace.activations @ small_tica.basis.T
    npt.assert_allclose(recon.data, expected, atol=1e-12)
    assert recon.patch_side == small_tica.patch_side
    assert not recon.per_patch_mean_removed


def test_reconstruct_checks_model(small_tica, small_whitening, small_patches, trace):
    other = topica.train(small_patches, small_whitening, small_tica.topo,
                         topica.TrainConfig(seed=99, max_iters=2))
    with pytest.raises(ModelMismatch):
        reconstruct(other, trace)


def test_shuffle_frames_permutes_rows(trace):
    shuffled = shuffle_frames(trace, seed=4)
    assert shuffled.n_frames == trace.n_frames
    npt.assert_array_equal(np.sort(shuffled.activations, axis=0),
                           np.sort(trace.activations, axis=0))
    assert not np.array_equal(shuffled.activations, trace.activations)
    again = shuffle_frames(trace, seed=4)
    npt.assert_array_equal(shuffled.activations, again.activations)


def test_trace_shape_validation():
    with pytest.raises(DimensionMismatch):
        ActivationTrace(activations=np.zeros(4), frame_rate=24.0, model_ref="m")


def test_energies_are_derived_not_passed():
    with pytest.raises(TypeError):
        ActivationTrace(activations=np.ones((2, 3)), energies=np.ones((2, 3)),
                        frame_rate=24.0, model_ref="m")


def test_load_derives_energies_and_save_still_writes_them(tmp_path, trace):
    save_trace(trace, tmp_path)
    npt.assert_array_equal(read_matrix(tmp_path / "energies.ticm"), trace.activations ** 2)
    (tmp_path / "energies.ticm").unlink()
    npt.assert_array_equal(load_trace(tmp_path).energies, trace.energies)


def test_save_load_roundtrip(tmp_path, trace):
    save_trace(trace, tmp_path)
    back = load_trace(tmp_path)
    npt.assert_array_equal(back.activations, trace.activations)
    npt.assert_array_equal(back.energies, trace.energies)
    assert back.frame_rate == trace.frame_rate
    assert back.model_ref == trace.model_ref
