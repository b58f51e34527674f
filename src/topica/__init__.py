"""Topographic ICA on image patches.

Train a torus-lattice topographic ICA model on patches from grayscale
images, apply its bases to frame sequences, and quantify the temporal
and spatial correlation structure of the resulting activations.
"""

from .activation import (
    ActivationTrace,
    compute_activation,
    load_trace,
    reconstruct,
    save_trace,
    shuffle_frames,
)
from .analysis import (
    AdjacencyReport,
    AutocorrReport,
    PermutationResult,
    adjacent_correlation,
    autocorrelation,
    cluster_locality,
    compare_adjacency,
    permutation_test,
)
from .errors import ConfigError, DataError, NumericalError, TopicaError
from .estimation import (
    BasisModel,
    TrainConfig,
    ica_train,
    load_basis,
    save_basis,
    symmetric_orthonormalize,
    tica_gradient,
    tica_objective,
    train,
)
from .images import (
    FrameSequence,
    GrayImage,
    PatchSet,
    extract_fixed_patches,
    extract_patches_from_images,
    extract_random_patches,
    load_images,
    load_sequence,
    normalize_image,
    read_image,
    save_sequence,
    write_image,
)
from .stimulus import (
    BarStimulusSpec,
    generate_dead_leaves,
    generate_moving_bar,
    generate_panning_sequence,
    generate_single_basis_probe,
)
from .topography import (
    Topography,
    adjacent_pairs,
    build_topography,
    pairwise_distances,
    shuffle_topography,
)
from .whitening import WhiteningModel, dewhiten, fit_whitening, load_whitening, save_whitening, whiten

__version__ = "0.1.0"

__all__ = [
    "ActivationTrace", "AdjacencyReport", "AutocorrReport", "BarStimulusSpec",
    "BasisModel", "ConfigError", "DataError", "FrameSequence", "GrayImage",
    "NumericalError", "PatchSet", "PermutationResult", "Topography",
    "TopicaError", "TrainConfig", "WhiteningModel", "adjacent_correlation",
    "adjacent_pairs", "autocorrelation", "build_topography", "cluster_locality",
    "compare_adjacency", "compute_activation", "dewhiten",
    "extract_fixed_patches", "extract_patches_from_images",
    "extract_random_patches", "fit_whitening", "generate_dead_leaves",
    "generate_moving_bar", "generate_panning_sequence",
    "generate_single_basis_probe", "ica_train", "load_basis", "load_images",
    "load_sequence", "load_trace", "load_whitening", "normalize_image",
    "pairwise_distances", "permutation_test", "read_image",
    "reconstruct", "save_basis", "save_sequence", "save_trace",
    "save_whitening", "shuffle_frames", "shuffle_topography",
    "symmetric_orthonormalize", "tica_gradient", "tica_objective",
    "train", "whiten", "write_image",
]
