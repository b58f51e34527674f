import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topica.errors import BadDimensions, BadPermutation
from topica.topography import (
    Topography,
    adjacent_pairs,
    build_topography,
    pairwise_distances,
    shuffle_topography,
)


def test_radius_zero_is_identity():
    topo = build_topography(5, 3, 0)
    npt.assert_array_equal(topo.h, np.eye(15))


def test_three_by_three_radius_one_is_all_ones():
    # With wraparound, every cell of a 3x3 torus is within one step of
    # every other.
    topo = build_topography(3, 3, 1)
    npt.assert_array_equal(topo.h, np.ones((9, 9)))


def test_neighborhood_size_is_exact():
    # A (2r+1)^2 block fits on the torus without self-overlap, so every
    # unit has exactly that many neighbors (itself included).
    for w, h, r in [(4, 4, 1), (8, 8, 1), (8, 8, 3), (20, 10, 1), (7, 9, 2)]:
        topo = build_topography(w, h, r)
        npt.assert_array_equal(topo.h.sum(axis=1), np.full(w * h, (2 * r + 1) ** 2))


def test_h_symmetric_binary_unit_diagonal():
    topo = build_topography(6, 5, 2)
    npt.assert_array_equal(topo.h, topo.h.T)
    assert set(np.unique(topo.h)) <= {0.0, 1.0}
    npt.assert_array_equal(np.diag(topo.h), np.ones(30))


def test_radius_too_large_rejected():
    with pytest.raises(BadDimensions):
        build_topography(4, 4, 2)      # 2r+1 = 5 > 4
    with pytest.raises(BadDimensions):
        build_topography(9, 3, 2)      # limited by the smaller side


def test_bad_dimensions_rejected():
    with pytest.raises(BadDimensions):
        build_topography(0, 4, 0)
    with pytest.raises(BadDimensions):
        build_topography(4, -1, 0)


def test_pairwise_distances_oracle():
    dist = pairwise_distances(build_topography(4, 3, 1))
    # unit = y * width + x on the identity layout
    assert dist[0, 1] == 1
    assert dist[0, 3] == 1      # x wraps: |0-3| -> 1
    assert dist[0, 6] == 2      # dx=2, dy=1
    assert dist[0, 0] == 0
    assert dist[1, 9] == 1      # dy wraps: |0-2| -> 1


def test_pairwise_distances_matrix():
    topo = build_topography(5, 4, 1)
    dist = pairwise_distances(topo)
    npt.assert_array_equal(dist, dist.T)
    npt.assert_array_equal(np.diag(dist), np.zeros(20))
    assert dist.max() == 2  # floor(5/2) = 2, floor(4/2) = 2
    # h is exactly the distance <= radius indicator
    npt.assert_array_equal(topo.h, (dist <= 1).astype(np.float64))


def test_adjacent_pairs_count_and_content():
    topo = build_topography(4, 4, 1)
    pairs = adjacent_pairs(topo)
    assert pairs.shape == (64, 2)            # 8 neighbors each, unordered
    assert (pairs[:, 0] < pairs[:, 1]).all()
    dist = pairwise_distances(topo)
    assert all(dist[i, j] == 1 for i, j in pairs)


def test_shuffle_preserves_distance_multiset():
    topo = build_topography(6, 5, 1)
    shuffled = shuffle_topography(topo, seed=3)
    a = np.sort(pairwise_distances(topo).ravel())
    b = np.sort(pairwise_distances(shuffled).ravel())
    npt.assert_array_equal(a, b)


def test_shuffle_is_seeded():
    topo = build_topography(6, 5, 1)
    a = shuffle_topography(topo, seed=3)
    b = shuffle_topography(topo, seed=3)
    npt.assert_array_equal(a.permutation, b.permutation)
    c = shuffle_topography(topo, seed=4)
    assert not np.array_equal(a.permutation, c.permutation)


def test_permuted_topography_relabels_h():
    topo = build_topography(4, 4, 1)
    perm = np.random.default_rng(0).permutation(16)
    relabeled = Topography(width=4, height=4, radius=1, permutation=perm)
    for i in range(16):
        for j in range(16):
            assert relabeled.h[i, j] == topo.h[perm[i], perm[j]]


def test_inverse_permutation_restores_layout():
    topo = build_topography(5, 5, 2)
    perm = np.random.default_rng(7).permutation(25)
    there = Topography(width=5, height=5, radius=2, permutation=perm)
    back = Topography(width=5, height=5, radius=2,
                      permutation=there.permutation[np.argsort(perm)])
    npt.assert_array_equal(back.h, topo.h)
    npt.assert_array_equal(back.permutation, topo.permutation)


def test_bad_permutation_rejected():
    with pytest.raises(BadPermutation):
        Topography(width=4, height=4, radius=1, permutation=np.zeros(16, dtype=np.intp))
    with pytest.raises(BadPermutation):
        Topography(width=4, height=4, radius=1, permutation=np.arange(15))
    with pytest.raises(BadPermutation):
        Topography(width=4, height=4, radius=1, permutation=np.arange(1, 17))


# Every caller of the one permutation check, each on a 2x2 lattice of 4 units.
PERMUTATION_CALLERS = {
    "Topography": lambda perm: Topography(width=2, height=2, radius=0, permutation=perm),
}


@pytest.mark.parametrize("caller", sorted(PERMUTATION_CALLERS))
@pytest.mark.parametrize("perm", [[0, 1, 2], [0, 1, 1, 3], [[0, 1], [2, 3]]],
                         ids=["wrong-length", "duplicate", "2-D"])
def test_every_caller_rejects_a_non_permutation(caller, perm):
    with pytest.raises(BadPermutation):
        PERMUTATION_CALLERS[caller](np.array(perm))


def test_h_is_derived_not_passed():
    with pytest.raises(TypeError):
        Topography(width=3, height=3, radius=1, h=np.eye(9))


def test_unit_grid_inverts_cells():
    topo = shuffle_topography(build_topography(7, 3, 1), seed=2)
    grid = topo.unit_grid()
    cells = topo.cells()
    for unit, (x, y) in enumerate(cells):
        assert grid[y, x] == unit


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 5), st.integers(0, 2**31 - 1))
def test_neighbor_count_property(width, height, radius, seed):
    if 2 * radius + 1 > min(width, height):
        with pytest.raises(BadDimensions):
            build_topography(width, height, radius)
        return
    topo = shuffle_topography(build_topography(width, height, radius), seed)
    npt.assert_array_equal(topo.h.sum(axis=0), np.full(width * height, (2 * radius + 1) ** 2))
    npt.assert_array_equal(topo.h, topo.h.T)
