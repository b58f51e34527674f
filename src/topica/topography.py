"""Torus lattice of basis units and the binary neighborhood indicator.

Unit i sits at lattice cell (i mod width, i div width); an optional
permutation reassigns units to cells while keeping the lattice fixed.
Two units are neighbors when their cells are within the given Chebyshev
radius on the torus (radius 1 = the 3x3 square of 9 units).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MAX_ARRAY_BYTES, BadDimensions, BadPermutation


@dataclass(eq=False)
class Topography:
    width: int
    height: int
    radius: int
    permutation: np.ndarray = None
    h: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise BadDimensions(f"lattice must be at least 1x1, got {self.width}x{self.height}")
        if self.radius < 0:
            raise BadDimensions(f"radius must be >= 0, got {self.radius}")
        if 2 * self.radius + 1 > min(self.width, self.height):
            raise BadDimensions(
                f"neighborhood span {2 * self.radius + 1} exceeds lattice side "
                f"min({self.width}, {self.height})"
            )
        if self.n_units ** 2 * 8 > MAX_ARRAY_BYTES:
            raise BadDimensions(f"lattice {self.width}x{self.height}: its neighborhood matrix "
                                f"exceeds {MAX_ARRAY_BYTES} bytes")
        if self.permutation is None:
            self.permutation = np.arange(self.n_units)
        else:
            self.permutation = check_permutation(self.permutation, self.n_units)
        self.h = _neighborhood_matrix(self)

    @property
    def n_units(self) -> int:
        return self.width * self.height

    def cells(self) -> np.ndarray:
        """(n, 2) array of (x, y) cell coordinates, row i for unit i."""
        base = self.permutation
        return np.stack([base % self.width, base // self.width], axis=1)

    def unit_grid(self) -> np.ndarray:
        """(height, width) array giving the unit index occupying each cell."""
        grid = np.empty(self.n_units, dtype=np.intp)
        grid[self.permutation] = np.arange(self.n_units)
        return grid.reshape(self.height, self.width)


def check_permutation(perm, n: int) -> np.ndarray:
    """`perm` as an index array; BadPermutation unless it is a 1-D permutation of 0..n-1."""
    perm = np.asarray(perm, dtype=np.intp)
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise BadPermutation(f"not a permutation of 0..{n - 1}")
    return perm


def _torus_deltas(coords: np.ndarray, period: int) -> np.ndarray:
    d = np.abs(coords[:, None] - coords[None, :])
    return np.minimum(d, period - d)


def pairwise_distances(topo: Topography) -> np.ndarray:
    """(n, n) matrix of torus Chebyshev distances between unit cells."""
    cells = topo.cells()
    dx = _torus_deltas(cells[:, 0], topo.width)
    dy = _torus_deltas(cells[:, 1], topo.height)
    return np.maximum(dx, dy)


def _neighborhood_matrix(topo: Topography) -> np.ndarray:
    return (pairwise_distances(topo) <= topo.radius).astype(np.float64)


def build_topography(width: int, height: int, radius: int) -> Topography:
    """Build the torus lattice with the identity unit-to-cell assignment."""
    return Topography(width=width, height=height, radius=radius)


def shuffle_topography(topo: Topography, seed: int) -> Topography:
    """Randomly permute the unit-to-cell assignment (seeded, reproducible):
    for the sampled permutation perm, unit i takes the cell of unit perm[i].

    The returned lattice has h' = P h P^T for the sampled permutation
    matrix P, so row sums, symmetry, and the unit diagonal are preserved.
    """
    perm = np.random.default_rng(seed).permutation(topo.n_units)
    return Topography(topo.width, topo.height, topo.radius, topo.permutation[perm])


def adjacent_pairs(topo: Topography) -> np.ndarray:
    """All unordered unit pairs at torus Chebyshev distance exactly 1."""
    dist = pairwise_distances(topo)
    i, j = np.nonzero(np.triu(dist == 1, k=1))
    return np.stack([i, j], axis=1)
