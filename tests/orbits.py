"""Orbits of the subsets of the grid {0..r}^dim under the grid's symmetries.

The symmetries are the coordinate permutations combined with the
reflections x_i -> r - x_i: 2^dim * dim! maps, the dihedral group of order
8 on {0..3}^2 and 384 maps on {0,1}^4.  Each is a signed permutation
followed by a shift, so each preserves all five verdicts.  A subset is a
bitmask over the cells in itertools.product order, the order that
exhaustive_point_sets uses.
"""

from __future__ import annotations

from itertools import permutations, product

from bspoly.core import PointSet


def grid_orbits(dim: int, grid_range: int) -> list:
    """One (representative, orbit size) per orbit of the nonempty subsets.

    Each representative is the PointSet of the least mask in its orbit;
    the representatives come in increasing mask order.
    """
    cells = list(product(range(grid_range + 1), repeat=dim))
    index = {c: i for i, c in enumerate(cells)}
    # maps[g][i] is the bit of the cell that map g sends cell i to.
    maps = [[1 << index[tuple(grid_range - c[u] if flip else c[u]
                              for u, flip in zip(perm, flips))]
             for c in cells]
            for perm in permutations(range(dim))
            for flips in product((False, True), repeat=dim)]
    seen = bytearray(2 ** len(cells))
    orbits = []
    for mask in range(1, len(seen)):
        if seen[mask]:
            continue
        members = [i for i in range(len(cells)) if mask >> i & 1]
        orbit = {sum(bits[i] for i in members) for bits in maps}
        for image in orbit:
            seen[image] = 1
        orbits.append((PointSet.from_points(dim, [cells[i] for i in members]),
                       len(orbit)))
    return orbits
