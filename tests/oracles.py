"""Reference code the tests compare the program against.

The matrix-keyed BFS closure of the root elements (`bfs_closure`) is the
reference for the groups built from their Bruhat cells and for their word
data, which the program finds on element numbers.  It keys every product it
meets, keeps the sorted keys met so far (`SeenKeys`), and numbers nothing
through a group's index, so it shares no lookup with `EnumeratedGroup`.
`sorted_matrices` reads a set's sorted keys back into its matrices.

The loops the program's stacked paths replaced are kept here as their
references: root elements summed power by power (`x_batch_power_sums`),
the nullspace basis filled one entry at a time (`nullspace_loop`), and theta
as the product over an element's whole word of generator images, each
transported by its own `map_c` call (`theta_by_words`).
"""

import numpy as np

from chevalley import gfmat
from chevalley.chevgroup import EnumeratedGroup, MatrixRep, root_element_generators
from chevalley.gfmat import MatSet, _first_unique, _key_weights
from chevalley.definability import ThetaMap, _horner, map_c
from chevalley.rings import FiniteRing


class SeenKeys:
    """The keys (`MatSet.keys`) of the d x d matrices over a ring met so
    far, as one sorted array; a key is tested by binary search."""

    def __init__(self, ring: FiniteRing, d: int):
        self._keys = MatSet.keys(ring, np.zeros((0, d, d), dtype=ring.dtype))

    def fresh(self, keys: np.ndarray) -> np.ndarray:
        """Positions of the keys not met before, each at its first
        occurrence, ascending; they are met from now on."""
        uniq, first = _first_unique(keys)
        if len(self._keys):
            new = self._keys.take(self._keys.searchsorted(uniq), mode="clip") != uniq
            uniq, first = uniq[new], first[new]
        self._keys = np.insert(self._keys, self._keys.searchsorted(uniq), uniq)
        return np.sort(first)


def bfs(rep: MatrixRep, ring: FiniteRing, gmats: np.ndarray):
    """The BFS from the identity over the generators gmats: (elements,
    dist, parent, genidx), elements in BFS order.  Each level multiplies its
    frontier by every generator, block by block, and keeps the products not
    met before, in order of their first (frontier position, generator)."""
    d = rep.dim
    G = len(gmats)
    ident = rep.identity(ring)[None]
    seen = SeenKeys(ring, d)
    seen.fresh(MatSet.keys(ring, ident))
    elems, dist, parent, genidx = [ident], [[0]], [[-1]], [[-1]]
    frontier, start, count = ident, 0, 1  # the last level, the index of its first element, all elements
    gcat = gmats.transpose(1, 0, 2).reshape(d, G * d)  # the generators side by side
    rows = gfmat.block_rows(ring, d, G)
    while len(frontier):
        level = len(elems)
        new, par, gen = [], [], []
        for c0 in range(0, len(frontier), rows):
            block = frontier[c0:c0 + rows]
            gfmat.check_budget("group elements", (count + len(block) * G, d, d), ring.dtype)
            # cand[i, :, g] is frontier[c0 + i] gmats[g], keyed through the
            # (i, g, d, d) view; only the fresh products are copied out
            cand = gfmat.mat_mul(ring, block.reshape(-1, d), gcat).reshape(-1, d, G, d)
            fresh = seen.fresh(MatSet.keys(ring, cand.transpose(0, 2, 1, 3)).ravel())
            new.append(cand[fresh // G, :, fresh % G])
            par.append(start + c0 + fresh // G)
            gen.append(fresh % G)
            count += len(fresh)
        start += len(frontier)
        frontier = np.concatenate(new)
        elems.append(frontier)
        dist.append(np.full(len(frontier), level))
        parent += par
        genidx += gen
    return np.concatenate(elems), np.concatenate(dist), np.concatenate(parent), np.concatenate(genidx)


def bfs_closure(rep: MatrixRep, ring: FiniteRing) -> EnumeratedGroup:
    """The BFS closure of the root elements (`bfs`) over any ring, numbered
    by the group constructor.  Each inverse is g^-1 inv(e) for the element's
    parent e and generator g, built level by level; the BFS's word data are
    carried over to key order by one lookup of each BFS element and kept."""
    labels, gmats = root_element_generators(rep, ring)
    ginvs = np.stack([rep.x(ring, a, ring.neg(r)) for a, r in labels])
    elements, dist, parent, genidx = bfs(rep, ring, gmats)
    inv_mats = np.empty_like(elements)
    inv_mats[0] = rep.identity(ring)
    rows = gfmat.block_rows(ring, rep.dim, 1)
    ends = np.searchsorted(dist, np.arange(1, dist[-1] + 2))  # level lv ends at ends[lv]
    for lv in range(1, len(ends)):
        for b0 in range(ends[lv - 1], ends[lv], rows):
            blk = slice(b0, min(b0 + rows, ends[lv]))
            inv_mats[blk] = gfmat.mat_mul(ring, ginvs[genidx[blk]], inv_mats[parent[blk]])
    E = EnumeratedGroup(ring, elements, inv_mats, rep, labels, gmats)
    m = E.idx(elements)  # BFS position -> number
    words = [np.empty(E.order, dtype=a.dtype) for a in (dist, parent, genidx)]
    for a, b in zip(words, (dist, np.where(parent < 0, -1, m[parent]), genidx)):
        a[m] = b
    E._words = tuple(words)
    return E


def sorted_matrices(s: MatSet) -> np.ndarray:
    """The matrices of a set in key order, i.e. lexicographic entry order,
    read back from its sorted keys."""
    dtype = s.ring.dtype
    w = s.shape[0] * s.shape[1]
    weights = _key_weights(s.ring.size, w)
    if weights is None:
        return s._keys.view(np.dtype(dtype).newbyteorder(">")).reshape(-1, *s.shape).astype(dtype)
    flat = np.empty((len(s), w), dtype=dtype)
    for i, weight in enumerate(weights):
        flat[:, i] = s._keys // weight % s.ring.size
    return flat.reshape(-1, *s.shape)


def x_batch_power_sums(rep: MatrixRep, ring: FiniteRing, a: int, rcodes) -> np.ndarray:
    """x_alpha(r) = 1 + r M_1 + ... + r^q M_q for a vector of ring codes,
    shape (N, d, d), one divided power at a time on the ring's tables."""
    powers = [gfmat.from_int_matrix(ring, M) for M in rep.divpow[a]]
    rcodes = np.asarray(rcodes, dtype=ring.dtype)
    out = np.broadcast_to(powers[0], (len(rcodes), rep.dim, rep.dim)).copy()
    rp = rcodes
    for i in range(1, len(powers)):
        term = ring.mul_t[rp[:, None, None], powers[i][None]]
        out = ring.add_t[out, term]
        if i + 1 < len(powers):
            rp = ring.mul_t[rp, rcodes]
    return out


def nullspace_loop(ring: FiniteRing, A: np.ndarray) -> np.ndarray:
    """Basis of {v : A v = 0} over a field, shape (k, cols), from rref,
    one entry at a time: vector k is 1 at the k-th free column and
    -R[r, that column] at the r-th pivot column."""
    R, pivots = gfmat.rref(ring, A)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.full((len(free), cols), ring.zero, dtype=ring.dtype)
    for bi, fc in enumerate(free):
        basis[bi, fc] = ring.one
        for r, pc in enumerate(pivots):
            basis[bi, pc] = ring.neg_t[R[r, fc]]
    return basis


def theta_by_words(tm: ThetaMap, idx: int) -> np.ndarray:
    """theta of element idx as the product, left to right, of the images of
    the generators of its word, each image from a single-matrix `map_c`."""
    E, rep, ring, rig = tm.E, tm.rep, tm.ring, tm.rig
    out = gfmat.identity(rig.table, rep.dim)
    for gi in E.word(idx):
        a, r = E.gens_meta[gi]
        rprime = rig.decode(map_c(rep, ring, a, rig.a0, rep.x(ring, a, r)))
        out = gfmat.mat_mul(rig.table, out, _horner(rig, rep.divpow[a], rprime))
    return out
