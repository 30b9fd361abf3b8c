"""Batched matrix arithmetic over table-backed finite rings, and matrix sets.

Matrices are numpy arrays of ring codes with shape (..., d, d); all leading
axes broadcast.  Prime-residue rings (GF(p), Z/n) get an integer fast path,
everything else goes through the ring's lookup tables.  `MatSet` is the one
way to key, deduplicate and look up matrices.  `check_budget` is the one size
policy: every step that builds a large array asks it first.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .rings import GF, FiniteRing, Zmod

BUDGET_BYTES = 1 << 28  # the largest array one step may build: 256 MiB


class BudgetExceeded(ValueError):
    """A step would build an array larger than BUDGET_BYTES."""


def check_budget(step: str, shape, dtype) -> None:
    """Raise BudgetExceeded, before anything is allocated, when an array of
    this shape and dtype would exceed BUDGET_BYTES."""
    nbytes = math.prod(int(n) for n in shape) * np.dtype(dtype).itemsize
    if nbytes > BUDGET_BYTES:
        raise BudgetExceeded(f"{step}: {nbytes:,} bytes exceeds the budget of {BUDGET_BYTES:,} bytes")


def _residue_modulus(ring) -> int | None:
    if isinstance(ring, GF) and ring.deg == 1:
        return ring.size
    if isinstance(ring, Zmod):
        return ring.size
    return None


def mat_mul(ring: FiniteRing, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    n = _residue_modulus(ring)
    if n is not None:
        C = A.astype(np.int64) @ B.astype(np.int64)
        C %= n
        return C.astype(ring.dtype)
    k = A.shape[-1]
    assert B.shape[-2] == k
    C = None
    for t in range(k):
        term = ring.mul_t[A[..., :, t, None], B[..., None, t, :]]
        C = term if C is None else ring.add_t[C, term]
    return C


def mat_mul_many(ring, mats) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = mat_mul(ring, out, m)
    return out


def identity(ring: FiniteRing, d: int) -> np.ndarray:
    out = np.full((d, d), ring.zero, dtype=ring.dtype)
    np.fill_diagonal(out, ring.one)
    return out


def scalar_mat(ring: FiniteRing, d: int, c) -> np.ndarray:
    out = np.full((d, d), ring.zero, dtype=ring.dtype)
    np.fill_diagonal(out, c)
    return out


def from_int_matrix(ring: FiniteRing, M: np.ndarray) -> np.ndarray:
    """Reduce an integer matrix into ring codes through Z -> R."""
    return ring.from_int_array(np.asarray(M, dtype=np.int64))


def mat_det(ring: FiniteRing, A: np.ndarray) -> np.ndarray:
    """Batched determinant by Leibniz expansion; fine for d <= 4."""
    d = A.shape[-1]
    det = None
    for perm in itertools.permutations(range(d)):
        term = None
        for i, j in enumerate(perm):
            entry = A[..., i, j]
            term = entry if term is None else ring.mul_t[term, entry]
        sgn = 1
        p = list(perm)
        for i in range(d):
            while p[i] != i:
                j = p[i]
                p[i], p[j] = p[j], p[i]
                sgn = -sgn
        if sgn < 0:
            term = ring.neg_t[term]
        det = term if det is None else ring.add_t[det, term]
    return det


def mat_inv(ring: FiniteRing, A: np.ndarray) -> np.ndarray:
    """Inverse of one matrix over a field: the right half of rref([A | 1]),
    which has a pivot outside the first d columns exactly when A is singular."""
    d = A.shape[0]
    R, pivots = rref(ring, np.concatenate([A, identity(ring, d)], axis=1))
    if pivots[-1] >= d:
        raise ZeroDivisionError("matrix is singular")
    return R[:, d:]


def rref(ring: FiniteRing, A: np.ndarray):
    """Reduced row echelon form over a field; returns (R, pivot column list)."""
    assert ring.is_field
    M = A.copy()
    rows, cols = M.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = None
        for rr in range(r, rows):
            if M[rr, c] != ring.zero:
                piv = rr
                break
        if piv is None:
            continue
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        M[r] = ring.mul_t[ring.inv_t[M[r, c]], M[r]]
        nz = np.nonzero(M[:, c] != ring.zero)[0]
        for rr in nz:
            if rr != r:
                M[rr] = ring.add_t[M[rr], ring.neg_t[ring.mul_t[M[rr, c], M[r]]]]
        pivots.append(c)
        r += 1
    return M, pivots


def nullspace(ring: FiniteRing, A: np.ndarray) -> np.ndarray:
    """Basis of {v : A v = 0} over a field, shape (k, cols)."""
    R, pivots = rref(ring, A)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.full((len(free), cols), ring.zero, dtype=ring.dtype)
    for bi, fc in enumerate(free):
        basis[bi, fc] = ring.one
        for r, pc in enumerate(pivots):
            basis[bi, pc] = ring.neg_t[R[r, fc]]
    return basis


def span_elements(ring: FiniteRing, basis: np.ndarray) -> np.ndarray:
    """All ring-linear combinations of the basis vectors, shape (q^k, cols)."""
    check_budget("span elements", (ring.size ** basis.shape[0], basis.shape[1]), ring.dtype)
    combos = np.full((1, basis.shape[1]), ring.zero, dtype=ring.dtype)
    for b in basis:
        terms = ring.mul_t[np.arange(ring.size, dtype=ring.dtype)[:, None], b[None, :]]
        combos = ring.add_t[combos[:, None, :], terms[None, :, :]].reshape(-1, basis.shape[1])
    return combos


class MatSet:
    """A set of distinct d x d matrices, numbered in order of first insertion.

    The key of a matrix is its entries in big-endian byte order, viewed as
    one fixed-width ``np.void`` (or, when 1, 2, 4 or 8 bytes wide, as one
    unsigned integer): keys compare as byte strings, so sorted keys follow
    the lexicographic order of the entries for every code dtype.  This
    class is the only place that builds such a key.  Lookups are batched:
    sort and ``searchsorted`` over the sorted keys."""

    def __init__(self, mats: np.ndarray):
        mats = np.asarray(mats)
        self.dtype = mats.dtype
        self.shape = mats.shape[-2:]
        self._keys, first = np.unique(self.keys(mats.reshape(-1, *self.shape)), return_index=True)
        self._num = np.empty(len(first), dtype=np.int64)  # number of each sorted key
        self._num[np.argsort(first)] = np.arange(len(first))

    def __len__(self) -> int:
        return len(self._keys)

    @staticmethod
    def keys(mats: np.ndarray) -> np.ndarray:
        """One key per matrix, shape mats.shape[:-2]."""
        mats = np.asarray(mats)
        be = mats.dtype.newbyteorder(">")
        w = mats.shape[-1] * mats.shape[-2]
        flat = np.ascontiguousarray(mats.reshape(-1, w), dtype=be)
        width = w * be.itemsize
        if width in (1, 2, 4, 8):
            # the same bytes read as one big-endian integer, held natively:
            # ordered alike, and sorted and searched faster than np.void
            return flat.view(f">u{width}").astype(f"u{width}").reshape(mats.shape[:-2])
        return flat.view(f"V{width}").reshape(mats.shape[:-2])

    @staticmethod
    def unique(mats: np.ndarray) -> np.ndarray:
        """The distinct matrices of a stack, each at its first occurrence, in order."""
        _, first = np.unique(MatSet.keys(mats), return_index=True)
        return mats[np.sort(first)]

    def _find(self, keys: np.ndarray):
        """Sorted positions of the keys, and which of them are present."""
        if not len(self._keys):
            return np.zeros(keys.shape, dtype=np.intp), np.zeros(keys.shape, dtype=bool)
        pos = np.minimum(self._keys.searchsorted(keys), len(self._keys) - 1)
        return pos, self._keys[pos] == keys

    def contains(self, mats) -> np.ndarray:
        """Membership of each matrix of a stack, shape mats.shape[:-2]."""
        return self._find(self.keys(np.asarray(mats, dtype=self.dtype)))[1]

    def index(self, mats):
        """Number of each matrix of a stack, or of a single matrix; raises
        KeyError when any is not in the set."""
        pos, hit = self._find(self.keys(np.asarray(mats, dtype=self.dtype)))
        if not hit.all():
            raise KeyError("matrix is not in the set")
        return self._num[pos]

    def add(self, mats: np.ndarray) -> np.ndarray:
        """Insert the matrices of a stack that are not yet in the set, each
        once, numbered in order of first occurrence.  Returns the positions
        in `mats` of the inserted ones, ascending."""
        keys = self.keys(np.asarray(mats, dtype=self.dtype).reshape(-1, *self.shape))
        uniq, first = np.unique(keys, return_index=True)
        fresh = ~self._find(uniq)[1]
        uniq, first = uniq[fresh], first[fresh]
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(self), len(self) + len(first))
        at = self._keys.searchsorted(uniq)
        self._keys = np.insert(self._keys, at, uniq)
        self._num = np.insert(self._num, at, rank)
        return np.sort(first)

    def sorted(self) -> np.ndarray:
        """The matrices of the set in key order, i.e. lexicographic entry order."""
        be = self.dtype.newbyteorder(">")
        keys = self._keys.astype(self._keys.dtype.newbyteorder(">"))
        return keys.view(be).reshape(-1, *self.shape).astype(self.dtype)
