"""Batched matrix arithmetic over table-backed finite rings, and matrix sets.

Matrices are numpy arrays of ring codes with shape (..., d, d); all leading
axes broadcast.  `mat_mul` multiplies through one integer lift whenever the
ring's arithmetic is integer arithmetic.  A lift is (enc, modulus, dec,
work_dtype, float_dtype, float_enc, enc_bytes, dec_bytes), built once per
ring and inner dimension d and kept on the ring: the product is
``enc[A] @ enc[B]``, reduced
``mod modulus`` and gathered through ``dec`` back into codes.  Three cases:

* residues: GF(p) and Z/n need no enc or dec; the modulus is n;
* Kronecker: GF(p^f) writes the code with base-p digits c_i as sum c_i B^i,
  with B the least power of 2 above d f (p-1)^2, so no coefficient of the
  polynomial product carries; dec, of B^(2f-1) entries, reads the digits of
  the sum back, mod p and mod the defining polynomial;
* CRT: a product of residue rings with pairwise-coprime orders is Z/prod n,
  so F7xF11 becomes Z/77; enc and dec map codes to residues and back.

Every partial sum of a product lies in [0, d max(enc)^2], the lift's bound.
An outer product ``mat_mul(ring, A[:, None], B[None])`` of m, n >= 2
matrices is one block, A stacked as rows by B side by side, returned as the
(m, n, d, d) view of its tiles; no other module knows this layout.  A block
of products, two 2-D operands whose product holds more than one d x d
matrix, is one floating-point BLAS GEMM, exact because every partial sum is
an integer the float type represents (Dumas, Giorgi and Pernet, FFLAS and
FFPACK, ACM TOMS 2008): float32 while the bound is below 2^24, float64 while
it is below 2^53, and the integer product past that.  Single products and
stacks multiply in work_dtype, the narrowest of uint8, int16, int32 and
int64 that holds the bound: a single product gains nothing from BLAS but its
call overhead, and a float32 stacked matmul measured slower than an integer
one.  A block's float product is cast to work_dtype and reduced there.  In
uint8 (a bound of at most 255, as for SL3(F5), Sp4(F3), G2adj(F2) and the F4
lift at d = 3) nothing is widened to reduce and narrowed again.  A product
of at least REDUCE_BY_DIVISION entries (a block, a stack or one large
matrix) reduces mod n as C - C // n * n, which numpy divides with a multiply
and shift; smaller ones take one ``%=`` pass, cheaper there (the two cross
between 640 and 1024 uint8 or int16 entries).  An enc or dec lookup whose
indices and entries are all below 256 (F7xF11; F4 at d = 3) is a chunked
`bytes.translate` (`_gather`).  Other rings (TableRing, products such as
F3xF4) and rings whose Kronecker reduce table would not fit one block
(`fits_block`) go through the ring's lookup tables, one gather per inner
index; that loop, `_mat_mul_tables`, is also the oracle the lifts are tested
against.

`MatSet` is the one way to key, deduplicate and look up matrices.  A key
reads the entries as the base-|R| digits of one integer, first entry most
significant, computed by Horner's rule in place, so it reads any strided
(..., d, d) view without copying it.
`check_budget` is the one size policy: every step that builds a large array
asks it first.  This module alone knows how big a block may be, BUDGET_BYTES
/ 32 read at call time: `fits_block` decides whether a lookup table (a
reduce table, a position array, a group's multiplication table) is built,
and `block_rows` sizes the blocks of every loop, the formula evaluator's
rows per step among them.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .rings import GF, FiniteRing, ProductRing, Zmod

BUDGET_BYTES = 1 << 28  # the largest array one step may build: 256 MiB
REDUCE_BY_DIVISION = 1024  # entries from which a product reduces as C - C // n * n


class BudgetExceeded(ValueError):
    """A step would build an array larger than BUDGET_BYTES."""


def _nbytes(shape, dtype) -> int:
    return math.prod(int(n) for n in shape) * np.dtype(dtype).itemsize


def check_budget(step: str, shape, dtype) -> None:
    """Raise BudgetExceeded, before anything is allocated, when an array of
    this shape and dtype would exceed BUDGET_BYTES."""
    nbytes = _nbytes(shape, dtype)
    if nbytes > BUDGET_BYTES:
        raise BudgetExceeded(f"{step}: {nbytes:,} bytes exceeds the budget of {BUDGET_BYTES:,} bytes")


def _per_block(shape, dtype) -> int:
    """How many arrays of this shape and dtype one block holds.  A block,
    one lookup table or the largest product of one step of a loop, holds
    BUDGET_BYTES / 32 bytes, read at call time."""
    return (BUDGET_BYTES >> 5) // _nbytes(shape, dtype)


def fits_block(shape, dtype) -> bool:
    """Whether an array of this shape and dtype fits one block: the rule
    for whether a lookup table is built at all."""
    return _per_block(shape, dtype) > 0


class Lift(NamedTuple):
    enc: np.ndarray | None  # code -> integer, in work_dtype; None: the code itself
    modulus: int | None  # reduce the integer product mod this; None: no reduction
    dec: np.ndarray | None  # reduced product -> code; None: the residue is the code
    work_dtype: type  # uint8, int16, int32 or int64: the integer dtype of products and their reduction
    float_dtype: type | None  # the BLAS dtype of blocks of products; None: the integer product
    float_enc: np.ndarray | None  # enc in float_dtype; None: the code itself
    enc_bytes: bytes | None  # enc as a `bytes.translate` table; None: enc is gathered
    dec_bytes: bytes | None  # dec as a `bytes.translate` table; None: dec is gathered


def _byte_table(table: np.ndarray) -> bytes:
    """The first 256 entries of a table of codes below 256 as the 256-byte
    table of `bytes.translate`, zero past the table's end."""
    out = np.zeros(256, dtype=np.uint8)
    out[:len(table)] = table[:256]
    return out.tobytes()


def _make_lift(enc, modulus, dec, bound: int) -> Lift | None:
    """The lift whose products have every partial sum in [0, bound], or None
    when no integer dtype holds the bound."""
    work = next((dt for dt in (np.uint8, np.int16, np.int32, np.int64) if bound <= np.iinfo(dt).max), None)
    if work is None:
        return None
    # a float type holds every integer up to 2^(nmant + 1) exactly
    flt = next((dt for dt in (np.float32, np.float64) if bound < 1 << (np.finfo(dt).nmant + 1)), None)
    enc_bytes = None if enc is None or len(enc) > 256 or enc.max() > 255 else _byte_table(enc)
    # dec is bytes when every reduced product is below 256; its entries are
    # then codes below 256 (a CRT modulus is the ring's order, and a
    # Kronecker bound is at least (q - 1)^2)
    small = bound <= 255 if modulus is None else modulus <= 256
    dec_bytes = _byte_table(dec) if dec is not None and small else None
    return Lift(None if enc is None else enc.astype(work), modulus, dec, work,
                flt, None if enc is None or flt is None else enc.astype(flt), enc_bytes, dec_bytes)


def _residue_modulus(ring) -> int | None:
    if isinstance(ring, GF) and ring.deg == 1:
        return ring.size
    if isinstance(ring, Zmod):
        return ring.size
    return None


def _kronecker_lift(ring: GF, d: int) -> Lift | None:
    p, f = ring.p, ring.deg
    B = 1 << (d * f * (p - 1) ** 2).bit_length()
    if not fits_block((B ** (2 * f - 1),), ring.dtype):
        return None  # a reduce table past one block: the table loop
    codes = np.arange(ring.size)
    enc = sum((codes // p**i % p) * B**i for i in range(f))
    # dec[v] = sum_k (v_k mod p) X^k for the base-B digits v_k of v, summed in
    # the field one digit at a time, the most significant digit last
    digits = np.arange(B) % p
    dec = digits.astype(ring.dtype)
    xk = ring.one
    for _ in range(1, 2 * f - 1):
        xk = ring.mul(xk, p)  # code p is X
        dec = ring.add_t[ring.mul_t[digits, xk][:, None], dec[None, :]].ravel()
    return _make_lift(enc, None, dec, d * int(enc.max()) ** 2)


def _crt_lift(ring: ProductRing, d: int) -> Lift | None:
    mods = [_residue_modulus(f) for f in ring.factors]
    if None in mods or math.lcm(*mods) != math.prod(mods):
        return None
    M = math.prod(mods)
    # residue r with r = c_i mod n_i for the factor codes c_i of each code
    enc = np.zeros(ring.size, dtype=np.int64)
    for n, c in zip(mods, ring.decode_array(np.arange(ring.size))):
        e = M // n * pow(M // n, -1, n)  # 1 mod n, 0 mod the other factors
        enc = (enc + c * e) % M
    dec = np.empty(M, dtype=ring.dtype)
    dec[enc] = np.arange(ring.size)
    return _make_lift(enc, M, dec, d * (M - 1) ** 2)


def _lift(ring: FiniteRing, d: int) -> Lift | None:
    """The integer lift of `ring` for inner dimension d, or None when its
    products go through the tables; built once and cached on the ring."""
    lifts = ring.__dict__.setdefault("_lifts", {})
    if d not in lifts:
        n = _residue_modulus(ring)
        if n is not None:
            lifts[d] = _make_lift(None, n, None, d * (n - 1) ** 2)
        elif isinstance(ring, GF):
            lifts[d] = _kronecker_lift(ring, d)
        elif isinstance(ring, ProductRing):
            lifts[d] = _crt_lift(ring, d)
        else:
            lifts[d] = None
    return lifts[d]


def mat_mul(ring: FiniteRing, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if A.ndim == B.ndim == 4 and A.shape[1] == B.shape[0] == 1 and A.shape[0] > 1 and B.shape[1] > 1:
        # one block, A stacked as rows by B side by side, whose tile (i, j) is A[i] B[j]
        (m, _, p, k), (_, n, _, q) = A.shape, B.shape
        C = _mat_mul(ring, A.reshape(m * p, k), B[0].transpose(1, 0, 2).reshape(k, n * q))
        return C.reshape(m, p, n, q).transpose(0, 2, 1, 3)
    return _mat_mul(ring, A, B)


def _mat_mul(ring: FiniteRing, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    d = A.shape[-1]
    lift = _lift(ring, d)
    if lift is None:
        return _mat_mul_tables(ring, A, B)
    enc, modulus, dec, work, flt, fenc, enc_bytes, dec_bytes = lift
    if enc_bytes is not None and not A.dtype == B.dtype == np.uint8:
        enc_bytes = None  # codes wider than bytes: enc is gathered
    if flt is not None and A.ndim == B.ndim == 2 and A.shape[0] * B.shape[1] > d * d:
        # a block of products, stacked or side by side: one GEMM
        if fenc is None:
            C = A.astype(flt) @ B.astype(flt)
        else:
            C = _gather(fenc, enc_bytes, A) @ _gather(fenc, enc_bytes, B)
        C = C.astype(work)
    elif enc is None:
        # exact in work_dtype, uint8 included: no partial sum passes the bound
        C = A.astype(work, copy=False) @ B.astype(work, copy=False)
    else:
        C = _gather(enc, enc_bytes, A) @ _gather(enc, enc_bytes, B)
    if modulus is not None:
        if C.size >= REDUCE_BY_DIVISION:
            # C >= 0; numpy divides by a scalar with a multiply and shift,
            # where % divides entry by entry; one temporary, q
            q = C // modulus
            q *= modulus
            C -= q
        else:
            C %= modulus  # one pass: cheaper on single products and small stacks
    return C.astype(ring.dtype, copy=False) if dec is None else _gather(dec, dec_bytes, C)


def _gather(table: np.ndarray, table_bytes: bytes | None, idx: np.ndarray) -> np.ndarray:
    """table[idx].  table_bytes is given only when every index is below
    256; then 256 or more indices are translated 2^16 at a time, straight
    into the result, so no full-size byte or intp temporary exists.  Fewer
    indices, where it is as fast, take a fancy-index gather."""
    if table_bytes is None or idx.size < 256:
        return table[idx]
    out = np.empty(idx.shape, dtype=table.dtype)
    dst = out.reshape(-1)
    src = idx.reshape(-1) if idx.flags.c_contiguous else idx.flat
    step = 1 << 16
    for lo in range(0, dst.size, step):
        chunk = src[lo:lo + step].astype(np.uint8, copy=False).tobytes()
        dst[lo:lo + step] = np.frombuffer(chunk.translate(table_bytes), dtype=np.uint8)
    return out


def _mat_mul_tables(ring: FiniteRing, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The product through the ring's add and mul tables, one gather per
    inner index: the path of rings without a lift, and the lifts' oracle."""
    k = A.shape[-1]
    if B.shape[-2] != k:
        raise ValueError(f"inner dimensions differ: {k} and {B.shape[-2]}")
    C = None
    for t in range(k):
        term = ring.mul_t[A[..., :, t, None], B[..., None, t, :]]
        C = term if C is None else ring.add_t[C, term]
    return C


def block_rows(ring: FiniteRing, d: int, per_row: int) -> int:
    """Rows per block of a loop whose rows each make per_row d x d products:
    one block's product, in the dtype `mat_mul` computes a block of products
    in (float32 for every lift a suite uses), fits one block (2^21 float32
    entries); at least one row."""
    lift = _lift(ring, d)
    dtype = ring.dtype if lift is None else lift.float_dtype or lift.work_dtype
    return max(1, _per_block((per_row, d, d), dtype))


def mat_mul_many(ring, mats) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = mat_mul(ring, out, m)
    return out


def identity(ring: FiniteRing, d: int) -> np.ndarray:
    return scalar_mat(ring, d, ring.one)


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
        if sum(perm[i] > perm[j] for i, j in itertools.combinations(range(d), 2)) % 2:  # odd permutation
            term = ring.neg_t[term]
        det = term if det is None else ring.add_t[det, term]
    return det


def mat_inv(ring: FiniteRing, A: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a (..., d, d) stack over a field: the right
    half of rref([A | 1]), which has a pivot outside the first d columns
    exactly when A is singular; ZeroDivisionError if any one is."""
    A = np.asarray(A)
    d = A.shape[-1]
    one = identity(ring, d)
    out = np.empty(A.shape, dtype=ring.dtype)
    for i in np.ndindex(A.shape[:-2]):
        R, pivots = rref(ring, np.concatenate([A[i], one], axis=1))
        if pivots[-1] >= d:
            raise ZeroDivisionError("matrix is singular")
        out[i] = R[:, d:]
    return out


def rref(ring: FiniteRing, A: np.ndarray):
    """Reduced row echelon form over a field; returns (R, pivot column list)."""
    if not ring.is_field:
        raise ValueError(f"row reduction needs a field, not {ring.name}")
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
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    # basis vector k: 1 at free column free[k], -R[r, free[k]] at pivot column r
    basis = np.full((len(free), cols), ring.zero, dtype=ring.dtype)
    basis[np.arange(len(free)), free] = ring.one
    basis[:, pivots] = ring.neg_t[R[:len(pivots), free]].T
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
    """A set of distinct d x d matrices over a ring, numbered in order of
    first occurrence, or in key order when made from sorted keys.

    The key of a matrix reads its entries c_0, ..., c_{w-1} (w = d^2, row by
    row) as base-|R| digits, first entry most significant:
    sum c_i |R|^(w-1-i), a ``u32`` when |R|^w <= 2^32 and a ``u64`` when
    |R|^w <= 2^64.  Past that the key is the entries' big-endian bytes as one
    fixed-width ``np.void``, compared as a byte string.  Either way sorted
    keys follow the lexicographic order of the entries, and the layout
    depends only on the ring and the shape, so sets built from any
    matrices key every code alike.  This class is the only place that
    builds such a key: a C-contiguous stack in one einsum against the
    weights |R|^(w-1-i), one call for the single matrices and small stacks
    of the formula evaluator, and any other view by Horner's rule in place,
    one entry at a time, which copies nothing (the BFS keys each block's
    product as a transposed view).  Deduplication is one unstable argsort
    of the keys (`_first_unique`), lookups one ``searchsorted`` of the
    sorted queries over the sorted keys.  A set made from sorted keys
    (every group's index) whose key space, |R|^(h w) positions, fits one
    block (`fits_block`) answers lookups from a position array over that
    space instead, built on its first lookup: entry k is
    the number of key k, or -1 off the set.
    The matrices a set is fed come from `mat_mul`, which multiplies blocks
    of products in float32 or float64 BLAS, exactly by the bound in the
    module docstring, so a BFS block and a single product of the same
    matrices give the same codes and the same keys."""

    def __init__(self, ring: FiniteRing, mats: np.ndarray):
        mats = np.asarray(mats)
        self.ring = ring
        self.shape = mats.shape[-2:]
        keys = self.keys(ring, mats.reshape(-1, *self.shape))
        self._keys, first = _first_unique(keys)
        self._pos = None  # numbered by first occurrence: lookups search the sorted keys
        if len(first) == len(keys):
            self._num = first  # no key repeats: each first position is its own rank
        else:
            self._num = np.empty(len(first), dtype=np.int64)
            self._num[np.argsort(first)] = np.arange(len(first))

    @classmethod
    def from_sorted_keys(cls, ring: FiniteRing, shape, keys: np.ndarray) -> MatSet:
        """The set of the matrices of this shape with these keys, which are
        sorted and distinct, numbered in key order; it keys nothing."""
        out = cls.__new__(cls)
        out.ring, out.shape, out._keys = ring, tuple(shape), keys
        out._num = None  # a key's number is its sorted position
        out._pos = None  # the position array, once a lookup asks for it
        return out

    def __len__(self) -> int:
        return len(self._keys)

    @staticmethod
    def keys(ring: FiniteRing, mats: np.ndarray) -> np.ndarray:
        """One key per matrix, shape mats.shape[:-2]."""
        mats = np.asarray(mats)
        h, w = mats.shape[-2:]
        weights = _key_weights(ring.size, h * w)
        if weights is None:
            be = np.dtype(ring.dtype).newbyteorder(">")
            flat = np.ascontiguousarray(mats.reshape(-1, h * w), dtype=be)
            return flat.view(f"V{h * w * be.itemsize}").reshape(mats.shape[:-2])
        if mats.flags.c_contiguous:
            # einsum casts the codes in buffered blocks; matmul would first
            # copy the whole stack into the key dtype
            keys = np.einsum("ij,j->i", mats.reshape(-1, h * w), weights, dtype=weights.dtype, casting="unsafe")
            return keys.reshape(mats.shape[:-2])
        keys = mats[..., 0, 0].astype(weights.dtype)
        for k in range(1, h * w):
            keys *= ring.size
            np.add(keys, mats[..., k // w, k % w], out=keys, casting="unsafe")
        return keys

    @staticmethod
    def unique(ring: FiniteRing, mats: np.ndarray) -> np.ndarray:
        """The distinct matrices of a stack, each at its first occurrence, in order."""
        _, first = _first_unique(MatSet.keys(ring, mats))
        return mats[np.sort(first)]

    def _positions(self) -> np.ndarray | None:
        """The position array of a set made from sorted keys whose key space
        fits one block, built on first use; else None."""
        if self._num is not None or self._pos is not None:
            return self._pos
        space = self.ring.size ** (self.shape[0] * self.shape[1])
        dtype = np.int16 if len(self._keys) <= np.iinfo(np.int16).max else np.int32
        if fits_block((space,), dtype):  # then keys are u32
            self._pos = np.full(space, -1, dtype=dtype)
            self._pos[self._keys] = np.arange(len(self._keys), dtype=dtype)
        return self._pos

    def _find(self, mats: np.ndarray):
        """Sorted positions of the matrices, and which of them are present."""
        mats = np.asarray(mats)
        if not len(self._keys) or mats.shape[-2:] != self.shape:  # keys of another shape mean other matrices
            return np.zeros(mats.shape[:-2], dtype=np.intp), np.zeros(mats.shape[:-2], dtype=bool)
        keys = self.keys(self.ring, mats)
        table = self._positions()
        if table is not None:
            pos = table[keys]
            return pos, pos >= 0
        # sorted queries walk the sorted keys in one direction, which a
        # large batch of random queries would not; positions are scattered back
        flat = keys.reshape(-1)
        perm = np.argsort(flat)
        pos = np.empty(len(flat), dtype=np.intp)
        pos[perm] = self._keys.searchsorted(flat[perm])
        del perm
        np.minimum(pos, len(self._keys) - 1, out=pos)
        pos = pos.reshape(keys.shape)
        return pos, self._keys[pos] == keys

    def contains(self, mats) -> np.ndarray:
        """Membership of each matrix of a stack, shape mats.shape[:-2]."""
        return self._find(mats)[1]

    def index(self, mats):
        """Number of each matrix of a stack, or of a single matrix; raises
        KeyError when any is not in the set."""
        pos, hit = self._find(mats)
        if not hit.all():
            raise KeyError("matrix is not in the set")
        return pos if self._num is None else self._num[pos]


def _first_unique(keys: np.ndarray):
    """np.unique(keys, return_index=True) through one unstable argsort: the
    sorted distinct keys, and the first position of each, the least of its
    run of equal keys in whatever order the sort leaves that run."""
    perm = np.argsort(keys)
    srt = keys[perm]
    starts = np.ones(len(srt), dtype=bool)
    starts[1:] = srt[1:] != srt[:-1]
    if starts.all():  # no key repeats
        return srt, perm
    starts = np.flatnonzero(starts)
    return srt[starts], np.minimum.reduceat(perm, starts)


@lru_cache(maxsize=None)
def _key_weights(q: int, w: int) -> np.ndarray | None:
    """q^(w-1-i) for entry i of a key with w base-q digits: u32 weights when
    q^w <= 2^32, u64 when q^w <= 2^64, None past that."""
    if q**w > 1 << 64:
        return None
    dtype = np.uint32 if q**w <= 1 << 32 else np.uint64
    weights = np.array([q ** (w - 1 - i) for i in range(w)], dtype=dtype)
    weights.flags.writeable = False
    return weights
