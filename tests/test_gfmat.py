import ast
import builtins
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chevalley import chevgroup, gfmat
from chevalley.adelic import SL2Group
from chevalley.chevgroup import classical_rep, enumerate_group
from chevalley.gfmat import BudgetExceeded, MatSet, span_elements
from chevalley.rings import GF, ProductRing, Zmod

from oracles import SeenKeys, bfs_closure, nullspace_loop, sorted_matrices

SRC = Path(__file__).resolve().parent.parent / "src" / "chevalley"

RINGS = {
    "F4": GF(4),
    "F5": GF(5),
    "Z/6": Zmod(6),
    "F7xF11": ProductRing([GF(7), GF(11)]),
    "F7xF11xF13": ProductRing([GF(7), GF(11), GF(13)]),  # uint16 codes
}


def _oracle_key(m) -> bytes:
    return np.ascontiguousarray(m).tobytes()


@settings(deadline=None, max_examples=40)
@given(name=st.sampled_from(sorted(RINGS)), d=st.integers(1, 3),
       n=st.integers(1, 60), seed=st.integers(0, 2**31 - 1))
def test_matset_against_bytes_oracle(name, d, n, seed):
    ring = RINGS[name]
    rng = np.random.default_rng(seed)
    # few distinct codes per entry, so batches repeat matrices
    codes = rng.choice(ring.size, size=min(3, ring.size), replace=False)
    mats = codes[rng.integers(len(codes), size=(n, d, d))].astype(ring.dtype)
    assert mats.dtype == ring.dtype

    # oracle: first occurrences in order, numbered by first occurrence
    first, number = [], {}
    for i, m in enumerate(mats):
        if _oracle_key(m) not in number:
            number[_oracle_key(m)] = len(first)
            first.append(i)

    uniq = MatSet.unique(ring, mats)
    assert np.array_equal(uniq, mats[first])

    s = MatSet(ring, mats)
    assert len(s) == len(first)
    got = s.index(mats)
    assert got.shape == (n,)
    assert got.tolist() == [number[_oracle_key(m)] for m in mats]
    assert s.index(mats[first[-1]]) == len(first) - 1
    assert s.contains(mats).all()

    # matrices outside the batch: contains is False and index raises
    other = codes[rng.integers(len(codes), size=(20, d, d))].astype(ring.dtype)
    other[:, 0, 0] = np.setdiff1d(np.arange(ring.size), codes)[0]
    assert not s.contains(other).any()
    with pytest.raises(KeyError):
        s.index(other[0])
    with pytest.raises(KeyError):
        s.index(np.concatenate([mats[:1], other[:1]]))

    # the sorted keys seen so far, the BFS oracle's record, report each
    # matrix not met before at its first occurrence, once
    both = np.concatenate([other, mats, other])
    want = [i for i, m in enumerate(both) if _oracle_key(m) not in number
            and all(_oracle_key(both[j]) != _oracle_key(m) for j in range(i))]
    seen = SeenKeys(ring, d)
    assert seen.fresh(MatSet.keys(ring, mats)).tolist() == first
    assert seen.fresh(MatSet.keys(ring, both)).tolist() == want
    assert seen.fresh(MatSet.keys(ring, both)).tolist() == []
    s = MatSet(ring, np.concatenate([mats, both]))
    assert s.index(both[want]).tolist() == list(range(len(first), len(first) + len(want)))

    # sorted keys follow lexicographic entry order
    entries = sorted({tuple(int(v) for v in m.ravel()) for m in both})
    srt = sorted_matrices(s)
    assert srt.dtype == ring.dtype
    assert [tuple(int(v) for v in m.ravel()) for m in srt] == entries
    assert np.array_equal(np.argsort(MatSet.keys(ring, srt), kind="stable"), np.arange(len(srt)))


def test_matset_keys_uint16_are_big_endian():
    ring = RINGS["F7xF11xF13"]
    a = np.array([[1, 0], [0, 0]], dtype=ring.dtype)
    b = np.array([[256, 0], [0, 0]], dtype=ring.dtype)
    # little-endian bytes would put b = (256, ...) before a = (1, ...)
    assert np.argsort(MatSet.keys(ring, np.stack([b, a]))).tolist() == [1, 0]
    assert np.array_equal(sorted_matrices(MatSet(ring, np.stack([b, a]))), np.stack([a, b]))


KERNEL_RINGS = {
    "F2": lambda: GF(2),
    "F4": lambda: GF(4),
    "F8": lambda: GF(8),
    "F9": lambda: GF(9),
    "Z/6": lambda: Zmod(6),
    "Z/9": lambda: Zmod(9),  # d 8^2 is 192 at d = 3, the last uint8 bound, and 256 at d = 4
    "F3xF4": lambda: ProductRing([GF(3), GF(4)]),  # no lift: the table loop
    "F7xF11": lambda: ProductRing([GF(7), GF(11)]),
    "F7xF11xF13": lambda: ProductRing([GF(7), GF(11), GF(13)]),
    "Z/2048": lambda: Zmod(2048),  # d 2047^2 passes 2^24 from d = 5 on
}


@pytest.mark.parametrize("name", sorted(KERNEL_RINGS))
def test_mat_mul_lift_agrees_with_the_table_loop(name):
    ring = KERNEL_RINGS[name]()  # fresh, so its cached lifts go with it
    rng = np.random.default_rng(sorted(KERNEL_RINGS).index(name))
    for d in range(1, 8):
        A = rng.integers(ring.size, size=(30, d, d)).astype(ring.dtype)
        B = rng.integers(ring.size, size=(30, d, d)).astype(ring.dtype)
        # the largest code has the largest lift, so A[0] B[0] reaches the
        # bound d max(enc)^2 that work_dtype is chosen to hold
        A[0] = B[0] = ring.size - 1
        got = gfmat.mat_mul(ring, A, B)
        assert got.dtype == ring.dtype
        assert np.array_equal(got, gfmat._mat_mul_tables(ring, A, B)), d
        # outer products A[:m, None] @ B[None, :n], as the BFS, the group
        # enumeration and product_set use them: from m, n = 2 one block, A
        # stacked as rows by B side by side, whose tile (i, j) is A[i] B[j];
        # at m = 1 or n = 1 a stack
        A2, B2 = A.reshape(-1, d), B.transpose(1, 0, 2).reshape(d, -1)
        for m, n in ((5, 4), (1, 4), (5, 1), (1, 1)):
            got = gfmat.mat_mul(ring, A[:m, None], B[None, :n])
            assert got.shape == (m, n, d, d) and got.dtype == ring.dtype
            assert np.array_equal(got, gfmat._mat_mul_tables(ring, A[:m, None], B[None, :n])), (d, m, n)
            block = gfmat.mat_mul(ring, A2[:m * d], B2[:, :n * d])
            for i, j in np.ndindex(m, n):
                assert np.array_equal(got[i, j], block[i * d:(i + 1) * d, j * d:(j + 1) * d]), (d, m, n)
        lift = gfmat._lift(ring, d)
        # F8 past d = 5 has a Kronecker reduce table of 32^5 codes, past 8 MiB
        assert (lift is None) == (name == "F3xF4" or (name == "F8" and d > 5)), d
        assert ring.__dict__["_lifts"][d] is lift  # cached on the ring
        if lift is not None:
            top = ring.size - 1 if lift.enc is None else int(lift.enc.max())
            assert lift.float_dtype == (np.float32 if d * top**2 < 2**24 else np.float64), d
            bound = d * top**2
            assert lift.work_dtype == next(dt for dt in (np.uint8, np.int16, np.int32, np.int64)
                                           if bound <= np.iinfo(dt).max), d
        # a block of products as one BLAS product: stacked rows times
        # matrices side by side; and a single product of 2-D operands, which
        # stays on the integer path
        for X, Y in ((A2, B2), (A[0], B[0])):
            got = gfmat.mat_mul(ring, X, Y)
            assert got.dtype == ring.dtype
            assert np.array_equal(got, gfmat._mat_mul_tables(ring, X, Y)), d


def _recording_gathers(monkeypatch):
    """Patch gfmat._gather to record, per call, whether it translated: a
    bytes table and at least 256 indices."""
    translated = []
    gather = gfmat._gather

    def recording(table, table_bytes, idx):
        translated.append(table_bytes is not None and idx.size >= 256)
        return gather(table, table_bytes, idx)

    monkeypatch.setattr(gfmat, "_gather", recording)
    return translated


@pytest.mark.parametrize("name, d, enc_bytes, dec_bytes", [
    ("F4", 3, True, True),  # Kronecker, bound 243: enc and dec
    ("F7xF11", 2, True, True),  # CRT mod 77
    ("F9", 2, True, False),  # Kronecker, bound 8712: enc only
])
def test_translate_lookups_are_the_table_loop(name, d, enc_bytes, dec_bytes, monkeypatch):
    ring = KERNEL_RINGS[name]()
    lift = gfmat._lift(ring, d)
    assert (lift.enc_bytes is not None, lift.dec_bytes is not None) == (enc_bytes, dec_bytes)
    translated = _recording_gathers(monkeypatch)
    rng = np.random.default_rng(d)
    # stacks on both sides of 256 entries and straddling 2^16-entry chunks
    for n in (3, 256 // d**2 + 1, (1 << 16) // d**2 + 5, (1 << 17) // d**2 + 7):
        A = rng.integers(ring.size, size=(n, d, d)).astype(ring.dtype)
        B = rng.integers(ring.size, size=(n, d, d)).astype(ring.dtype)
        A[0] = B[0] = ring.size - 1  # the bound
        # stacks, their transposed views, and a block of products (the GEMM path)
        cases = [(A, B), (A.transpose(0, 2, 1), B), (A, B[::-1].transpose(0, 2, 1)),
                 (A.reshape(-1, d), B[0]), (A.reshape(-1, d)[:, ::-1], B[:2].transpose(1, 0, 2).reshape(d, -1))]
        for X, Y in cases:
            translated.clear()
            got = gfmat.mat_mul(ring, X, Y)
            assert got.dtype == ring.dtype
            assert np.array_equal(got, gfmat._mat_mul_tables(ring, X, Y)), (n, X.shape, Y.shape)
            big = X.size >= 256 or Y.size >= 256
            assert any(translated) == big, (n, X.shape, Y.shape)


@pytest.mark.parametrize("name, d", [("F7xF11xF13", 2), ("F8", 3), ("F9", 8)])
def test_wide_lifts_keep_the_gathers(name, d, monkeypatch):
    # a CRT modulus above 256 (1001), and Kronecker codes whose integers
    # pass 255 (1 + 16 + 256 for F8 at d = 3, 2 + 2 * 128 for F9 at d = 8)
    ring = KERNEL_RINGS[name]()
    lift = gfmat._lift(ring, d)
    assert lift.enc_bytes is None and lift.dec_bytes is None
    translated = _recording_gathers(monkeypatch)
    rng = np.random.default_rng(d)
    A = rng.integers(ring.size, size=(5000, d, d)).astype(ring.dtype)
    B = rng.integers(ring.size, size=(5000, d, d)).astype(ring.dtype)
    A[0] = B[0] = ring.size - 1
    for X, Y in ((A, B), (A.reshape(-1, d), B[0])):
        assert np.array_equal(gfmat.mat_mul(ring, X, Y), gfmat._mat_mul_tables(ring, X, Y))
    assert translated and not any(translated)


def test_kronecker_reduce_table_capped_by_the_block_rule():
    # GF(4) at inner dimension 196 would need a reduce table of 512^3 codes,
    # 128 MiB; past the block rule's 8 MiB its products take the table loop
    ring = GF(4)
    assert gfmat._lift(ring, 196) is None
    B = 64  # 64^3 codes at d = 16, the largest table a suite builds
    assert gfmat._lift(ring, 16).dec.size == B**3 and gfmat.fits_block((B**3,), ring.dtype)
    rng = np.random.default_rng(196)
    A = rng.integers(ring.size, size=(3, 196)).astype(ring.dtype)
    C = rng.integers(ring.size, size=(196, 2)).astype(ring.dtype)
    A[0] = C[:, 0] = ring.size - 1
    assert np.array_equal(gfmat.mat_mul(ring, A, C), gfmat._mat_mul_tables(ring, A, C))


@pytest.mark.parametrize("kind", ["u32", "u64", "void"])
@pytest.mark.parametrize("n", [500, 0, 1, 40, 30], ids=["random", "empty", "single", "all-equal", "all-distinct"])
def test_first_unique_is_np_unique(kind, n):
    rng = np.random.default_rng(n)
    if kind == "void":
        keys = rng.integers(3, size=(n, 5)).astype(np.uint8).view("V5").ravel()
    else:
        dtype = np.uint32 if kind == "u32" else np.uint64
        pool = rng.integers(np.iinfo(dtype).max, size=30, dtype=dtype)
        keys = pool[rng.integers(len(pool), size=n)]
    if n == 40:
        keys[:] = keys[0]
    if n == 30:
        keys = rng.permutation(np.unique(keys))
    uniq, first = gfmat._first_unique(keys)
    want_uniq, want_first = np.unique(keys, return_index=True)
    assert uniq.dtype == keys.dtype and np.array_equal(uniq, want_uniq)
    assert np.array_equal(first, want_first)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_nullspace_is_the_entrywise_loop(q):
    # wide, tall, zero and full-rank systems, some of rank below both sides
    ring = GF(q)
    rng = np.random.default_rng(q)
    shapes = [(1, 1), (3, 7), (7, 3), (5, 5), (4, 12), (12, 30), (30, 12)]
    for rows, cols in shapes:
        for rank in (0, 1, min(rows, cols) // 2, min(rows, cols)):
            A = gfmat.mat_mul(ring, rng.integers(q, size=(rows, rank)).astype(ring.dtype),
                              rng.integers(q, size=(rank, cols)).astype(ring.dtype)) \
                if rank else np.full((rows, cols), ring.zero, dtype=ring.dtype)
            got = gfmat.nullspace(ring, A)
            assert got.dtype == ring.dtype and np.array_equal(got, nullspace_loop(ring, A))
            assert (gfmat.mat_mul(ring, A, got.T) == ring.zero).all()


def test_nullspace_over_a_ring_that_is_not_a_field_raises():
    ring = Zmod(6)
    with pytest.raises(ValueError, match="needs a field"):
        gfmat.nullspace(ring, np.array([[2, 3, 0]], dtype=ring.dtype))


KEY_RINGS = {"F3": lambda: GF(3), "F5": lambda: GF(5), "F7xF11": lambda: ProductRing([GF(7), GF(11)])}
# (ring, w entries) at and just past the widths of the u32 and u64 keys:
# Z/2^bits at bits * w of 32, 33, 64 and 65, and rings that are not powers
# of 2 at the last w of each key dtype and the first w past it
KEY_WIDTHS = [pytest.param(f"Z/{2**bits}", total // bits if total % 32 == 0 else -(-total // bits),
                           id=f"{total}-{bits}") for bits in range(1, 9) for total in (32, 33, 64, 65)]
KEY_WIDTHS += [pytest.param(name, w, id=f"{name}-w{w}")
               for name, ws in (("F3", (20, 21, 40, 41)), ("F5", (13, 14, 27, 28)), ("F7xF11", (5, 6, 10, 11)))
               for w in ws]


@pytest.mark.parametrize("name,w", KEY_WIDTHS)
def test_packed_keys_follow_lexicographic_order(name, w):
    ring = KEY_RINGS[name]() if name in KEY_RINGS else Zmod(int(name[2:]))
    q = ring.size
    rng = np.random.default_rng(q * 100 + w)
    top = q - 1
    mats = rng.choice([0, 1, top, top - 1 if top > 1 else 0], size=(300, 1, w)).astype(ring.dtype)
    mats[:100] = rng.integers(q, size=(100, 1, w))
    keys = MatSet.keys(ring, mats)
    assert keys.dtype == (np.uint32 if q**w <= 2**32 else np.uint64 if q**w <= 2**64
                          else np.dtype(f"V{w * np.dtype(ring.dtype).itemsize}"))
    # a strided view is keyed by Horner's rule, a contiguous stack by einsum
    assert np.array_equal(MatSet.keys(ring, mats[::-1])[::-1], keys)
    rows = [tuple(int(v) for v in m.ravel()) for m in mats]
    assert [rows[i] for i in np.argsort(keys, kind="stable")] == sorted(rows)
    # the sorted keys unpack back into the matrices, in that order
    srt = sorted_matrices(MatSet(ring, mats))
    assert srt.dtype == ring.dtype and srt.shape[1:] == (1, w)
    assert [tuple(int(v) for v in m.ravel()) for m in srt] == sorted(set(rows))


def _widest_positions(q: int) -> int:
    """The largest w whose q^w int16 positions fit one block."""
    return max(w for w in range(1, 24) if gfmat.fits_block((q**w,), np.int16))


# the key cases above, none of whose key spaces fits a position array, and
# on the same rings the widths at and just past the widest that fits
POSITION_WIDTHS = KEY_WIDTHS + [
    pytest.param(name, w, id=f"{name}-w{w}")
    for name, q in (("Z/2", 2), ("Z/256", 256), ("F3", 3), ("F5", 5), ("F7xF11", 77))
    for w in (1, _widest_positions(q), _widest_positions(q) + 1)]


@pytest.mark.parametrize("name,w", POSITION_WIDTHS)
def test_position_lookup_is_the_sorted_search(name, w, monkeypatch):
    # a set made from sorted keys looks up from a position array over the
    # key space exactly when that fits the block rule; with the budget at 0
    # the same set searches its sorted keys: the same numbers, the same
    # membership, and KeyError off the set either way
    ring = KEY_RINGS[name]() if name in KEY_RINGS else Zmod(int(name[2:]))
    mats = np.random.default_rng(ring.size * 100 + w).integers(ring.size, size=(300, 1, w)).astype(ring.dtype)
    keys = MatSet.keys(ring, mats)
    uniq = gfmat._first_unique(keys)[0]
    members = uniq[::2]  # sorted and distinct; every other distinct key is off the set
    assert len(uniq) >= 2
    dense, sparse = (MatSet.from_sorted_keys(ring, (1, w), members) for _ in range(2))
    got = dense.contains(mats)
    assert (dense._pos is not None) == gfmat.fits_block((ring.size**w,), np.int16)
    monkeypatch.setattr(gfmat, "BUDGET_BYTES", 0)
    want = sparse.contains(mats)
    assert sparse._pos is None
    assert np.array_equal(got, want) and np.array_equal(want, np.isin(keys, members))
    assert np.array_equal(dense.index(mats[want]), sparse.index(mats[want]))
    assert np.array_equal(sparse.index(mats[want]), np.searchsorted(members, keys[want]))
    for s in (dense, sparse):
        with pytest.raises(KeyError):
            s.index(mats)
        with pytest.raises(KeyError):
            s.index(mats[np.flatnonzero(~want)[0]])
        assert not s.contains(np.zeros((3, 2, w), dtype=ring.dtype)).any()  # another shape


@pytest.mark.parametrize("name", sorted(RINGS))
def test_matset_from_the_identity_finds_every_later_code(name):
    # keys depend only on the ring and the shape: a set of the identity
    # alone, and the keys seen from the identity on, key later codes alike
    ring, d = RINGS[name], 2
    ident = gfmat.identity(ring, d)[None]
    rng = np.random.default_rng(7)
    mats = np.concatenate([
        np.broadcast_to(np.arange(ring.size, dtype=ring.dtype)[:, None, None], (ring.size, d, d)),
        rng.integers(ring.size, size=(200, d, d)).astype(ring.dtype),
    ])
    number = {}
    for m in np.concatenate([ident, mats]):
        number.setdefault(_oracle_key(m), len(number))
    assert MatSet(ring, ident).contains(mats).tolist() == [number[_oracle_key(m)] == 0 for m in mats]
    seen = SeenKeys(ring, d)
    seen.fresh(MatSet.keys(ring, ident))
    fresh = seen.fresh(MatSet.keys(ring, mats))
    assert [number[_oracle_key(m)] for m in mats[fresh]] == list(range(1, len(number)))
    s = MatSet(ring, np.concatenate([ident, mats]))
    assert len(s) == len(number)
    assert s.index(mats).tolist() == [number[_oracle_key(m)] for m in mats]


@pytest.mark.parametrize("q", [4, 5, 9], ids=["F4", "F5", "F9"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_mat_inv_inverts_exactly_the_nonsingular(q, d):
    # mat_inv succeeds exactly where the Leibniz determinant is nonzero,
    # and then A A^-1 = A^-1 A = 1
    ring = GF(q)
    rng = np.random.default_rng(q * 10 + d)
    mats = rng.integers(q, size=(40, d, d)).astype(ring.dtype)
    mats[0] = ring.zero  # singular for every d
    if d > 1:
        mats[1, 0] = mats[1, 1]  # two equal rows
    if d > 2:
        mats[2, :, -1] = ring.add_t[mats[2, :, 0], mats[2, :, 1]]  # a column sum
    ident = gfmat.identity(ring, d)
    det = gfmat.mat_det(ring, mats)
    invertible = 0
    for A, dt in zip(mats, det):
        if dt == ring.zero:
            with pytest.raises(ZeroDivisionError):
                gfmat.mat_inv(ring, A)
            continue
        B = gfmat.mat_inv(ring, A)
        assert (gfmat.mat_mul(ring, A, B) == ident).all()
        assert (gfmat.mat_mul(ring, B, A) == ident).all()
        invertible += 1
    assert invertible >= 20


@pytest.mark.parametrize("q", [2, 4, 5, 9], ids=["F2", "F4", "F5", "F9"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_mat_inv_of_a_stack_is_the_inverse_of_each(q, d):
    ring = GF(q)
    rng = np.random.default_rng(q * 10 + d)
    mats = rng.integers(q, size=(60, d, d)).astype(ring.dtype)
    ok = gfmat.mat_det(ring, mats) != ring.zero
    stack = mats[ok][:12].reshape(3, 4, d, d)
    got = gfmat.mat_inv(ring, stack)
    assert got.shape == stack.shape and got.dtype == ring.dtype
    for i in np.ndindex(3, 4):
        assert np.array_equal(got[i], gfmat.mat_inv(ring, stack[i]))
    singular = stack.copy()
    singular[2, 1] = mats[~ok][0] if (~ok).any() else ring.zero
    with pytest.raises(ZeroDivisionError):
        gfmat.mat_inv(ring, singular)


def test_no_matrix_keys_outside_gfmat():
    pattern = re.compile(r"tobytes|np\.void|\.view\(\s*f?[\"']V|\.view\(\s*\[")
    offenders = [f"{p.name}:{i}" for p in sorted(SRC.glob("*.py")) if p.name != "gfmat.py"
                 for i, line in enumerate(p.read_text().splitlines(), start=1)
                 if pattern.search(line)]
    assert offenders == []


def test_no_side_by_side_operands_outside_gfmat():
    """Only gfmat lays matrices side by side for a block product, or undoes
    that layout; every other module writes an outer product as
    mat_mul(ring, A[:, None], B[None])."""
    pattern = re.compile(r"transpose\(\s*1,\s*0,\s*2\s*\)|(swapaxes|moveaxis)\([^()]*\)\.reshape\("
                         r"|\.reshape\([^()]*\)\.(transpose|swapaxes)\(")
    offenders = [f"{p.name}:{i}" for p in sorted(SRC.glob("*.py")) if p.name != "gfmat.py"
                 for i, line in enumerate(p.read_text().splitlines(), start=1)
                 if pattern.search(line)]
    assert offenders == []


def test_one_size_budget_outside_gfmat():
    """No module but gfmat defines a *_CAP constant, takes a cap, budget or
    chunk parameter, or raises a size error other than BudgetExceeded."""
    size_words = re.compile(r"\b(cap|budget|exceed\w*|limit|too (large|big))\b", re.I)
    offenders = []
    for p in sorted(SRC.glob("*.py")):
        if p.name == "gfmat.py":
            continue
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id.endswith("_CAP"):
                offenders.append(f"{p.name}:{node.lineno} constant {node.id}")
            elif isinstance(node, ast.arg) and node.arg in ("cap", "budget", "chunk"):
                offenders.append(f"{p.name}:{node.lineno} parameter {node.arg}")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.exc)
                         if isinstance(n, (ast.Name, ast.Attribute))}
                text = " ".join(c.value for c in ast.walk(node.exc)
                                if isinstance(c, ast.Constant) and isinstance(c.value, str))
                if size_words.search(text) and "BudgetExceeded" not in names:
                    offenders.append(f"{p.name}:{node.lineno} size error")
    assert offenders == []


def _unreferenced_definitions(src: Path, bench: Path) -> list:
    """The functions, methods and classes defined in src that no code in src
    or bench names outside their own body, by a Name, an attribute or an
    identifier string (bench/spans.py looks its targets up with getattr);
    dunder methods, which Python calls by itself, are left out.  A bare
    Name of a builtin, such as sorted(...) or pow(...), calls the builtin,
    so it is no reference to a method of that name."""
    defined, referenced = {}, set()

    def scan(node, enclosing, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if path.parent == src and not (node.name.startswith("__") and node.name.endswith("__")):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            enclosing = enclosing | {node.name}
        name = (None if isinstance(node, ast.Name) and hasattr(builtins, node.id)
                else node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                else node.value if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.isidentifier() else None)
        if name is not None and name not in enclosing:
            referenced.add(name)
        for child in ast.iter_child_nodes(node):
            scan(child, enclosing, path)

    for path in sorted(src.glob("*.py")) + sorted(bench.glob("*.py")):
        scan(ast.parse(path.read_text()), frozenset(), path)
    return sorted(f"{where} {name}" for name, where in defined.items() if name not in referenced)


def test_every_definition_is_referenced():
    """Code that nothing in the program or the bench harness reaches is
    deleted, not kept for the tests alone."""
    assert _unreferenced_definitions(SRC, SRC.parent.parent / "bench") == []


@pytest.mark.parametrize("build", [
    lambda: ProductRing([GF(7), GF(11), GF(13), GF(17)]),  # two 17017^2 int64 tables
    lambda: GF(65521),
    lambda: SL2Group(GF(101)),  # the 101^4 grid
    lambda: span_elements(GF(5), np.eye(12, dtype=np.uint8)),  # 5^12 vectors
], ids=["F7xF11xF13xF17", "F65521", "SL2(F101)", "span-F5-12"])
def test_oversized_input_refused_before_allocating(build):
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="exceeds the budget"):
            build()
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    assert elapsed < 1.0


def test_enumeration_refused_before_the_elements_outgrow_the_budget(monkeypatch):
    budget = 20_000  # SL3(F3) takes 5 616 x 9 bytes
    monkeypatch.setattr(gfmat, "BUDGET_BYTES", budget)
    stored = []  # bytes of the elements stored, after the identity and after each block
    fresh = SeenKeys.fresh

    def recording_fresh(self, keys):
        out = fresh(self, keys)  # the positions of the elements the BFS stores
        stored.append((stored[-1] if stored else 0) + len(out) * 9)
        return out

    monkeypatch.setattr(SeenKeys, "fresh", recording_fresh)
    with pytest.raises(BudgetExceeded, match="group elements"):
        bfs_closure(classical_rep("A", 2), GF(3))
    # the BFS oracle: stored[0] is the identity alone, refused after at
    # least one block was stored, and while the stored elements still fit
    assert len(stored) > 1 and max(stored) <= budget


def test_word_data_refused_before_any_block(group_of, monkeypatch):
    # SL3(F3)'s word arrays take 5 616 intp entries each: with a budget one
    # byte short, reading them is refused before any product of a BFS block;
    # at the budget they are the words found in full blocks
    want = group_of("classical", "A", 2, 3)
    want.dist  # in full blocks, before the budget is lowered
    E = enumerate_group(want.rep, want.ring)
    monkeypatch.setattr(gfmat, "BUDGET_BYTES", 5616 * np.dtype(np.intp).itemsize - 1)
    blocks = []
    mat_mul = gfmat.mat_mul
    monkeypatch.setattr(gfmat, "mat_mul", lambda ring, A, B: blocks.append(A.shape) or mat_mul(ring, A, B))
    with pytest.raises(BudgetExceeded, match="word data"):
        E.dist
    assert blocks == []
    monkeypatch.setattr(gfmat, "BUDGET_BYTES", 5616 * np.dtype(np.intp).itemsize)
    for attr in ("dist", "parent", "genidx"):
        assert np.array_equal(getattr(E, attr), getattr(want, attr)), attr
    assert len(blocks) > 1


def test_group_lookups_with_repeats_and_misses_on_both_paths(group_of, monkeypatch):
    # random queries into SL3(F3), as a strided 2-D stack with repeated
    # elements and matrices off the group: the index's position array and a
    # set of the same sorted keys that searches them (budget 0) give the
    # numbers of a dictionary of the elements' bytes
    E = group_of("classical", "A", 2, 3)
    ring = E.ring
    number = {m.tobytes(): i for i, m in enumerate(E.elements)}
    rng = np.random.default_rng(26)
    members = E.elements[rng.integers(E.order, size=(60, 50))]
    others = rng.integers(ring.size, size=(60, 50, 3, 3)).astype(ring.dtype)
    queries = np.where(rng.random((60, 50, 1, 1)) < 0.5, members, others).transpose(1, 0, 2, 3)
    want = np.array([[number.get(np.ascontiguousarray(m).tobytes(), -1) for m in row] for row in queries])
    assert (want >= 0).any() and (want < 0).any() and len(np.unique(want[want >= 0])) < (want >= 0).sum()
    dense, numbers = E.index, E.idx(members)
    assert dense._pos is not None
    monkeypatch.setattr(gfmat, "BUDGET_BYTES", 0)
    sparse = MatSet.from_sorted_keys(ring, (3, 3), dense._keys)
    for s in (dense, sparse):
        assert np.array_equal(s.contains(queries), want >= 0)
        assert np.array_equal(s.index(members.transpose(1, 0, 2, 3)), numbers.T)
        assert np.array_equal(s.index(queries[want >= 0]), want[want >= 0])
        with pytest.raises(KeyError):
            s.index(queries)
    assert sparse._pos is None


def test_bruhat_enumeration_refused_before_any_element_block(monkeypatch):
    # SL3(F3) takes 5 616 x 9 bytes: refused from the cells' tuple count,
    # before any block product of a cell (u t n_w by v, the 2-D operands
    # that mat_mul lays out) is built.  The torus, whose size the count
    # needs, is a BFS of blocks of its own, so it is built first
    T = chevgroup.torus_set(classical_rep("A", 2), GF(3))
    monkeypatch.setattr(chevgroup, "torus_set", lambda rep, ring: T)
    monkeypatch.setattr(gfmat, "BUDGET_BYTES", 20_000)
    blocks = []
    mat_mul = gfmat._mat_mul

    def recording(ring, A, B):
        if A.ndim == B.ndim == 2 and A.shape[0] * B.shape[1] > A.shape[1] ** 2:  # not one d x d product
            blocks.append(A.shape[0] * B.shape[1])
        return mat_mul(ring, A, B)

    monkeypatch.setattr(gfmat, "_mat_mul", recording)
    with pytest.raises(BudgetExceeded, match="group elements"):
        enumerate_group(classical_rep("A", 2), GF(3))
    assert blocks == []
    monkeypatch.setattr(gfmat, "BUDGET_BYTES", 5616 * 9)
    assert enumerate_group(classical_rep("A", 2), GF(3)).order == 5616
    assert blocks


@pytest.mark.parametrize("name", ["F2", "Z/6", "Z/9", "F7xF11", "Z/2048"])
def test_mat_mul_stacks_agree_on_both_sides_of_the_division_cutoff(name):
    # a product reduces with %= below REDUCE_BY_DIVISION entries and as
    # C - C // n * n from there on; both agree with the table loop, at the
    # lift's bound too, for a stack times a stack, a stack times one matrix
    # (the shape of the Bruhat cells' u t n_w) and a 2-D block of the same size
    ring = KERNEL_RINGS[name]()
    rng = np.random.default_rng(sorted(KERNEL_RINGS).index(name))
    cut = gfmat.REDUCE_BY_DIVISION
    for d in (1, 3, 4, 7):
        for n in (cut // d**2 - 1, -(-cut // d**2)):  # the last stack below the cutoff, the first at it
            A = rng.integers(ring.size, size=(n, d, d)).astype(ring.dtype)
            B = rng.integers(ring.size, size=(n, d, d)).astype(ring.dtype)
            A[0] = B[0] = ring.size - 1
            for X, Y in ((A, B), (A, B[0]), (A.reshape(-1, d), B[0])):
                assert np.array_equal(gfmat.mat_mul(ring, X, Y), gfmat._mat_mul_tables(ring, X, Y)), (d, n)
