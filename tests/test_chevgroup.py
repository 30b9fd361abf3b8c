import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chevalley import chevgroup, gfmat
from chevalley.adelic import SL2Group
from chevalley.chevgroup import (
    adjoint_rep, center_set, centralizer_indices, classical_rep, commutant_group_points,
    enumerate_group, exceptional_short_root, linear_commutant, root_element_generators, torus_set,
    verify_bruhat, weyl_elements,
)
from chevalley.rings import GF, ProductRing, Zmod
from chevalley.rootsys import commutator_template, structure_constants

from oracles import bfs, bfs_closure, sorted_matrices, x_batch_power_sums

ORDERS = {
    ("A", 2, 2): 168,
    ("A", 2, 3): 5616,
    ("C", 2, 2): 720,
    ("C", 2, 3): 51840,
}


@pytest.mark.parametrize("t,r,q", sorted(ORDERS))
def test_group_orders(group_of, t, r, q):
    E = group_of("classical", t, r, q)
    assert E.order == ORDERS[(t, r, q)]


def test_one_parameter_subgroup():
    rep = classical_rep("C", 2)
    ring = GF(5)
    for a in range(len(rep.sys.roots)):
        for r in range(5):
            for s in range(5):
                lhs = gfmat.mat_mul(ring, rep.x(ring, a, ring.dtype(r)),
                                    rep.x(ring, a, ring.dtype(s)))
                assert (lhs == rep.x(ring, a, ring.add(ring.dtype(r), ring.dtype(s)))).all()


@pytest.mark.parametrize("rep, ring", [
    (classical_rep("A", 2), GF(2)), (classical_rep("A", 2), GF(4)), (classical_rep("A", 2), GF(5)),
    (classical_rep("C", 2), GF(3)), (classical_rep("C", 2), GF(9)), (classical_rep("B", 3), GF(5)),
    (adjoint_rep("G", 2), GF(3)), (classical_rep("A", 2), Zmod(4)),
    (classical_rep("C", 2), ProductRing([GF(2), GF(3)])),
], ids=["SL3(F2)", "SL3(F4)", "SL3(F5)", "Sp4(F3)", "Sp4(F9)", "SO7(F5)", "G2adj(F3)", "SL3(Z4)", "Sp4(F2xF3)"])
def test_root_subgroup_is_the_power_sums(rep, ring):
    # every root subgroup, as one ring product of the power table by the
    # divided powers, against the divided powers summed one at a time; x
    # and x_batch read it, and it is read-only
    codes = np.arange(ring.size, dtype=ring.dtype)
    for a in range(len(rep.sys.roots)):
        U = rep.root_subgroup(ring, a)
        assert U.dtype == ring.dtype and not U.flags.writeable
        assert np.array_equal(U, x_batch_power_sums(rep, ring, a, codes))
        assert rep.root_subgroup(ring, a) is U
        picks = codes[::-1][:, None]
        assert np.array_equal(rep.x_batch(ring, a, picks), U[picks])
        assert np.array_equal(rep.x(ring, a, codes[-1]), U[-1])


def test_writing_into_a_root_element_leaves_the_root_subgroup_intact():
    rep, ring = classical_rep("A", 2), GF(3)
    U = rep.root_subgroup(ring, 0).copy()
    g = rep.x(ring, 0, ring.one)
    g[:] = ring.zero
    stack = rep.x_batch(ring, 0, np.arange(ring.size))
    stack[:] = ring.zero
    assert np.array_equal(rep.root_subgroup(ring, 0), U)
    assert np.array_equal(rep.x(ring, 0, ring.one), U[1]) and (U[1] != ring.zero).any()


def test_torus_action_character():
    # x_b(r) conjugated by h_g(t) is x_b(t^-A(g,b) r)
    rep = classical_rep("A", 2)
    ring = GF(7)
    sys = rep.sys
    for g in range(len(sys.roots)):
        for b in range(len(sys.roots)):
            for t in ring.units():
                h = rep.h(ring, g, ring.dtype(t))
                hinv = rep.h(ring, g, ring.inv(ring.dtype(t)))
                x = rep.x(ring, b, ring.one)
                conj = gfmat.mat_mul_many(ring, [hinv, x, h])
                scaled = rep.x(ring, b, ring.pow(ring.dtype(t), -sys.cartan_integer(g, b)))
                assert (conj == scaled).all()


def commutator_word(sc, ring, a, b, r, s):
    """[x_a(r), x_b(s)] (convention g^-1 h^-1 g h) as a list of (root index,
    ring element), one scalar product at a time: the oracle for the power
    tables of the commutator suite."""
    return [(g, ring.mul(ring.from_int(c), ring.mul(ring.pow(r, ea), ring.pow(s, eb))))
            for g, ea, eb, c in commutator_template(sc, a, b)]


@settings(deadline=None, max_examples=60)
@given(a=st.integers(0, 11), b=st.integers(0, 11), r=st.integers(0, 2), s=st.integers(0, 2))
def test_commutator_word_matches_matrices_g2(a, b, r, s):
    rep = adjoint_rep("G", 2)
    sys = rep.sys
    if b == a or b == sys.neg(a):
        return
    ring = GF(3)
    sc = structure_constants("G", 2)
    r, s = ring.dtype(r), ring.dtype(s)
    direct = gfmat.mat_mul_many(ring, [
        rep.x(ring, a, ring.neg(r)), rep.x(ring, b, ring.neg(s)),
        rep.x(ring, a, r), rep.x(ring, b, s)])
    word = rep.identity(ring)
    for g, val in commutator_word(sc, ring, a, b, r, s):
        word = gfmat.mat_mul(ring, word, rep.x(ring, g, val))
    assert (direct == word).all()


def test_commutator_template_empty_for_orthogonal_a1xa1():
    sc = structure_constants("D", 4)
    sys = sc.sys
    pairs = [(a, b) for a in range(sys.n_pos) for b in range(sys.n_pos)
             if a != b and sys.sum_root(a, b) is None and sys.cartan_integer(a, b) == 0]
    a, b = pairs[0]
    assert commutator_template(sc, a, b) == ()


def test_membership_forms(group_of):
    E = group_of("classical", "C", 2, 3)
    ring, rep = E.ring, E.rep
    mask = rep.membership_mask(ring, E.elements)
    assert mask.all()
    # a random GL matrix that is not symplectic must be rejected
    bad = gfmat.identity(ring, rep.dim).copy()
    bad[0, 0] = ring.dtype(2)
    bad[1, 1] = ring.dtype(2)
    assert not rep.membership_mask(ring, bad[None])[0]


def test_inverses_and_words(group_of):
    E = group_of("classical", "A", 2, 2)
    ident = E.rep.identity(E.ring)
    for i in range(0, E.order, 17):
        m = E.elements[i]
        assert (gfmat.mat_mul(E.ring, m, E.elements[E.inv_idx[i]]) == ident).all()
        word = E.word(i)
        prod = ident
        for gi in word:
            a, code = E.gens_meta[gi]
            prod = gfmat.mat_mul(E.ring, prod, E.rep.x(E.ring, a, code))
        assert E.idx(prod) == i


@pytest.mark.parametrize("rep,q", [(classical_rep("A", 2), q) for q in (2, 3, 4, 5)]
                         + [(classical_rep("C", 2), 3), (adjoint_rep("G", 2), 2)],
                         ids=["SL3(F2)", "SL3(F3)", "SL3(F4)", "SL3(F5)", "Sp4(F3)", "G2adj(F2)"])
def test_torus_is_the_bfs_closure_of_its_generators(rep, q):
    # the product of the rank-one tori against the BFS closure of all h_a(t)
    ring = GF(q)
    gens = np.stack([rep.h(ring, a, t) for a in rep.sys.fundamental for t in ring.units()])
    want = bfs(rep, ring, gens)[0]
    got = torus_set(rep, ring)
    assert len(got) == len(want)
    assert np.array_equal(sorted_matrices(gfmat.MatSet(ring, got)), sorted_matrices(gfmat.MatSet(ring, want)))


def test_torus_and_center_sizes(group_of):
    E4 = group_of("classical", "A", 2, 4)
    assert len(torus_set(E4.rep, E4.ring)) == 9  # (q-1)^rank
    assert len(center_set(E4.rep, E4.ring, group=E4)) == 3  # cube roots of 1
    E2 = group_of("classical", "A", 2, 2)
    assert len(center_set(E2.rep, E2.ring, group=E2)) == 1


def test_linear_commutant_is_exact_over_f4(group_of):
    # y = x_0(w) with w = code 2, a root of X^2 + X + 1: reading the code as
    # the integer 2 would make y the identity mod 2, and C(y) all of SL3(F4)
    E = group_of("classical", "A", 2, 4)
    y = E.rep.x(E.ring, 0, E.ring.dtype(2))
    got = commutant_group_points(E.rep, E.ring, linear_commutant(E.ring, y[None]))
    want = E.elements[centralizer_indices(E.ring, E.elements, [y])]
    assert len(want) == 192
    assert len(got) == len(want) and gfmat.MatSet(E.ring, want).contains(got).all()


def _commutant_of_condition_rows(ring, Y):
    """The commutant as one nullspace of every (my - ym) row: (my - ym)_{ij}
    as linear forms in m_{kl} is y_{lj} at k = i, and -y_{ik} at l = j."""
    d = Y.shape[-1]
    eye = np.eye(d, dtype=bool)
    rows = [np.zeros((0, d * d), dtype=ring.dtype)]
    for y in Y:
        my = np.where(eye[:, None, :, None], y.T[None, :, None, :], ring.zero)
        ym = np.where(eye[None, :, None, :], y[:, None, :, None], ring.zero)
        rows.append(ring.add_t[my, ring.neg_t[ym]].reshape(d * d, d * d))
    return gfmat.nullspace(ring, np.concatenate(rows))


@pytest.mark.parametrize("case", ["empty", "identity", "dependent", "one", "two"])
@pytest.mark.parametrize("q", [3, 4, 9], ids=["F3", "F4", "F9"])
@pytest.mark.parametrize("d", [3, 4])
def test_linear_commutant_is_the_nullspace_of_the_condition_rows(d, q, case):
    ring = GF(q)
    rng = np.random.default_rng(100 * d + q)

    def sparse(n):  # mostly zero, so the commutants are larger than the scalars
        return (rng.integers(ring.size, size=(n, d, d)) * (rng.random((n, d, d)) < 0.3)).astype(ring.dtype)

    ident = gfmat.identity(ring, d)[None]
    if case == "empty":
        Y = sparse(0)
    elif case == "identity":
        Y = np.concatenate([sparse(1), ident, sparse(1)])
    elif case == "dependent":
        y1, y2 = sparse(2)
        c = ring.dtype(q - 1)  # outside the prime field for q = 4, 9
        Y = np.stack([y1, y2, ring.add_t[y1, ring.mul_t[c, y2]], y1])
    else:
        Y = sparse(1 if case == "one" else 2)
    K = linear_commutant(ring, Y)
    want = _commutant_of_condition_rows(ring, Y)
    assert np.array_equal(K, gfmat.rref(ring, K)[0])
    # equal dimension, and each basis lies in the span of the other
    assert len(K) == len(want) == len(gfmat.rref(ring, np.concatenate([K, want]))[1])


def test_centralizer_over_a_ring_that_is_not_a_field_raises():
    ring = Zmod(6)
    stack = gfmat.identity(ring, 2)[None]
    with pytest.raises(ValueError, match="needs a field"):
        centralizer_indices(ring, stack, stack)


def _scan_against_pairwise_oracle(rep, ring, with_identity=False) -> int:
    """Scan random stacks (words of one or two root elements, which commute
    with root elements often, and words of six) against 0-4 conditions (root
    elements and words of six, and the identity at a random place when
    asked), compared pair by pair through the ring's tables; the words take
    every nonzero code, so over GF(p^f) their entries leave the prime field.
    Returns how many scans kept a proper nonempty part of their stack."""
    rng = np.random.default_rng(3)
    nroots = len(rep.sys.roots)

    def mul(a, b):
        return gfmat._mat_mul_tables(ring, a, b)

    def word(n):
        out = rep.identity(ring)
        for _ in range(n):
            out = mul(out, rep.x(ring, int(rng.integers(nroots)), ring.dtype(rng.integers(1, ring.size))))
        return out

    proper = 0
    for k in range(5):
        for _ in range(4):
            stack = np.stack([word(int(rng.integers(1, 3))) for _ in range(60)] + [word(6) for _ in range(20)])
            conds = [word(1) if rng.random() < 0.75 else word(6) for _ in range(k)]
            if with_identity:
                conds.insert(int(rng.integers(k + 1)), rep.identity(ring))
            want = [i for i, g in enumerate(stack) if all((mul(g, c) == mul(c, g)).all() for c in conds)]
            got = centralizer_indices(ring, stack, conds)
            assert got.tolist() == want
            proper += 0 < len(want) < len(stack)
    return proper


@pytest.mark.parametrize("t,q", [("A", 3), ("C", 3), ("A", 4), ("C", 4), ("A", 9)],
                         ids=["SL3(F3)", "Sp4(F3)", "SL3(F4)", "Sp4(F4)", "SL3(F9)"])
def test_centralizer_indices_against_pairwise_oracle(t, q):
    assert _scan_against_pairwise_oracle(classical_rep(t, 2), GF(q)) >= 4


@pytest.mark.parametrize("t", ["A", "C"], ids=["SL3(F3)", "Sp4(F3)"])
def test_centralizer_indices_in_blocks_against_pairwise_oracle(group_of, t, monkeypatch):
    # a 16 KiB budget cuts each stack of 80 into blocks of a few rows
    E = group_of("classical", t, 2, 3)
    ring, d = E.ring, E.rep.dim
    stack = E.elements[E.dist >= 3]  # the word data first, in blocks of the usual size
    monkeypatch.setattr(gfmat, "BUDGET_BYTES", 1 << 14)
    assert gfmat.block_rows(ring, d, 1) < 20
    assert _scan_against_pairwise_oracle(E.rep, ring, with_identity=True) >= 4
    # no mat_mul operand holds scanned elements, as a stack, stacked as rows
    # or side by side: the scan multiplies their pivot coordinates (rows of
    # the commutant's dimension, here 5 or 10) by the commutant basis
    scanned = gfmat.MatSet(ring, stack)
    operands = []
    mat_mul = gfmat.mat_mul

    def recording(ring, A, B):
        operands.extend((A, B))
        return mat_mul(ring, A, B)

    monkeypatch.setattr(gfmat, "mat_mul", recording)
    got = centralizer_indices(ring, stack, [E.rep.identity(ring), E.rep.x(ring, 0, ring.one)])
    assert 0 < len(got) < len(stack) and len(operands) >= 2 * (len(stack) // gfmat.block_rows(ring, d, 1))
    for X in operands:
        if X.shape[-1] == d:
            assert not scanned.contains(X.reshape(-1, d, d)).any()
        if X.ndim == 2 and X.shape[0] == d:
            assert not scanned.contains(X.reshape(d, -1, d).transpose(1, 0, 2)).any()


def _counting_branches(monkeypatch):
    """Count the span and scan branches of `EnumeratedGroup.centralizer`."""
    runs = Counter()
    span_elements, commutant_indices = gfmat.span_elements, chevgroup.commutant_indices

    def span(*args):
        runs["span"] += 1
        return span_elements(*args)

    def scan(*args):
        runs["scan"] += 1
        return commutant_indices(*args)

    monkeypatch.setattr(gfmat, "span_elements", span)
    monkeypatch.setattr(chevgroup, "commutant_indices", scan)
    return runs


@pytest.mark.parametrize("form,t,q", [("classical", "A", 3), ("classical", "A", 4), ("classical", "C", 3),
                                      ("adjoint", "G", 2)], ids=["SL3(F3)", "SL3(F4)", "Sp4(F3)", "G2adj(F2)"])
def test_group_centralizer_is_the_scan(group_of, form, t, q, monkeypatch):
    # C(u) for a root of each length, with the last code (outside the prime
    # field over F4), C(C(u)), the center and C(1), which is the whole
    # group: the span is looked up where q^k <= |G|, else the group is
    # scanned, and both give the scan's indices
    E = group_of(form, t, 2, q)
    ring, sys = E.ring, E.rep.sys
    r = ring.dtype(ring.size - 1)
    roots = [0] + [a for a in range(len(sys.roots)) if sys.is_long(a) != sys.is_long(0)][:1]
    inputs = [E.gens, E.rep.identity(ring)[None]]
    for alpha in roots:
        u = E.rep.x(ring, alpha, r)
        inputs += [[u], E.elements[centralizer_indices(ring, E.elements, [u])]]
    runs = _counting_branches(monkeypatch)
    branches = []
    for mats in inputs:
        want = centralizer_indices(ring, E.elements, mats)
        before = runs.copy()
        assert np.array_equal(E.centralizer(mats), want)
        k = len(linear_commutant(ring, np.asarray(mats)))
        branch = "span" if ring.size ** k <= E.order else "scan"
        assert runs - before == {branch: 1}
        branches.append(branch)
    assert branches[1] == "scan" and branches[3::2] == ["span"] * len(roots)  # C(1) and each C(C(u))


def test_group_centralizer_from_a_basis_short_of_a_row_is_not_the_scan(group_of, monkeypatch):
    # a commutant basis with one row dropped makes the span branch miss
    # elements of C(u), whichever row it is
    E = group_of("classical", "A", 2, 3)
    u = E.rep.x(E.ring, 0, E.ring.one)
    want = centralizer_indices(E.ring, E.elements, [u])
    k = len(linear_commutant(E.ring, u[None]))
    linear_commutant_ = chevgroup.linear_commutant
    runs = _counting_branches(monkeypatch)
    for drop in range(k):
        monkeypatch.setattr(chevgroup, "linear_commutant",
                            lambda ring, mats: np.delete(linear_commutant_(ring, mats), drop, axis=0))
        assert not np.array_equal(E.centralizer([u]), want)
    assert runs == {"span": k}


@pytest.mark.parametrize("t,q", [("A", 3), ("A", 4), ("C", 3)], ids=["SL3(F3)", "SL3(F4)", "Sp4(F3)"])
def test_enumeration_through_the_table_loop_is_the_same(group_of, t, q, monkeypatch):
    # the table loop in place of every product, and blocks of a few rows (a
    # 1 MiB budget, so that a BFS level spans several blocks), give the
    # group built from the float products in full blocks, and its words
    rep = classical_rep(t, 2)
    Y = group_of("classical", t, 2, q)
    Y.dist  # the words, from full blocks
    monkeypatch.setattr(gfmat, "mat_mul", gfmat._mat_mul_tables)
    monkeypatch.setattr(gfmat, "BUDGET_BYTES", 1 << 20)
    Z = enumerate_group(rep, GF(q))
    widest = np.bincount(Z.dist).max()
    assert gfmat.block_rows(Z.ring, Z.rep.dim, len(Z.gens)) < gfmat.block_rows(Z.ring, Z.rep.dim, 1) < widest
    for attr in ("elements", "inv_idx", "dist", "parent", "genidx"):
        assert np.array_equal(getattr(Z, attr), getattr(Y, attr)), attr


@pytest.mark.parametrize("t,q,order", [("A", 3, 5616), ("A", 4, 60480), ("C", 3, 51840)],
                         ids=["SL3(F3)", "SL3(F4)", "Sp4(F3)"])
def test_enumeration_with_sorted_seen_keys_is_the_same(group_of, t, q, order, monkeypatch):
    # the BFS oracle, which keeps the sorted keys it has seen, and the BFS on
    # element numbers give the same elements and words, whether the group's
    # index looks up from its position array, where the key space fits the
    # block rule (SL3), or searches its sorted keys, where it does not
    # (Sp4) or the position array is withheld
    E = group_of("classical", t, 2, q)
    B = bfs_closure(E.rep, E.ring)
    F = chevgroup.EnumeratedGroup(E.ring, E.elements.copy(), E.elements[E.inv_idx], E.rep, E.gens_meta, E.gens)
    monkeypatch.setattr(F.index, "_positions", lambda: None)
    assert E.order == B.order == F.order == order
    for attr in ("elements", "inv_idx", "dist", "parent", "genidx"):
        assert np.array_equal(getattr(E, attr), getattr(B, attr)), attr
        assert np.array_equal(getattr(F, attr), getattr(B, attr)), attr
    assert (E.index._pos is not None) == (t == "A") and F.index._pos is None


@pytest.mark.parametrize("form,t,q", [("classical", "A", q) for q in (2, 3, 4, 5)]
                         + [("classical", "C", 3), ("adjoint", "G", 2)],
                         ids=["SL3(F2)", "SL3(F3)", "SL3(F4)", "SL3(F5)", "Sp4(F3)", "G2adj(F2)"])
def test_order_from_the_degrees_of_the_root_system(group_of, form, t, q):
    # |G(F_q)| = q^N prod (q^d_i - 1) for the simply connected SL3 and Sp4
    # and for the adjoint G2, whose center is trivial (Steinberg 1968,
    # Carter 1972).  The degrees are d_i = m_i + 1, with the exponents m_i
    # the dual partition of the numbers of positive roots of each height.
    E = group_of(form, t, 2, q)
    sys = E.rep.sys
    count = Counter(sys.height(a) for a in range(sys.n_pos))
    per_height = [count[h] for h in range(1, max(count) + 1)]
    exponents = [sum(n > i for n in per_height) for i in range(per_height[0])]
    assert len(exponents) == sys.rank and sum(exponents) == sys.n_pos
    assert E.order == q**sys.n_pos * math.prod(q ** (m + 1) - 1 for m in exponents)


def test_bruhat_uniqueness_sl3_f2(group_of):
    rpt = verify_bruhat(group_of("classical", "A", 2, 2))
    assert rpt["ok"] and rpt["order"] == 168 and rpt["tuple_count"] == 168


BRUHAT_GROUPS = [("classical", "A", q) for q in (2, 3, 4, 5)] + [("classical", "C", 3), ("classical", "C", 4),
                                                                   ("adjoint", "G", 2)]


@pytest.mark.parametrize("form,t,q", BRUHAT_GROUPS,
                         ids=["SL3(F2)", "SL3(F3)", "SL3(F4)", "SL3(F5)", "Sp4(F3)", "Sp4(F4)", "G2adj(F2)"])
def test_bruhat_enumeration_against_the_bfs_closure(group_of, form, t, q):
    # the group built from the Bruhat cells and the BFS closure of the root
    # elements, both numbered in key order: the same elements and inverses,
    # every inverse right, the same center, and the same BFS words and
    # distances
    E = group_of(form, t, 2, q)
    B = bfs_closure(E.rep, E.ring)
    ring, d = E.ring, E.rep.dim
    assert np.array_equal(E.elements, B.elements) and np.array_equal(E.inv_idx, B.inv_idx)
    ident = E.rep.identity(ring)
    rows = gfmat.block_rows(ring, d, 1)
    for b0 in range(0, E.order, rows):
        blk = slice(b0, b0 + rows)
        assert (gfmat.mat_mul(ring, E.elements[blk], E.elements[E.inv_idx[blk]]) == ident).all()
    assert np.array_equal(E.center, B.center)
    if E.order > 500_000:
        return  # Sp4(F4): its words take 3 s more; Sp4(F3) and G2adj(F2) check them on searched lookups
    for attr in ("dist", "parent", "genidx"):
        assert np.array_equal(getattr(E, attr), getattr(B, attr)), attr
    for j in range(0, B.order, max(1, B.order // 50)):
        word = E.word(j)
        assert word == B.word(j)
        prod = ident
        for g in word:
            prod = gfmat.mat_mul(ring, prod, E.gens[g])
        assert (prod == E.elements[j]).all()


@pytest.mark.parametrize("which", range(6))
def test_bruhat_enumeration_refuses_a_corrupted_weyl_representative(which, monkeypatch):
    # one entry of one n_w changed: its cell's products no longer match the
    # inverses built from n_w^-1, and enumerate_group raises
    rep, ring = classical_rep("A", 2), GF(3)
    bad = list(weyl_elements(rep.sys).values())[which]
    weyl_rep = rep.weyl_rep

    def corrupted(ring, word):
        nw = weyl_rep(ring, word)
        if word == bad:
            nw = nw.copy()
            nw[0, 1] = ring.add(nw[0, 1], ring.one)
        return nw

    monkeypatch.setattr(rep, "weyl_rep", corrupted)
    with pytest.raises(RuntimeError):
        enumerate_group(rep, ring)


def _regrouped(E, elements, inverses, gens=None):
    """A group numbered from the given elements and inverses, with E's
    representation and the generators of E numbered gens (all of them)."""
    gens = range(len(E.gens)) if gens is None else gens
    return chevgroup.EnumeratedGroup(E.ring, np.ascontiguousarray(elements), np.ascontiguousarray(inverses),
                                     E.rep, [E.gens_meta[i] for i in gens], E.gens[list(gens)])


def test_bruhat_check_compares_the_products_with_the_bfs_closure(group_of, monkeypatch):
    # SL3(F2) from its cells with one involution dropped, with a singular
    # stranger added as its own inverse, or with the root elements of the
    # positive roots alone as generators: the BFS on element numbers meets
    # a product that is not an element, or reaches fewer elements than the
    # group has, and the check fails; in the last case it alone fails
    E = group_of("classical", "A", 2, 2)
    assert verify_bruhat(E)["ok"]
    ident = E.idx(E.rep.identity(E.ring))
    drop = np.flatnonzero((E.inv_idx == np.arange(E.order)) & (np.arange(E.order) != ident))[0]
    keep = np.delete(np.arange(E.order), drop)
    zero = np.zeros((1, 3, 3), dtype=E.ring.dtype)
    upper = [i for i, (a, _) in enumerate(E.gens_meta) if a < E.rep.sys.n_pos]
    cases = [
        (_regrouped(E, E.elements[keep], E.elements[E.inv_idx[keep]]), 167, "not an element"),
        (_regrouped(E, np.concatenate([E.elements, zero]), np.concatenate([E.elements[E.inv_idx], zero])),
         169, "reaches 168 of the 169"),
        (_regrouped(E, E.elements, E.elements[E.inv_idx], upper), 168, "reaches 8 of the 168"),
    ]
    for G, order, message in cases:
        rpt = verify_bruhat(G)
        assert not rpt["ok"]
        assert (rpt["order"], rpt["tuple_count"], rpt["distinct_products"], rpt["unique"]) == (order, 168, 168, True)
        with pytest.raises(RuntimeError, match=message):
            G.dist
    # cells that give one product off the group, det 2 in SL3(F3), in place
    # of an element: the counts and the BFS agree with |E|, the lookup of the
    # products does not
    E3 = group_of("classical", "A", 2, 3)
    cells = chevgroup.bruhat_cells(E3.rep, E3.ring)
    A, V = cells[0]
    A = A.copy()
    A[0, 0] = E3.ring.mul_t[A[0, 0], 2]
    monkeypatch.setattr(chevgroup, "bruhat_cells", lambda rep, ring: [(A, V)] + cells[1:])
    rpt = verify_bruhat(E3)
    assert not rpt["ok"] and rpt["order"] == rpt["tuple_count"] == rpt["distinct_products"] == 5616
    assert len(E3.dist) == 5616


def test_adjoint_g2_order(group_of):
    assert group_of("adjoint", "G", 2, 2).order == 12096


@pytest.mark.parametrize("t,r,q", [("A", 2, 2), ("C", 2, 2)])
def test_bfs_order_oracle(t, r, q):
    # every element's (parent, genidx) is the first (frontier position,
    # generator) pair of the previous level whose product gives it, and each
    # level lists its new elements in that order: a BFS over the entries'
    # bytes, against the words the group finds on its element numbers
    E = enumerate_group(classical_rep(t, r), GF(q))
    ring, gens = E.ring, E.gens
    number = {m.tobytes(): i for i, m in enumerate(E.elements)}
    level, frontier = 0, [E.rep.identity(ring).tobytes()]
    seen = set(frontier)
    one = number[frontier[0]]
    assert (E.dist[one], E.parent[one], E.genidx[one]) == (0, -1, -1)
    while frontier:
        first = {}
        for key in frontier:
            m = np.frombuffer(key, dtype=ring.dtype).reshape(E.elements.shape[1:])
            for g in range(len(gens)):
                prod = gfmat.mat_mul(ring, m, gens[g]).tobytes()
                if prod not in seen and prod not in first:
                    first[prod] = (number[key], g)
        level += 1
        for prod, (p, g) in first.items():
            i = number[prod]
            assert (E.dist[i], E.parent[i], E.genidx[i]) == (level, p, g)
        seen.update(first)
        frontier = list(first)
    assert len(seen) == E.order and E.dist.max() == level - 1


@pytest.mark.parametrize("rep", [classical_rep("A", 2), classical_rep("C", 2), adjoint_rep("G", 2)],
                         ids=["A2", "C2", "G2"])
@pytest.mark.parametrize("ring", [GF(4), Zmod(6)], ids=["F4", "Z/6"])
def test_weyl_rep_inverse(rep, ring):
    ident = rep.identity(ring)
    words = list(weyl_elements(rep.sys).values())
    assert len(words) == {"A": 6, "C": 8, "G": 12}[rep.sys.type_label]
    for word in words:
        nw, nwinv = rep.weyl_rep(ring, word), rep.weyl_rep_inv(ring, word)
        assert (gfmat.mat_mul(ring, nw, nwinv) == ident).all()
        assert (gfmat.mat_mul(ring, nwinv, nw) == ident).all()


def test_idx_raises_key_error_off_group(group_of):
    E = group_of("classical", "A", 2, 3)
    two = gfmat.scalar_mat(E.ring, 3, E.ring.dtype(2))  # det 8 = 2, not in SL3(F3)
    with pytest.raises(KeyError):
        E.idx(two)
    with pytest.raises(KeyError):
        E.idx(np.stack([E.elements[5], two]))
    assert E.idx(E.elements[[7, 3]]).tolist() == [7, 3]


def test_enumeration_refuses_a_ring_that_is_not_a_field():
    # SL3(F2 x F2) = SL3(F2)^2 has no Bruhat cells: refused with the
    # ValueError of rref, though the BFS oracle closes it
    rep, ring = classical_rep("A", 2), ProductRing([GF(2), GF(2)])
    with pytest.raises(ValueError, match="needs a field"):
        enumerate_group(rep, ring)
    assert bfs_closure(rep, ring).order == 168**2


CONSTRUCTED = {
    "SL3(F3) cells": lambda group_of, sl2_f3: group_of("classical", "A", 2, 3),
    "SL3(F3) BFS": lambda group_of, sl2_f3: bfs_closure(classical_rep("A", 2), GF(3)),
    "SL3(F2xF2) BFS": lambda group_of, sl2_f3: bfs_closure(classical_rep("A", 2), ProductRing([GF(2), GF(2)])),
    **{f"{mode}(F7)": lambda group_of, sl2_f3, mode=mode: SL2Group(GF(7), mode) for mode in SL2Group.MODES},
    "SL2(F3) tests": lambda group_of, sl2_f3: sl2_f3,
}


@pytest.mark.parametrize("name", list(CONSTRUCTED))
def test_every_constructor_numbers_its_group_alike(group_of, sl2_f3, name):
    # each constructor hands the one constructor its elements and inverses:
    # the elements come in strictly increasing key order, each is its own
    # index, the inverses pair up and multiply to the identity, and a
    # matrix off the group has no index
    E = CONSTRUCTED[name](group_of, sl2_f3)
    ring, d = E.ring, E.elements.shape[-1]
    keys = gfmat.MatSet.keys(ring, E.elements)
    assert (keys[1:] > keys[:-1]).all()
    assert np.array_equal(E.idx(E.elements), np.arange(E.order))
    assert np.array_equal(E.inv_idx[E.inv_idx], np.arange(E.order))
    assert (E.canon(gfmat.mat_mul(ring, E.elements, E.elements[E.inv_idx])) == gfmat.identity(ring, d)).all()
    assert (E.inv(E.elements) == E.elements[E.inv_idx]).all()
    zero = np.zeros((d, d), dtype=ring.dtype)  # singular, in no coset of these groups
    with pytest.raises(KeyError):
        E.idx(zero)
    with pytest.raises(KeyError):
        E.idx(np.stack([E.elements[-1], zero]))


@pytest.mark.parametrize("fault,message", [
    ("repeat", "given twice"), ("stranger", "not an element"), ("shifted", "not an involution")])
def test_constructor_refuses_elements_and_inverses_that_do_not_make_a_group(sl2_f3, fault, message):
    # SL2(F3) handed over again, with one element given twice, one inverse
    # off the group, or each element paired with the next one's inverse
    elements, inverses = sl2_f3.elements.copy(), sl2_f3.elements[sl2_f3.inv_idx]
    if fault == "repeat":
        elements[1], inverses[1] = elements[0], inverses[0]
    elif fault == "stranger":
        inverses[3] = 0
    else:
        inverses = np.roll(inverses, 1, axis=0)
    with pytest.raises(RuntimeError, match=message):
        chevgroup.EnumeratedGroup(sl2_f3.ring, elements, inverses)


@pytest.mark.parametrize("form,t,q", [("classical", "A", q) for q in (2, 3, 4, 5)]
                         + [("classical", "C", 3), ("adjoint", "G", 2)],
                         ids=["SL3(F2)", "SL3(F3)", "SL3(F4)", "SL3(F5)", "Sp4(F3)", "G2adj(F2)"])
def test_index_from_the_sorted_keys_is_the_index_of_the_elements(group_of, form, t, q):
    # the group's index is its sorted keys, never keyed again; the oracle
    # is the test's own lexicographic sort of the entries and a MatSet
    # built from the elements as given
    E = group_of(form, t, 2, q)
    flat = E.elements.reshape(E.order, -1)
    assert np.array_equal(np.lexsort(flat.T[::-1]), np.arange(E.order))
    built = gfmat.MatSet(E.ring, E.elements)
    sample = E.elements[np.random.default_rng(q).integers(E.order, size=500)]
    assert len(E.index) == len(built) == E.order
    assert np.array_equal(E.index.index(E.elements), np.arange(E.order))
    assert np.array_equal(E.index.index(sample), built.index(sample))
    assert np.array_equal(sorted_matrices(E.index), sorted_matrices(built))
    assert np.array_equal(sorted_matrices(E.index), E.elements)


@pytest.mark.parametrize("name", ["SL2(F7)", "SL2modZ(F7)", "PSL2(F7)", "SL3(F2)"])
def test_multiplication_table_is_the_index_of_each_product(group_of, name):
    # the table, built from 2-D blocks, against every product taken as a
    # stack of single products and numbered through canon and the index
    E = group_of("classical", "A", 2, 2) if name == "SL3(F2)" else SL2Group(GF(7), name[:-4])
    T = E.mul_table
    assert T.dtype == np.int16 and T.shape == (E.order, E.order)
    assert np.array_equal(T, E.idx(gfmat.mat_mul(E.ring, E.elements[:, None], E.elements[None])))
    assert (T[np.arange(E.order), E.inv_idx] == E.idx(gfmat.identity(E.ring, E.elements.shape[-1]))).all()


def test_multiplication_table_only_within_the_block_rule(group_of):
    # |G|^2 int16 entries: SL3(F2)'s 168^2 fit 8 MiB, SL3(F3)'s 5616^2 do not
    assert group_of("classical", "A", 2, 2).mul_table is not None
    assert group_of("classical", "A", 2, 3).mul_table is None


def test_multiplication_table_refuses_a_set_not_closed_under_products():
    # {1, x, x^-1} with x = (0 1; -1 0) of order 4 in SL2(F3) is closed
    # under inverses, so it numbers as a group, but x x = -1 is not in it
    ring = GF(3)
    one, x, xinv = (np.array(m, dtype=ring.dtype) for m in ([[1, 0], [0, 1]], [[0, 1], [2, 0]], [[0, 2], [1, 0]]))
    assert (gfmat.mat_mul(ring, x, xinv) == one).all() and not (gfmat.mat_mul(ring, x, x) == one).all()
    small = chevgroup.EnumeratedGroup(ring, np.stack([one, x, xinv]), np.stack([one, xinv, x]))
    assert small.order == 3
    with pytest.raises(RuntimeError, match="not an element"):
        small.mul_table


def test_exceptional_short_root_is_type_c_short_with_units_pm1():
    sp4, sl3 = classical_rep("C", 2).sys, classical_rep("A", 2).sys
    short, long = (next(a for a in range(len(sp4.roots)) if sp4.is_long(a) == lg) for lg in (False, True))
    assert [exceptional_short_root(sp4, GF(q), short) for q in (2, 3, 4, 5)] == [True, True, False, False]
    assert not any(exceptional_short_root(sp4, GF(q), long) for q in (2, 3, 4, 5))
    assert not any(exceptional_short_root(sl3, GF(q), 0) for q in (2, 3))
