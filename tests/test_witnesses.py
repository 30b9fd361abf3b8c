import copy

import numpy as np
import pytest

from chevalley import chevgroup, gfmat
from chevalley.chevgroup import (
    center_set, centralizer_indices, classical_rep, commutant_group_points, linear_commutant,
)
from chevalley.definability import verify_dc_formula
from chevalley.rings import GF
from chevalley.rootsys import build_root_system
from chevalley.witnesses import (
    classical_witness_set, f4_b_roots, f4_witness_set,
    matrix_witness_check, torus_witness, verify_containment, verify_dc,
    verify_dc_exceptional_sp4, verify_witness_centralizer, witness_word_matrix,
)


def test_torus_witness_rejects_proportional_roots():
    sys = build_root_system("A", 2)
    with pytest.raises(ValueError):
        torus_witness(sys, 0, sys.neg(0), GF(5))


def test_torus_witness_exists_on_e6_samples():
    sys = build_root_system("E", 6)
    ring = GF(5)
    rng = np.random.default_rng(1)
    n = len(sys.roots)
    for _ in range(50):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if b == a or b == sys.neg(a):
            continue
        assert torus_witness(sys, a, b, ring) is not None


def test_f4_f3_absence_is_exactly_orthogonal_long_pairs():
    sys = build_root_system("F", 4)
    ring = GF(3)
    n = len(sys.roots)
    for a in range(n):
        for b in range(n):
            if b == a or b == sys.neg(a):
                continue
            expected_absent = (sys.is_long(a) and sys.is_long(b)
                               and sys.cartan_integer(a, b) == 0)
            assert (torus_witness(sys, a, b, ring) is None) == expected_absent


def test_torus_witness_semantics_on_matrices():
    # the word must commute with U_a and fix no nontrivial element of U_b
    sys = build_root_system("A", 2)
    rep = classical_rep("A", 2)
    ring = GF(5)
    word = torus_witness(sys, 0, 1, ring)
    assert word is not None
    assert matrix_witness_check(rep, ring, word, 0, 1)


def test_f4_exceptional_roots():
    sys = build_root_system("F", 4)
    bs = f4_b_roots(sys)
    assert len(bs) == 3
    a1 = sys.fundamental[0]
    for b in bs:
        assert sys.is_long(b) and sys.cartan_integer(b, a1) == 0


def test_f4_witness_set_builds_over_f5():
    ws = f4_witness_set(GF(5))
    assert ws.expected == "UZ"
    # witnesses for every positive root off the exceptional four, plus 3
    sys = build_root_system("F", 4)
    assert len(ws.elements) == sys.n_pos - 4 + 3


CLASSICAL = [
    ("A", 2, "sl", 3, 2), ("A", 3, "sl", 3, 2),
    ("C", 2, "X1", 3, 2), ("C", 2, "X2", 3, 5),
    ("C", 3, "X1", 3, 2),
    ("D", 4, "X3", 3, 2), ("B", 3, "X4", 3, 2), ("B", 3, "X5", 3, 3),
]


@pytest.mark.parametrize("t,r,which,q,dim", CLASSICAL,
                         ids=[f"{t}{r}-{w}-F{q}" for t, r, w, q, _ in CLASSICAL])
def test_classical_witness_sets(t, r, which, q, dim):
    ring = GF(q)
    ws = classical_witness_set(t, r, which, ring)
    res = verify_containment(classical_rep(t, r), ring, ws)
    assert res["ok"], res
    if dim is not None:
        assert res["commutant_dim"] == dim


def test_dc_sl3(group_of):
    rpt = verify_dc(group_of("classical", "A", 2, 2), 0)
    assert rpt.verdict and not rpt.exceptional
    assert rpt.sizes["UZ"] == 2
    rpt = verify_dc(group_of("classical", "A", 2, 3), 0)
    assert rpt.verdict and rpt.sizes["UZ"] == 3


def test_dc_sp4_f3_short_root_is_exceptional(group_of):
    E = group_of("classical", "C", 2, 3)
    sys = E.rep.sys
    short = next(a for a in range(len(sys.roots)) if not sys.is_long(a))
    rpt = verify_dc(E, short)
    assert rpt.exceptional and rpt.case() == "dc2"
    assert not rpt.dc1_holds  # the honest negative: dc1 genuinely fails here
    assert rpt.dc2_holds and rpt.verdict
    long_root = next(a for a in range(len(sys.roots)) if sys.is_long(a))
    assert verify_dc(E, long_root).case() == "dc1"


def test_exceptional_sp4_zc_sizes():
    res = verify_dc_exceptional_sp4(GF(3))
    assert res["ok"] and res["ZC_size"] == 18
    res5 = verify_dc_exceptional_sp4(GF(5))
    assert res5["ok"] and res5["ZC_size"] == 10


@pytest.mark.parametrize("type_label, q, root, code", [
    ("C", 3, "short", 1), ("C", 3, "long", 1), ("A", 4, "negative", 3),
], ids=["short", "long", "SL3(F4)-negative"])
def test_commutant_centralizer_is_the_enumerated_one(group_of, type_label, q, root, code):
    # C(v) from the linear commutant, without the group, against the scan
    # over the enumerated group; over F4, code 3 is a root of X^2 + X + 1
    E = group_of("classical", type_label, 2, q)
    sys = E.rep.sys
    if root == "negative":
        alpha = sys.neg(0)
    else:
        alpha = next(a for a in range(len(sys.roots)) if sys.is_long(a) == (root == "long"))
    v = E.rep.x(E.ring, alpha, E.ring.dtype(code))
    got = commutant_group_points(E.rep, E.ring, linear_commutant(E.ring, v[None]))
    want = E.elements[centralizer_indices(E.ring, E.elements, [v])]
    assert len(got) == len(want) and gfmat.MatSet(E.ring, want).contains(got).all()


def test_center_is_scanned_once_per_group(group_of, monkeypatch):
    E = copy.copy(group_of("classical", "C", 2, 3))
    E.__dict__.pop("center", None)  # a copy whose center is not yet found
    scans = []
    centralizer = chevgroup.EnumeratedGroup.centralizer

    def counting(self, mats):
        if mats is E.gens:
            scans.append(self.order)
        return centralizer(self, mats)

    monkeypatch.setattr(chevgroup.EnumeratedGroup, "centralizer", counting)
    sys = E.rep.sys
    short, long_root = (next(a for a in range(len(sys.roots)) if sys.is_long(a) == long)
                        for long in (False, True))
    rpt = verify_dc(E, short)
    assert rpt.exceptional and rpt.dc2_holds  # builds the UZ and dc2 bounds
    assert verify_dc(E, long_root).verdict
    assert verify_dc_formula(E, short)["ok"]
    assert scans == [E.order]


def test_corrupted_center_raises(group_of):
    E = copy.copy(group_of("classical", "A", 2, 4))
    E.center = E.center[:1]  # the identity only; Z(SL3(F4)) has 3 elements
    with pytest.raises(RuntimeError, match="center"):
        center_set(E.rep, E.ring, group=E)
    with pytest.raises(RuntimeError, match="center"):
        verify_dc(E, 0)


def test_exceptional_sp4_f2_is_open():
    res = verify_dc_exceptional_sp4(GF(2))
    assert res["ok"] is None  # reported, not gated


def test_witness_centralizer_containment():
    res = verify_witness_centralizer(classical_rep("A", 2), GF(5), 0)
    assert res["ok"]
    assert res["group_points"] <= res["bound"]


def test_witness_word_matrix_is_torus_product():
    sys = build_root_system("A", 2)
    rep = classical_rep("A", 2)
    ring = GF(7)
    word = [(0, ring.dtype(3)), (1, ring.dtype(2))]
    from chevalley import gfmat
    want = gfmat.mat_mul(ring, rep.h(ring, 0, ring.dtype(3)), rep.h(ring, 1, ring.dtype(2)))
    assert (witness_word_matrix(rep, ring, word) == want).all()


def test_a_lower_case_type_is_refused_by_the_witness_sets():
    for call in (lambda: classical_rep("a", 2), lambda: classical_witness_set("a", 2, "sl", GF(3))):
        with pytest.raises(ValueError):
            call()
