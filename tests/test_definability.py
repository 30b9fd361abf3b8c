import numpy as np
import pytest

from chevalley import definability
from chevalley.chevgroup import centralizer_indices, classical_rep
from chevalley.definability import (
    DC_TEXT, And, Eq, Exists, Forall, Inv, Mul, Not, One, Param, ParseError, RingInGroup,
    ThetaMap, Var, check_ring_axioms, define_set, eval_poly_in_group,
    evaluate_sentence, format_formula, free_vars, map_c, map_m, parse_formula,
    psi_matrix, verify_dc_formula, width_probe,
)
from chevalley.rings import GF


def test_parse_format_round_trip():
    for text in ("A g. g*g^-1=1",
                 "E h. (x*h=h*x & !h=1)",
                 "A a. (a*@1=@1*a -> a*x=x*a)"):
        f = parse_formula(text)
        assert parse_formula(format_formula(f)) == f


def test_parse_errors():
    for bad in ("g*", "A . g=1", "g==h", "(g=1", "g=1 extra"):
        with pytest.raises(ParseError):
            parse_formula(bad)


def test_free_vars():
    f = parse_formula("A g. (g*h=h*g & E k. k=x)")
    assert free_vars(f) == {"h", "x"}


def test_sentences(group_of):
    E = group_of("classical", "A", 2, 2)
    assert evaluate_sentence(parse_formula("A g. g*g^-1=1"), E, [])
    assert evaluate_sentence(parse_formula("E g. (g*g=1 & !g=1)"), E, [])
    assert not evaluate_sentence(parse_formula("A g. A h. g*h=h*g"), E, [])


def test_define_set_matches_centralizer_scan(group_of):
    E = group_of("classical", "A", 2, 3)
    u = E.rep.x(E.ring, 0, E.ring.one)
    F = Eq(Mul(Var("g"), Param(1)), Mul(Param(1), Var("g")))
    got = set(define_set(F, E, [u]).tolist())
    want = set(centralizer_indices(E, [u]).tolist())
    assert got == want


def test_define_set_scans_each_guard_once(group_of, monkeypatch):
    E = group_of("classical", "A", 2, 3)  # 5 616 elements: two chunks of define_set
    u = E.rep.x(E.ring, 0, E.ring.one)
    scans = []
    guard_mask = definability._guard_mask
    monkeypatch.setattr(definability, "_guard_mask", lambda *a: scans.append(a) or guard_mask(*a))
    got = define_set(parse_formula(DC_TEXT), E, [u])
    assert len(scans) == 1
    C = centralizer_indices(E, [u])
    assert got.tolist() == centralizer_indices(E, E.elements[C]).tolist()


def test_dc_formula_double_oracle(group_of):
    res = verify_dc_formula(group_of("classical", "A", 2, 2), 0)
    assert res["ok"] and res["extension_size"] == res["UZ_size"] == 2


def test_map_c_transport_sl3_f3():
    rep = classical_rep("A", 2)
    ring = GF(3)
    n = len(rep.sys.roots)
    for a in range(n):
        for b in range(n):
            for code in range(ring.size):
                g = rep.x(ring, a, ring.dtype(code))
                assert (map_c(rep, ring, a, b, g)
                        == rep.x(ring, b, ring.dtype(code))).all()


def test_map_m_is_ring_multiplication():
    rep = classical_rep("A", 2)
    ring = GF(5)
    rig = RingInGroup(rep, ring)
    a0 = rig.a0
    for r1 in range(5):
        for r2 in range(5):
            got = map_m(rep, ring, a0, a0, a0,
                        rep.x(ring, a0, ring.dtype(r1)),
                        rep.x(ring, a0, ring.dtype(r2)))
            want = rep.x(ring, a0, ring.mul(ring.dtype(r1), ring.dtype(r2)))
            assert (got == want).all()


@pytest.mark.parametrize("q", [2, 3, 5])
def test_ring_axioms_inside_group(q):
    rig = RingInGroup(classical_rep("A", 2), GF(q))
    assert check_ring_axioms(rig)


def test_poly_evaluation_in_group():
    rep = classical_rep("A", 2)
    ring = GF(7)
    rig = RingInGroup(rep, ring)
    # p(r) = r^2 + 3r + 2 evaluated through the group encoding
    coeffs = [ring.dtype(2), ring.dtype(3), ring.one]
    for r in range(7):
        relt = rep.x(ring, rig.a0, ring.dtype(r))
        got = eval_poly_in_group(rig, coeffs, relt)
        val = ring.add(ring.add(ring.mul(ring.dtype(r), ring.dtype(r)),
                                ring.mul(ring.dtype(3), ring.dtype(r))), ring.dtype(2))
        assert (got == rep.x(ring, rig.a0, val)).all()


def test_theta_round_trip_sl3_f2(group_of):
    E = group_of("classical", "A", 2, 2)
    tm = ThetaMap(E)
    assert all(tm.round_trip(i) for i in range(E.order))


def test_theta_round_trip_sample_sl3_f3(group_of):
    E = group_of("classical", "A", 2, 3)
    tm = ThetaMap(E)
    rng = np.random.default_rng(0)
    for i in rng.choice(E.order, size=100, replace=False):
        assert tm.round_trip(int(i))


def test_psi_matrix_on_root_elements():
    rep = classical_rep("A", 2)
    ring = GF(5)
    for r in range(5):
        m = psi_matrix(rep, ring, 0, ring.dtype(r))
        assert (m == rep.x(ring, 0, ring.dtype(r))).all()


def test_width_probe(group_of):
    res = width_probe(group_of("classical", "A", 2, 3))
    assert res["order"] == 5616 and 1 <= res["width"] <= 12
