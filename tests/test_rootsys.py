import pytest
from hypothesis import given, strategies as st

from chevalley import gfmat
from chevalley.gfmat import BudgetExceeded
from chevalley.rootsys import (
    RootSystem, build_root_system, commutator_template, dump_roots, structure_constants,
)

POS_COUNTS = {
    ("A", 2): 3, ("B", 2): 4, ("C", 2): 4, ("A", 3): 6, ("C", 3): 9,
    ("B", 3): 9, ("G", 2): 6, ("D", 4): 12, ("F", 4): 24, ("E", 6): 36,
    ("A", 5): 15, ("B", 4): 16, ("C", 4): 16, ("D", 5): 20, ("E", 7): 63,
}


@pytest.mark.parametrize("t,r", sorted(POS_COUNTS))
def test_root_counts(t, r):
    sys = build_root_system(t, r)
    assert sys.n_pos == POS_COUNTS[(t, r)]
    assert len(sys.roots) == 2 * sys.n_pos


@pytest.mark.parametrize("t,r", [("A", 2), ("C", 3), ("G", 2), ("F", 4)])
def test_cartan_integers(t, r):
    sys = build_root_system(t, r)
    n = len(sys.roots)
    for a in range(n):
        assert sys.cartan_integer(a, a) == 2
        for b in range(n):
            assert -3 <= sys.cartan_integer(a, b) <= 3
    # negation is an involution pairing positives with negatives
    for a in range(n):
        assert sys.neg(sys.neg(a)) == a
        assert (a < sys.n_pos) != (sys.neg(a) < sys.n_pos)


@given(a=st.integers(0, 47), b=st.integers(0, 47))
def test_reflection_closure_f4(a, b):
    sys = build_root_system("F", 4)
    c = sys.reflect(a, b)
    assert 0 <= c < len(sys.roots)
    assert sys.reflect(a, c) == b  # s_a is an involution


def test_length_classes():
    assert build_root_system("A", 3).length_classes() == 1
    assert build_root_system("C", 2).length_classes() == 2
    assert build_root_system("G", 2).length_classes() == 2


@pytest.mark.parametrize("t,r", [("A", 2), ("C", 2), ("G", 2), ("B", 3)])
def test_structure_constant_relations(t, r):
    sc = structure_constants(t, r)
    sys = sc.sys
    n = len(sys.roots)
    for a in range(n):
        for b in range(n):
            g = sys.sum_root(a, b)
            if g is None:
                assert sc.N(a, b) == 0
                continue
            # antisymmetry and the chain bound |N| = p + 1
            assert sc.N(a, b) == -sc.N(b, a)
            assert 1 <= abs(sc.N(a, b)) <= 3
            assert sc.N(sys.neg(a), sys.neg(b)) == -sc.N(a, b)


def test_commutator_template_roots_lie_in_span():
    sc = structure_constants("G", 2)
    sys = sc.sys
    a, b = 0, 1
    for g, i, j, coeff in commutator_template(sc, a, b):
        assert sys.combo([(i, a), (j, b)]) == g
        assert i >= 1 and j >= 1 and coeff != 0


def test_dump_roots_shape():
    sys = build_root_system("C", 2)
    lines = dump_roots(sys).strip().splitlines()
    assert len(lines) == len(sys.roots)
    for i, line in enumerate(lines):
        coeffs = tuple(int(c) for c in line.split()[-sys.rank:])
        assert coeffs == sys.roots[i]


def test_root_system_past_the_budget_is_refused(monkeypatch):
    # E8's (240, 240) int64 arrays take 460 800 bytes; built uncached, since
    # build_root_system keeps every system it has built
    monkeypatch.setattr(gfmat, "BUDGET_BYTES", 240 * 240 * 8 - 1)
    assert len(RootSystem("E", 7).roots) == 126
    with pytest.raises(BudgetExceeded, match="root system E8"):
        RootSystem("E", 8)
    monkeypatch.setattr(gfmat, "BUDGET_BYTES", 240 * 240 * 8)
    assert len(RootSystem("E", 8).roots) == 240


def test_bad_type_rejected():
    with pytest.raises((ValueError, KeyError)):
        build_root_system("H", 3)


def test_coefficients_past_the_root_chain_raise_value_error():
    # in A2 the a-string through b is b, a + b: M_3(a, b) needs 2a + b
    from chevalley.rootsys import _carter_coeff
    sc = structure_constants("A", 2)
    sys = sc.sys
    a, b = sys.fundamental
    assert sc.M(a, b, 1) == sc.N(a, b)
    with pytest.raises(ValueError):
        sc.M(a, b, 3)
    with pytest.raises(ValueError):
        _carter_coeff(sc, a, b, 2, 2)


def test_a_lower_case_type_is_refused():
    # the command line upper-cases a type; the library takes it as given,
    # so "g" is no second cached system beside "G"
    with pytest.raises(ValueError):
        build_root_system("g", 2)
    assert build_root_system("G", 2).type_label == "G"
