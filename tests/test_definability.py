import contextlib
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chevalley import definability, gfmat
from chevalley.chevgroup import centralizer_indices, classical_rep, enumerate_group
from chevalley.definability import (
    DC_TEXT, And, Eq, Exists, Forall, Implies, Inv, Mul, Not, One, Or, Param, ParseError,
    RingInGroup, ThetaMap, Var, check_ring_axioms, define_set, evaluate_sentence, free_vars,
    map_c, map_m, max_param, parse_formula, proj_pi1, verify_dc_formula, width_probe,
)
from chevalley.rings import GF

from oracles import theta_by_words


def test_parse_to_explicit_ast():
    g, h, x, a, p1 = Var("g"), Var("h"), Var("x"), Var("a"), Param(1)
    assert parse_formula("A g. g*g^-1=1") == Forall("g", Eq(Mul(g, Inv(g)), One()))
    assert parse_formula("E h. (x*h=h*x & !h=1)") == Exists("h", And(
        Eq(Mul(x, h), Mul(h, x)), Not(Eq(h, One()))))
    assert parse_formula("A a. (a*@1=@1*a -> a*x=x*a)") == Forall("a", Implies(
        Eq(Mul(a, p1), Mul(p1, a)), Eq(Mul(a, x), Mul(x, a))))


def test_parse_errors():
    for bad in ("g*", "A . g=1", "g==h", "(g=1", "g=1 extra"):
        with pytest.raises(ParseError):
            parse_formula(bad)


def test_free_vars():
    f = parse_formula("A g. (g*h=h*g & E k. k=x)")
    assert free_vars(f) == {"h", "x"}
    # a quantifier binds its body only, whichever side of it the walk meets first
    for text in ("(A g. g=1) & g*h=x", "g*h=x & A g. g=1"):
        assert free_vars(parse_formula(text)) == {"g", "h", "x"}


def test_walks_of_a_formula_built_10000_levels_deep():
    # too deep for any recursive walk; the walk behind both keeps its own stack
    f = Eq(Var("x"), Param(2))
    for i in range(10_000):
        f = Forall(f"v{i}", And(Eq(Mul(Var(f"v{i}"), Var("y")), Param(1)), f))
    assert free_vars(f) == {"x", "y"}
    assert max_param(f) == 2


def test_sentences(group_of):
    E = group_of("classical", "A", 2, 2)
    assert evaluate_sentence(parse_formula("A g. g*g^-1=1"), E, [])
    assert evaluate_sentence(parse_formula("E g. (g*g=1 & !g=1)"), E, [])
    assert not evaluate_sentence(parse_formula("A g. A h. g*h=h*g"), E, [])


def test_missing_parameter_refused_even_where_no_row_reaches_it(group_of):
    E = group_of("classical", "A", 2, 2)
    u = E.rep.x(E.ring, 0, E.ring.one)
    with pytest.raises(ValueError, match="@3"):
        evaluate_sentence(parse_formula("1=1 | @3=1"), E, [u])
    with pytest.raises(ValueError, match="@2"):
        define_set(parse_formula("x=x | x=@2"), E, [u])


@pytest.mark.parametrize("by_matrices", [False, True], ids=["numbers", "matrices"])
def test_parameter_outside_the_group_refused_before_evaluating(group_of, by_matrices, monkeypatch):
    # a singular matrix has no element number; both representations refuse
    # it, naming the parameter, before any row is evaluated
    E = group_of("classical", "A", 2, 2)
    u = E.rep.x(E.ring, 0, E.ring.one)
    stranger = np.zeros((3, 3), dtype=E.ring.dtype)
    if by_matrices:
        monkeypatch.setattr(E, "mul_table", None)
    monkeypatch.setattr(definability, "_eval", mock.Mock(side_effect=AssertionError("evaluated")))
    with pytest.raises(ValueError, match="@2"):
        define_set(parse_formula("x=@1 | x=@2"), E, [u, stranger])
    with pytest.raises(ValueError, match="@1"):
        evaluate_sentence(parse_formula("E g. g=@1"), E, [stranger])


def test_define_set_multiplies_no_matrix_once_the_table_exists(group_of, monkeypatch):
    # products, inverses and the identity are element numbers: the DC
    # formula and a formula with inverses make no gfmat.mat_mul call
    E = group_of("classical", "A", 2, 2)
    assert E.mul_table is not None
    F, params = definability.dc_definition_formula(E.rep, E.ring, 0)
    want = [define_set(F, E, params).tolist()]
    G = parse_formula("E h. (x=h*@1*h^-1 & !x=1)")
    with _by_matrices(E, True):
        want += [define_set(F, E, params).tolist(), define_set(G, E, params).tolist()]
    monkeypatch.setattr(gfmat, "mat_mul", mock.Mock(side_effect=AssertionError("mat_mul called")))
    assert define_set(F, E, params).tolist() == want[0] == want[1]
    assert define_set(G, E, params).tolist() == want[2]


def test_define_set_matches_centralizer_scan(group_of):
    E = group_of("classical", "A", 2, 3)
    u = E.rep.x(E.ring, 0, E.ring.one)
    F = Eq(Mul(Var("g"), Param(1)), Mul(Param(1), Var("g")))
    got = set(define_set(F, E, [u]).tolist())
    want = set(centralizer_indices(E.ring, E.elements, [u]).tolist())
    assert got == want


def test_define_set_scans_each_guard_once(group_of, monkeypatch):
    E = group_of("classical", "A", 2, 3)  # 5 616 elements
    u = E.rep.x(E.ring, 0, E.ring.one)
    scans = []
    guard_mask = definability._guard_mask
    monkeypatch.setattr(definability, "_guard_mask", lambda *a: scans.append(a) or guard_mask(*a))
    F = parse_formula(DC_TEXT)
    got = define_set(F, E, [u])
    # each formula is scanned once: define_set's own scan, then its guard's
    assert len(scans) == 2 and scans[0][1] is F and scans[1][1] is F.body.left
    C = centralizer_indices(E.ring, E.elements, [u])
    assert got.tolist() == centralizer_indices(E.ring, E.elements, E.elements[C]).tolist()


@pytest.mark.parametrize("by_matrices", [False, True], ids=["numbers", "matrices"])
def test_a_guard_mask_belongs_to_its_bound_variable(group_of, by_matrices, monkeypatch):
    # the same guard text under E x and under E y, which the guard does not
    # mention: x's range is C(@1), y's is the whole group, so every g holds
    E = group_of("classical", "A", 2, 2)
    u = E.rep.x(E.ring, 0, E.ring.one)
    scans = []
    guard_mask = definability._guard_mask
    monkeypatch.setattr(definability, "_guard_mask", lambda *a: scans.append(a[0]) or guard_mask(*a))
    with _by_matrices(E, by_matrices):
        got = define_set(parse_formula("E x. (x*@1=@1*x & E y. (x*@1=@1*x & y=g))"), E, [u])
    assert got.tolist() == list(range(E.order))
    assert scans == ["g", "x"]  # the whole formula, then x's guard once; y's is no mask


@pytest.mark.parametrize("by_matrices", [False, True], ids=["numbers", "matrices"])
def test_define_set_keeps_the_order_of_a_product(group_of, by_matrices):
    # x_a(1) and x_-a(1) do not commute in SL3(F2): x=@1*@2 holds at the
    # number of @1 @2 alone, taken here by integer matrix products
    E = group_of("classical", "A", 2, 2)
    ring, a = E.ring, 0
    p1, p2 = E.rep.x(ring, a, ring.one), E.rep.x(ring, E.rep.sys.neg(a), ring.one)
    p12, p21 = ((x.astype(np.int64) @ y.astype(np.int64) % 2).astype(ring.dtype) for x, y in ((p1, p2), (p2, p1)))
    assert not np.array_equal(p12, p21)
    with _by_matrices(E, by_matrices):
        got = define_set(parse_formula("x=@1*@2"), E, [p1, p2])
    assert got.tolist() == [E.idx(p12)]


def test_define_set_skips_decided_rows(group_of, monkeypatch):
    # a candidate leaves the scan at the first h that fails to commute with
    # it, so far fewer than |G| products per candidate are needed
    E = group_of("classical", "A", 2, 3)
    u = E.rep.x(E.ring, 0, E.ring.one)
    made = []
    mat_mul = gfmat.mat_mul

    def counting(ring, A, B):
        C = mat_mul(ring, A, B)
        made.append(C.size // (C.shape[-1] * C.shape[-2]))
        return C

    monkeypatch.setattr(gfmat, "mat_mul", counting)
    got = define_set(parse_formula(DC_TEXT), E, [u])
    assert len(got) == 3
    assert sum(made) < 10 * E.order


# -- an independent oracle for the evaluator: element by element, over
# tuples of integers, sharing nothing with define_set but the AST


class _Naive:
    def __init__(self, elements: np.ndarray, p: int):
        self.d, self.p = elements.shape[-1], p
        self.elems = [tuple(int(c) for c in m.ravel()) for m in elements]
        self.one = tuple(int(i == j) for i in range(self.d) for j in range(self.d))

    @functools.cache
    def mul(self, a, b):
        d = self.d
        return tuple(sum(a[i * d + k] * b[k * d + j] for k in range(d)) % self.p
                     for i in range(d) for j in range(d))

    @functools.cache
    def inv(self, a):
        return next(b for b in self.elems if self.mul(a, b) == self.one)

    def term(self, t, env):
        if isinstance(t, Var):
            return env[t.name]
        if isinstance(t, Param):
            return env[f"@{t.k}"]
        if isinstance(t, One):
            return self.one
        if isinstance(t, Mul):
            return self.mul(self.term(t.left, env), self.term(t.right, env))
        return self.inv(self.term(t.arg, env))

    def holds(self, f, env) -> bool:
        if isinstance(f, Eq):
            return self.term(f.left, env) == self.term(f.right, env)
        if isinstance(f, Not):
            return not self.holds(f.arg, env)
        if isinstance(f, And):
            return self.holds(f.left, env) and self.holds(f.right, env)
        if isinstance(f, Or):
            return self.holds(f.left, env) or self.holds(f.right, env)
        if isinstance(f, Implies):
            return not self.holds(f.left, env) or self.holds(f.right, env)
        every = all if isinstance(f, Forall) else any
        return every(self.holds(f.body, {**env, f.var: g}) for g in self.elems)


@functools.cache
def _terms(scope):
    leaves = [st.just(Var(v)) for v in scope] + [st.builds(Param, st.integers(1, 2)), st.just(One())]
    return st.recursive(st.one_of(leaves),
                        lambda t: st.one_of(st.builds(Mul, t, t), st.builds(Inv, t)), max_leaves=3)


@st.composite
def _formulas(draw, scope, quants, depth=3):
    """Formulas over the variables in scope with at most `quants`
    quantifiers, guarded and unguarded; a bound name may shadow an outer one."""
    kinds = ["eq"] + (["not", "and", "or", "implies"] if depth else [])
    kinds += ["forall", "exists"] if depth and quants else []
    kind = draw(st.sampled_from(kinds))
    if kind == "eq":
        return Eq(draw(_terms(scope)), draw(_terms(scope)))
    if kind == "not":
        return Not(draw(_formulas(scope, quants, depth - 1)))
    if kind in ("and", "or", "implies"):
        k = draw(st.integers(0, quants))
        cls = {"and": And, "or": Or, "implies": Implies}[kind]
        return cls(draw(_formulas(scope, k, depth - 1)), draw(_formulas(scope, quants - k, depth - 1)))
    var = draw(st.sampled_from(("y", "z", "w")))
    guarded = draw(st.booleans())  # a guard on var alone: its range is restricted up front
    k = draw(st.integers(0, quants - 1)) if guarded else 0
    body = draw(_formulas(tuple(sorted(set(scope) | {var})), quants - 1 - k, depth - 1))
    if guarded:
        guard = draw(_formulas((var,), k, depth - 1))
        body = Implies(guard, body) if kind == "forall" else And(guard, body)
    return (Forall if kind == "forall" else Exists)(var, body)


@functools.cache
def _naive(E) -> _Naive:
    return _Naive(E.elements, E.ring.size)


def _by_matrices(E, on: bool):
    """Evaluate on matrices, as groups without a multiplication table do."""
    return mock.patch.object(E, "mul_table", None) if on else contextlib.nullcontext()


def _rows_per_step(rows):
    """Cut the evaluator's rows per step to `rows` (None keeps it)."""
    if rows is None:
        return contextlib.nullcontext()
    init = definability._EvalCtx.__init__

    def cut(self, *args):
        init(self, *args)
        self.rows = rows

    return mock.patch.object(definability._EvalCtx, "__init__", cut)


@pytest.mark.parametrize("group, quants, rows", [
    ("SL3(F2)", 2, None),
    ("SL2(F3)", 3, None),
    ("SL2(F3)", 3, 7),  # blocks and quantifier steps cut short
    ("SL3(F2) by matrices", 2, None),  # the table set aside
    ("SL2(F3) by matrices", 3, None),
])
@settings(deadline=None, max_examples=80, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_evaluator_against_naive_oracle(group_of, sl2_f3, group, quants, rows, data):
    """define_set and evaluate_sentence agree with the naive semantics on
    random formulas, on element numbers through the multiplication table
    and on matrices.  Over SL3(F2) the extension is compared on 16 sampled
    candidates, which bounds the naive side by 16 * 168^2 steps."""
    E = group_of("classical", "A", 2, 2) if group.startswith("SL3(F2)") else sl2_f3
    naive = _naive(E)
    picks = data.draw(st.lists(st.integers(0, E.order - 1), min_size=2, max_size=2))
    params = [E.elements[i] for i in picks]
    env = {f"@{k + 1}": naive.elems[i] for k, i in enumerate(picks)}
    F = data.draw(_formulas(("x",), quants), label="F")
    if "x" not in free_vars(F):
        F = And(Eq(Var("x"), Var("x")), F)
    S = data.draw(_formulas((), quants), label="sentence")
    xs = range(E.order) if E.order <= 24 else data.draw(
        st.lists(st.integers(0, E.order - 1), min_size=16, max_size=16, unique=True))
    with _rows_per_step(rows), _by_matrices(E, group.endswith("by matrices")):
        got = set(define_set(F, E, params).tolist())
        value = evaluate_sentence(S, E, params)
    assert [i in got for i in xs] == [naive.holds(F, {**env, "x": naive.elems[i]}) for i in xs]
    assert value == naive.holds(S, env)


@pytest.mark.parametrize("table", [True, False], ids=["numbers", "matrices"])
def test_evaluator_rows_follow_the_block_rule(table, monkeypatch):
    """Under a small budget the evaluator's rows per step are gfmat's block
    rows, fewer than |G|, on element numbers and on matrices alike; no
    formula is evaluated on more rows at once, and define_set and
    evaluate_sentence give the answers of the default budget."""
    rep, ring = classical_rep("A", 2), GF(2)
    E = enumerate_group(rep, ring)  # its own group: the shared one keeps its table
    params = [rep.x(ring, 0, ring.one)]
    F = parse_formula(DC_TEXT)
    S = parse_formula("E g. ((g*g=1 & !g=1) & A h. (h*@1=@1*h -> g*h=h*g))")
    want = define_set(F, E, params).tolist(), evaluate_sentence(S, E, params)
    monkeypatch.setattr(gfmat, "BUDGET_BYTES", 1 << 16)
    if not table:
        E = enumerate_group(rep, ring)  # built under the small budget: no table fits
    ctx = definability._EvalCtx(E, [])
    assert (ctx.table is not None) == table
    assert ctx.rows == gfmat.block_rows(ring, 3, 1) < E.order
    sizes = []
    evaluate = definability._eval

    def recording(f, env, n, ctx):
        sizes.append(n)
        return evaluate(f, env, n, ctx)

    monkeypatch.setattr(definability, "_eval", recording)
    assert (define_set(F, E, params).tolist(), evaluate_sentence(S, E, params)) == want
    assert max(sizes) == ctx.rows


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


@pytest.mark.parametrize("spec", ["A", "C"], ids=["SL3(F3)", "Sp4(F3)"])
def test_stacked_transports_are_the_single_ones(spec):
    # map_c on a whole root subgroup, in any stack shape, and map_m on all
    # pairs at once, against one call per element and per pair
    rep, ring = classical_rep(spec, 2), GF(3)
    n, q = len(rep.sys.roots), ring.size
    U = [rep.root_subgroup(ring, a) for a in range(n)]
    for a in range(n):
        for b in range(n):
            single = np.stack([map_c(rep, ring, a, b, U[a][r]) for r in range(q)])
            assert np.array_equal(single, U[b])
            assert np.array_equal(map_c(rep, ring, a, b, U[a]), single)
            assert np.array_equal(map_c(rep, ring, a, b, U[a][[[2, 0], [1, 1]]]), single[[[2, 0], [1, 1]]])
    for a, b, c in [(0, 0, 0), (0, n - 1, 1), (n - 1, 1, 0)]:
        got = map_m(rep, ring, a, b, c, U[a][:, None], U[b][None])
        single = np.stack([[map_m(rep, ring, a, b, c, U[a][r], U[b][s]) for s in range(q)] for r in range(q)])
        assert np.array_equal(got, single) and np.array_equal(single, U[c][ring.mul_t])


def test_proj_pi1_of_a_stack_refuses_an_element_outside_the_product():
    # U_{a+b} U_a U_b in SL3: the first factor of each product, and a
    # ValueError for a stack with one element outside it
    rep, ring = classical_rep("A", 2), GF(3)
    sys = rep.sys
    a, b = next((a, b) for a in range(sys.n_pos) for b in range(sys.n_pos)
                if sys.sum_root(a, b) is not None)
    roots = [sys.sum_root(a, b), a, b]
    U = [rep.root_subgroup(ring, r) for r in roots]
    r = np.array([0, 1, 2, 2])
    g = gfmat.mat_mul_many(ring, [U[0][r], U[1][r[::-1]], U[2][[1, 2, 0, 2]]])
    assert np.array_equal(proj_pi1(rep, ring, roots, g), U[0][r])
    assert np.array_equal(proj_pi1(rep, ring, roots, g[1]), U[0][1])
    bad = g.copy()
    bad[2] = rep.x(ring, sys.neg(a), ring.one)
    with pytest.raises(ValueError, match="pi_1"):
        proj_pi1(rep, ring, roots, bad)
    # in U_a U_a every element of U_a is a first factor of each x_a(r)
    with pytest.raises(ValueError, match="has 3 points"):
        proj_pi1(rep, ring, [a, a], U[1][[0, 1]])


@pytest.mark.parametrize("q", [2, 3, 5])
def test_ring_axioms_inside_group(q):
    rig = RingInGroup(classical_rep("A", 2), GF(q))
    assert check_ring_axioms(rig)


@pytest.mark.parametrize("spec, q", [("A", 2), ("A", 3), ("A", 5), ("C", 3)],
                         ids=["SL3(F2)", "SL3(F3)", "SL3(F5)", "Sp4(F3)"])
def test_ring_in_group_tables_are_the_group_words(spec, q):
    rep, ring = classical_rep(spec, 2), GF(q)
    rig = RingInGroup(rep, ring)
    T, C, a0 = rig.table, rig.carrier, rig.a0
    for r in range(q):
        for s in range(q):
            assert T.add_t[r, s] == rig.decode(gfmat.mat_mul(ring, C[r], C[s])) == ring.add(r, s)
            assert T.mul_t[r, s] == rig.decode(map_m(rep, ring, a0, a0, a0, C[r], C[s])) \
                == ring.mul(r, s)
    assert check_ring_axioms(rig)
    T.mul_t[1, q - 1] = T.add_t[T.mul_t[1, q - 1], T.one]
    assert not check_ring_axioms(rig)


def test_theta_round_trip_sl3_f2(group_of):
    E = group_of("classical", "A", 2, 2)
    tm = ThetaMap(E)
    assert all(tm.round_trip(i) for i in range(E.order))


def test_theta_through_parents_is_the_word_product_sl3_f2(group_of):
    E = group_of("classical", "A", 2, 2)
    tm = ThetaMap(E)
    for i in np.random.default_rng(1).permutation(E.order):  # parents met before and after
        got = tm.theta(int(i))
        assert not got.flags.writeable
        assert np.array_equal(got, theta_by_words(tm, int(i)))


def test_theta_round_trip_sample_sl3_f3(group_of):
    E = group_of("classical", "A", 2, 3)
    tm = ThetaMap(E)
    rng = np.random.default_rng(0)
    for i in rng.choice(E.order, size=100, replace=False):
        assert tm.round_trip(int(i))


def test_width_probe(group_of):
    res = width_probe(group_of("classical", "A", 2, 3))
    assert res["order"] == 5616 and 1 <= res["width"] <= 12
