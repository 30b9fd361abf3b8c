import itertools

import numpy as np
import pytest

from chevalley import adelic, definability, gfmat
from chevalley.adelic import (
    SL2Group, _coset_labels, centralizer_H, define_AT, define_U, define_W, gamma1_factor,
    gamma1_report, h_set, higher_rank_width, k_alpha_product, make_tau,
    formula_report, mult_formula_P, sl2_formula_report, theta_report, theta_sl2, theta_decode,
    u_set, v_set, w_correction,
)
from chevalley.chevgroup import EnumeratedGroup
from chevalley.cli import suite_adelic
from chevalley.definability import define_set, parse_formula
from chevalley.rings import GF, ProductRing, decompose_square_diff

from oracles import sorted_matrices

F7 = GF(7)


@pytest.fixture(scope="module")
def g7():
    return SL2Group(F7)


@pytest.fixture(scope="module")
def g7x11():
    return SL2Group(ProductRing([GF(7), GF(11)]))


def test_small_characteristics_rejected():
    for q in (2, 3, 4, 5):
        with pytest.raises(ValueError):
            SL2Group(GF(q))
    with pytest.raises(ValueError):
        SL2Group(ProductRing([GF(7), GF(5)]))


def test_nonfield_rejected():
    from chevalley.rings import Zmod
    with pytest.raises(ValueError):
        SL2Group(Zmod(49))


def test_orders_per_mode():
    for mode, order in (("SL2", 336), ("SL2modZ", 168), ("PSL2", 168)):
        assert SL2Group(F7, mode=mode).order == order
    pr = ProductRing([GF(7), GF(11)])
    for mode, order in (("SL2", 443520), ("SL2modZ", 221760), ("PSL2", 110880)):
        assert SL2Group(pr, mode=mode).order == order


def test_tau_has_order_above_two(g7):
    tau = make_tau(F7)
    assert F7.mul(tau, tau) != F7.one and F7.is_unit(tau)


def test_centralizer_of_h_tau_is_torus(g7):
    H = centralizer_H(g7, make_tau(F7))
    hs = h_set(g7)
    assert {m.tobytes() for m in H} == {m.tobytes() for m in hs}
    assert len(H) == 6


def test_u_v_h_sizes(g7):
    assert len(u_set(g7)) == 7 and len(v_set(g7)) == 7 and len(h_set(g7)) == 6


def test_define_U_complete_with_zero(g7):
    res = define_U(g7, S=(F7.zero,))
    assert res["complete"] and res["size"] == res["expected"] == 7


def test_define_U_incomplete_without_offsets(g7):
    res = define_U(g7, S=())
    assert not res["complete"] and res["size"] < res["expected"]


def test_mult_formula_P_all_pairs(g7):
    for a in range(7):
        for b in range(7):
            y3 = mult_formula_P(g7, g7.u(F7.dtype(a)), g7.u(F7.dtype(b)))
            assert (g7.canon(y3) == g7.canon(g7.u(F7.mul(F7.dtype(a), F7.dtype(b))))).all()


def _p_by_word(G, y1, y2, S):
    """Scalar oracle for P: the defining word y1^x y1^{-y} u(s)^z u(s)^{-r} u(st)
    evaluated on one pair with the group's single-matrix operations."""
    ring = G.ring
    beta, alpha = G.u_decode(G.canon(y1)), G.u_decode(G.canon(y2))
    xi, eta, s = decompose_square_diff(ring, alpha, S)
    zeta, rho, t = decompose_square_diff(ring, beta, S)
    x, y, z, r = G.h(xi), G.h(eta), G.h(zeta), G.h(rho)
    us = G.u(s)
    out = G.mul(G.conj(y1, x), G.conj(G.inv(y1), y))
    out = G.mul(out, G.conj(us, z))
    out = G.mul(out, G.conj(G.inv(us), r))
    return G.mul(out, G.u(ring.mul(s, t)))


def _assert_p_table_is_the_word(G, S):
    ring = G.ring
    P = G.p_table(S)
    assert P.shape == (ring.size, ring.size)
    U = [G.u(ring.dtype(c)) for c in range(ring.size)]
    for b in range(ring.size):
        for a in range(ring.size):
            want = _p_by_word(G, U[b], U[a], S)
            assert (G.u(P[b, a]) == want).all()
            assert (mult_formula_P(G, U[b], U[a], S) == want).all()
    assert np.array_equal(P, ring.mul_t)


@pytest.mark.parametrize("mode", SL2Group.MODES)
@pytest.mark.parametrize("S", [(0,), (0, 1)])
def test_p_table_is_the_word_over_f7(mode, S):
    _assert_p_table_is_the_word(SL2Group(F7, mode), S)


def test_p_table_is_the_word_over_f7xf11(g7x11):
    _assert_p_table_is_the_word(g7x11, (0,))


def _f7_check(modes=SL2Group.MODES):
    """The adelic suite's one check over F7."""
    (check,) = suite_adelic({"primes": (7,), "modes": modes}, 0)["checks"]
    return check


def test_corrupted_p_table_fails_the_all_pairs_check(monkeypatch):
    def corrupted(G, S):
        P = p_word(G, S)
        # 2 * 3 != 1, so theta's check of u(xi) * u(1/xi) passes and the report completes
        P[2, 3] = G.ring.add(P[2, 3], G.ring.one)
        return P

    p_word = adelic._p_word
    assert _f7_check(("SL2",))["data"]["P"]
    monkeypatch.setattr(adelic, "_p_word", corrupted)
    check = _f7_check(("SL2",))
    assert not check["data"]["P"] and check["status"] == "fail"


@pytest.mark.parametrize("modes", [SL2Group.MODES, ("PSL2",)], ids=["all-modes", "PSL2"])
def test_suite_builds_one_group_per_mode(modes, monkeypatch):
    # the checks of SL2(A) alone and the formulas run on the SL2 group of the
    # mode loop, or on one SL2 group built for both when SL2 is not a mode
    built = []
    init = SL2Group.__init__

    def counting(self, ring, mode="SL2"):
        built.append(mode)
        init(self, ring, mode)

    monkeypatch.setattr(SL2Group, "__init__", counting)
    check = _f7_check(modes)
    assert sorted(built) == sorted(set(modes) | {"SL2"})
    assert check["status"] == "pass" and all(check["data"]["formulas"].values())


def test_suite_fails_when_one_mode_fails_theta(monkeypatch):
    theta_report = adelic.theta_report
    monkeypatch.setattr(adelic, "theta_report", lambda G, **kw: {**theta_report(G, **kw), "ok": G.mode != "PSL2"})
    check = _f7_check()
    assert check["data"]["theta"] == {"SL2": True, "SL2modZ": True, "PSL2": False}
    assert check["status"] == "fail"


def test_suite_fails_when_u_is_not_bijective_in_one_mode(monkeypatch):
    # one u(c) listed twice in SL2modZ: every check in the data still holds
    assert _f7_check()["status"] == "pass"
    u = adelic.u_set
    monkeypatch.setattr(adelic, "u_set", lambda G: np.concatenate([u(G), u(G)[:1]]) if G.mode == "SL2modZ" else u(G))
    check = _f7_check()
    assert all(all(v.values()) if isinstance(v, dict) else v for v in check["data"].values())
    assert check["status"] == "fail"


def test_u_ring_is_the_ring_on_u(g7x11):
    T, ring = g7x11.u_ring, g7x11.ring
    assert T.kind == "table" and (T.zero, T.one) == (ring.zero, ring.one)
    for t in ("add_t", "mul_t", "neg_t"):
        assert np.array_equal(getattr(T, t), getattr(ring, t))


def test_define_AT(g7):
    res = define_AT(g7, (F7.zero, F7.one))
    assert res["ok"] and res["codes"] == [0, 1]


def test_define_W(g7):
    res = define_W(g7)
    assert res["ok"] and res["size"] == 2


def test_gamma1_factorization(g7):
    g = np.array([[2, 1], [3, 2]], dtype=F7.dtype)  # det = 1
    v, h, u = gamma1_factor(g7, g)
    from chevalley import gfmat
    prod = gfmat.mat_mul(F7, gfmat.mat_mul(F7, v, h), u)
    assert (prod == g).all()
    assert v[0, 1] == 0 and u[1, 0] == 0 and h[0, 1] == 0 and h[1, 0] == 0


def test_gamma1_rejects_non_sl2(g7):
    bad = np.array([[2, 1], [3, 5]], dtype=F7.dtype)  # det = 7 = 0 in F7
    with pytest.raises(ValueError):
        gamma1_factor(g7, bad)


def test_gamma1_needs_unit_corner(g7):
    with pytest.raises(ValueError):
        gamma1_factor(g7, g7.w)


def test_w_correction_restores_unit_corner(g7):
    x = w_correction(g7, g7.w)
    gx = g7.mul(g7.w, x)
    assert F7.is_unit(gx[0, 0])


def _break_h(G, monkeypatch):
    monkeypatch.setattr(G, "h", G.u)


def _break_mul(G, monkeypatch):
    monkeypatch.setattr(G, "mul", lambda a, b: a)


def _break_p(G, monkeypatch):
    P = G.p_table()
    P[5, 3] = F7.zero  # theta of h(5) checks u(5) * u(1/5) = u(1), and 1/5 = 3 in F7


@pytest.mark.parametrize("call, breaks", [
    (lambda G: gamma1_factor(G, np.array([[2, 1], [3, 2]], dtype=F7.dtype)), _break_h),
    (lambda G: w_correction(G, np.array([[0, 1], [6, 0]], dtype=F7.dtype)), _break_mul),
    (lambda G: theta_sl2(G, G.h(F7.dtype(5))), _break_p),
], ids=["gamma1_factor", "w_correction", "theta_h"])
def test_failed_reconstruction_raises(call, breaks, monkeypatch):
    G = SL2Group(F7)
    call(G)
    breaks(G, monkeypatch)
    with pytest.raises(RuntimeError):
        call(G)


def test_gamma1_report_records_a_failed_reconstruction(monkeypatch):
    G = SL2Group(F7)
    _break_h(G, monkeypatch)
    res = gamma1_report(G)
    assert not res["reconstructs"] and not res["ok"]


def test_stacks_equal_rows(g7x11):
    G = g7x11
    ring = G.ring
    zero = [f.zero == c for f, c in zip(ring.factors, ring.decode_array(G.elements[:, 0, 0]))]
    # corner zero in neither factor, in the first only, in the second only
    patterns = (~zero[0] & ~zero[1], zero[0] & ~zero[1], ~zero[0] & zero[1])
    rng = np.random.default_rng(0)
    g = G.elements[np.concatenate([rng.choice(np.nonzero(m)[0], 4) for m in patterns])]
    x = w_correction(G, g)
    assert len(np.unique(G.idx(x))) == 3

    def factor(G, m):
        return np.stack(gamma1_factor(G, m), axis=-3)

    for fn, stack in ((theta_sl2, g), (w_correction, g), (factor, G.mul(g, x))):
        assert np.array_equal(fn(G, stack), np.stack([fn(G, m) for m in stack]))


def test_gamma1_report(g7):
    res = gamma1_report(g7)
    # unit top-left corner: 6 choices of a, free b and c, d determined
    assert res["ok"] and res["size"] == 6 * 7 * 7


def test_theta_is_isomorphism(g7):
    res = theta_report(g7, seed=0)
    assert res["ok"] and res["round_trip"] and res["multiplicative"]


def test_theta_decode_round_trip_samples(g7):
    rng = np.random.default_rng(2)
    for i in rng.integers(g7.order, size=25):
        g = g7.elements[int(i)]
        assert (g7.canon(theta_decode(g7, theta_sl2(g7, g))) == g7.canon(g)).all()


def test_k_alpha_covers_sl2_f7(g7):
    res = k_alpha_product(g7)
    assert res["covered"] and res["w_reached"] and res["h_reached"]


def _stagewise_k_alpha(G):
    """The K_alpha stage sizes by matrix products.  U and V are subgroups
    and the factors alternate, so R_{k-1} F_{k+1} = R_{k-1} lies in R_k:
    R_{k+1} = R_k | (R_k - R_{k-1}) F_{k+1}, and each stage multiplies only
    the elements that were new at the stage before, in blocks of rows."""
    mask = np.zeros(G.order, dtype=bool)
    new = G.canon(gfmat.identity(G.ring, 2))[None]  # R_1 = 1 F_1
    sizes = []
    for fac in [v_set(G), u_set(G)] * 4:
        before = mask.copy()
        rows = gfmat.block_rows(G.ring, 2, len(fac))
        for lo in range(0, len(new), rows):
            mask[G.idx(G.mul(new[lo:lo + rows, None], fac[None]))] = True
        new = G.elements[mask & ~before]
        sizes.append(int(mask.sum()))
    return sizes


F7xF7 = ProductRing([GF(7), GF(7)])  # (A, +) is not cyclic


@pytest.mark.parametrize("ring, mode", [(F7, m) for m in SL2Group.MODES] + [(GF(11), m) for m in SL2Group.MODES]
                         + [(F7xF7, "PSL2")],
                         ids=list(SL2Group.MODES) + [f"F11-{m}" for m in SL2Group.MODES] + ["F7xF7-PSL2"])
def test_k_alpha_stage_sizes_are_the_stagewise_product(ring, mode):
    G = SL2Group(ring, mode)
    assert k_alpha_product(G)["stage_sizes"] == _stagewise_k_alpha(G)


@pytest.mark.parametrize("mode", SL2Group.MODES)
def test_coset_labels_are_the_least_number_in_each_coset(mode):
    G = SL2Group(F7, mode)
    for X in (u_set(G), v_set(G)):
        assert np.array_equal(_coset_labels(G, X), G.idx(G.mul(G.elements[:, None], X[None])).min(axis=1))


@pytest.mark.parametrize("mode", SL2Group.MODES)
def test_k_alpha_stage_sizes_are_the_same_in_small_blocks(mode, monkeypatch):
    G = SL2Group(F7, mode)
    want = k_alpha_product(G)["stage_sizes"]
    monkeypatch.setattr(gfmat, "BUDGET_BYTES", 1 << 16)  # blocks of 18 rows
    assert gfmat.block_rows(G.ring, 2, len(u_set(G))) < np.diff(want).max()
    assert k_alpha_product(G)["stage_sizes"] == want


def test_k_alpha_refuses_a_factor_that_is_not_a_subgroup(monkeypatch):
    monkeypatch.setattr(adelic, "u_set", lambda G: u_set(G)[1:])
    with pytest.raises(RuntimeError):
        k_alpha_product(SL2Group(F7))


def test_formula_report_f7():
    rpt = sl2_formula_report(F7)
    assert all(v["match"] for v in rpt.values())


def test_formula_report_f7_by_matrices(monkeypatch):
    # the same five definitions evaluated on matrices, with no group given a
    # multiplication table, match the same direct constructions
    monkeypatch.setattr(EnumeratedGroup, "mul_table", None)
    assert SL2Group(F7).mul_table is None
    rpt = sl2_formula_report(F7)
    assert sorted(rpt) == sorted(("H", "U", "AT", "W", "G1")) and all(v["match"] for v in rpt.values())


@pytest.mark.parametrize("mode,squares", [("SL2", 2), ("SL2modZ", 22), ("PSL2", 22)])
def test_evaluator_applies_the_group_product_in_every_mode(mode, squares, monkeypatch):
    # with the table set aside the evaluator multiplies matrices by the
    # group's own product, through canon, and reads a parameter as its coset:
    # -u(1) is u(1) in a quotient mode
    G = SL2Group(F7, mode)
    minus_u = F7.neg_t[G.u(F7.one)]
    cases = [("x*x=1", []), ("x=@1", [minus_u]), ("x1*@1=@1*x1", [G.h(make_tau(F7))])]
    by_table = [define_set(parse_formula(f), G, params).tolist() for f, params in cases]
    monkeypatch.setattr(G, "mul_table", None)
    by_matrices = [define_set(parse_formula(f), G, params).tolist() for f, params in cases]
    assert by_matrices == by_table
    squares_got, minus_u_got, h_got = by_matrices
    assert len(squares_got) == squares
    assert minus_u_got == [G.idx(minus_u)]
    assert h_got == G.idx(centralizer_H(G, make_tau(F7))).tolist()


def test_formula_report_scans_each_guard_once(monkeypatch):
    # one scan per distinct (bound variable, guard), the scan of the whole
    # formula included: the H guards of x and y in U-membership and in P
    # are scanned once between them
    scans = []
    guard_mask = definability._guard_mask
    monkeypatch.setattr(definability, "_guard_mask", lambda *a: scans.append(a[:2]) or guard_mask(*a))
    counts = {}
    for name in ("H", "U", "AT", "W", "G1"):
        scans.clear()
        assert sl2_formula_report(GF(11), (name,))[name]["match"]
        assert len(set(scans)) == len(scans)
        counts[name] = len(scans)
    assert counts == {"H": 1, "U": 3, "AT": 5, "W": 3, "G1": 6}


def test_formula_report_product_h_w(g7x11):
    rpt = formula_report(g7x11, sets=("H", "W"))
    assert all(v["match"] for v in rpt.values())


def test_quotient_modes_canonical(g7):
    gm = SL2Group(F7, mode="PSL2")
    minus = gm.ring.neg_t[gm.elements[5]]
    assert (gm.canon(minus) == gm.elements[5]).all()


def test_higher_rank_width_sl3_f3(group_of):
    res = higher_rank_width(group_of("classical", "A", 2, 3))
    assert res["order"] == 5616 and res["N"] == 11


def _width_by_products(rep, ring):
    """The width report by matrix products: each product set times the next
    root subgroup, deduplicated by `MatSet.unique`, the roots taken in order
    until as many steps in a row as there are roots add nothing."""
    codes = np.arange(ring.size, dtype=ring.dtype)
    subgroups = [(a, rep.x_batch(ring, a, codes)) for a in range(len(rep.sys.roots))]
    cur = gfmat.identity(ring, rep.dim)[None]
    sequence, sizes, stable_run = [], [], 0
    while stable_run < len(subgroups):
        for a, sub in subgroups:
            new = gfmat.MatSet.unique(ring, gfmat.mat_mul(ring, cur[:, None], sub[None]).reshape(-1, rep.dim, rep.dim))
            sequence.append(a)
            sizes.append(len(new))
            stable_run = stable_run + 1 if len(new) == len(cur) else 0
            cur = new
            if stable_run >= len(subgroups):
                break
    n = next(i for i, s in enumerate(sizes) if s == sizes[-1]) + 1
    return {"order": sizes[-1], "N": n, "factors": sequence[:n], "sizes": sizes[:n]}


@pytest.mark.parametrize("spec", [("A", 2, 3), ("A", 2, 4), ("C", 2, 3)], ids=["SL3(F3)", "SL3(F4)", "Sp4(F3)"])
def test_higher_rank_width_is_the_product_of_root_subgroups(spec, group_of):
    E = group_of("classical", *spec)
    assert higher_rank_width(E) == _width_by_products(E.rep, E.ring)


def test_width_builds_no_product_larger_than_the_group(group_of, monkeypatch):
    # the product sets are unions of cosets: the largest product is the
    # group times one element of a root subgroup, not a product set times X_a
    E = group_of("classical", "A", 2, 3)
    built = []
    mat_mul = gfmat.mat_mul

    def recording_mat_mul(ring, A, B):
        out = mat_mul(ring, A, B)
        built.append(out.size)
        return out

    monkeypatch.setattr(gfmat, "mat_mul", recording_mat_mul)
    assert higher_rank_width(E)["order"] == E.order
    assert built and max(built) <= E.elements.size


def test_idx_raises_key_error_off_group(g7):
    bad = np.array([[2, 0], [0, 2]], dtype=F7.dtype)  # det 4
    with pytest.raises(KeyError):
        g7.idx(bad)
    with pytest.raises(KeyError):
        g7.idx(np.stack([g7.elements[3], bad]))
    assert g7.idx(g7.elements[[9, 2]]).tolist() == [9, 2]


RINGS = [F7, ProductRing([GF(7), GF(11)])]
RING_IDS = ["F7", "F7xF11"]


@pytest.mark.parametrize("mode", SL2Group.MODES)
@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_sl2_group_keys_its_elements_once(ring, mode, monkeypatch):
    # each full-size stack is keyed once: canon keys nothing in any mode, so
    # the elements and the inverses are keyed, and the index keys nothing more
    keyed = []
    keys = gfmat.MatSet.keys

    def counting_keys(ring, mats):
        keyed.append(int(np.prod(np.shape(mats)[:-2])))
        return keys(ring, mats)

    monkeypatch.setattr(gfmat.MatSet, "keys", staticmethod(counting_keys))
    G = SL2Group(ring, mode)
    monkeypatch.undo()

    mats = adelic._componentwise(ring, [adelic._sl2_field(f) for f in adelic._field_factors(ring)])
    assert keyed == [G.order] * 2
    elements = sorted_matrices(gfmat.MatSet(ring, G.canon(mats)))
    numbered = gfmat.MatSet(ring, elements)
    assert np.array_equal(G.elements, elements)
    assert np.array_equal(G.inv_idx, numbered.index(G.canon(adelic._adjugate(ring, elements))))
    sample = mats[np.random.default_rng(5).integers(len(mats), size=500)]
    assert np.array_equal(G.idx(sample), numbered.index(G.canon(sample)))


def _central_scalars(ring, mode):
    if mode == "SL2":
        return [ring.one]
    if mode == "SL2modZ":
        return [ring.one, ring.neg(ring.one)]
    return [z for z in ring.units() if ring.mul(z, z) == ring.one]


def _canon_oracle(ring, mode, mats):
    # the stacked argmin over every central scalar's variant at once
    zs = _central_scalars(ring, mode)
    variants = np.stack([ring.mul_t[mats, z] for z in zs])
    pick = gfmat.MatSet.keys(ring, variants).argmin(axis=0)
    flat = variants.reshape(len(zs), -1, 2, 2)
    return flat[pick.ravel(), np.arange(flat.shape[1])].reshape(mats.shape)


def _grid(ring):
    return adelic._componentwise(ring, [adelic._sl2_field(f) for f in adelic._field_factors(ring)])


@pytest.mark.parametrize("mode", SL2Group.MODES)
@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_single_generators_are_the_rows_of_the_stacked_call(ring, mode):
    G = SL2Group(ring, mode)
    codes = np.arange(ring.size, dtype=ring.dtype)
    for gen, cs in ((G.u, codes), (G.v, codes), (G.h, codes[ring.unit_mask])):
        stack = gen(cs)
        for c, row in zip(cs, stack):
            single = gen(c)
            assert single.shape == (2, 2) and single.dtype == ring.dtype
            assert np.array_equal(single, row)
    U = G.u(codes)
    assert [G.u_decode(m) for m in U] == G.u_decode(U).tolist() == codes.tolist()


@pytest.mark.parametrize("mode", SL2Group.MODES)
@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_u_decode_refuses_a_single_matrix_outside_u(ring, mode):
    G = SL2Group(ring, mode)
    for i, j in ((0, 0), (1, 0), (1, 1)):  # each of the three entries u(c) fixes
        m = G.u(ring.one).copy()
        m[i, j] = ring.add(m[i, j], ring.one)
        with pytest.raises(ValueError):
            G.u_decode(m)
        with pytest.raises(ValueError):
            G.u_decode(np.stack([G.u(ring.one), m]))
    with pytest.raises(ValueError):
        G.u_decode(G.w)


@pytest.mark.parametrize("mode", SL2Group.MODES)
@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_running_min_canon_is_the_stacked_argmin(ring, mode):
    G = SL2Group(ring, mode)
    rand = np.random.default_rng(18).integers(ring.size, size=(3, 500, 2, 2)).astype(ring.dtype)
    grid = _grid(ring)
    for mats in (rand, grid, rand[0, 0]):
        assert np.array_equal(G.canon(mats), _canon_oracle(ring, mode, mats))
    # the elements are the grid's matrices that are their own canon
    assert np.array_equal(G.elements, sorted_matrices(gfmat.MatSet(ring, _canon_oracle(ring, mode, grid))))


def _small_entry_matrices(ring):
    """All 7^4 2 x 2 matrices over F7; over a product ring, the 9^4 whose
    entries have each component in {0, 1, -1}."""
    if not isinstance(ring, ProductRing):
        entries = np.arange(ring.size)
    else:
        comps = [(f.zero, f.one, f.neg(f.one)) for f in ring.factors]
        entries = np.array([ring.encode(v) for v in itertools.product(*comps)])
    return entries[np.indices((len(entries),) * 4).reshape(4, -1).T].reshape(-1, 2, 2).astype(ring.dtype)


@pytest.mark.parametrize("mode", SL2Group.MODES)
@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_canon_tables_are_the_stacked_argmin_on_small_entries(ring, mode):
    # zero rows, zero blocks and singular matrices included: the second row
    # decides the blocks on which the first row vanishes
    mats = _small_entry_matrices(ring)
    assert len(mats) == (2401 if ring is F7 else 6561)
    G = SL2Group(ring, mode)
    assert np.array_equal(G.canon(mats), _canon_oracle(ring, mode, mats))
    if mode != "SL2":
        pair, combine = G._canon_tables
        k = 1 if mode == "SL2modZ" else len(adelic._field_factors(ring))
        assert pair.shape == (ring.size, ring.size) and combine.shape == (3 ** k, 3 ** k)
        assert pair.dtype == np.uint8


@pytest.mark.parametrize("mode", SL2Group.MODES)
@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_single_generators_are_fresh_copies_of_read_only_rows(ring, mode, monkeypatch):
    G = SL2Group(ring, mode)
    codes = np.arange(ring.size, dtype=ring.dtype)
    one, zero, neg = ring.one, ring.zero, ring.neg_t
    inv = ring.inv_t
    by_hand = {"u": (one, codes, zero, one), "v": (one, zero, neg[codes], one), "h": (inv[codes], zero, zero, codes)}
    for name, (a, b, c, d) in by_hand.items():
        mats = np.empty((ring.size, 2, 2), dtype=ring.dtype)
        mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1] = a, b, c, d
        keep = ring.unit_mask if name == "h" else np.ones(ring.size, dtype=bool)
        rows = G._generator_rows[name]
        assert not rows.flags.writeable
        assert np.array_equal(rows[keep], _canon_oracle(ring, mode, mats[keep]))
        assert np.array_equal(getattr(G, name)(codes[keep]), rows[keep])
    # a single code reads its row and builds nothing
    monkeypatch.setattr(adelic, "_mats", None)
    for gen in (G.u, G.v, G.h):
        m = gen(ring.one)
        assert m.flags.writeable
        m[0, 0] = ring.add(m[0, 0], ring.one)
        assert not np.array_equal(gen(ring.one), m)


@pytest.mark.parametrize("S", [(0,), (0, 1)])
def test_p_tables_are_unchanged_by_the_batched_decomposition(S, g7x11, monkeypatch):
    # the (xi, eta, s) of each code as the scalar search found them one by one
    scalar = lambda ring, S: np.array([decompose_square_diff(ring, a, S) for a in range(ring.size)],
                                      dtype=ring.dtype)
    groups = [SL2Group(F7, mode) for mode in SL2Group.MODES] + [g7x11]
    batched = [adelic._p_word(G, S) for G in groups]
    monkeypatch.setattr(adelic, "square_diff_table", scalar)
    for G, P in zip(groups, batched):
        assert np.array_equal(P, adelic._p_word(G, S))
        assert np.array_equal(P, G.ring.mul_t)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_componentwise_in_the_ring_dtype_is_the_int64_build(ring):
    factors = adelic._field_factors(ring)
    strides = ring.strides if isinstance(ring, ProductRing) else [1]
    w = [np.array([[[f.one, f.zero], [f.zero, f.one]], [[f.zero, f.one], [f.neg(f.one), f.zero]]])
         for f in factors]
    for comps in ([adelic._sl2_field(f) for f in factors], w):
        want = np.zeros((1, 2, 2), dtype=np.int64)
        for comp, st in zip(comps, strides):
            want = (want[:, None] + st * np.asarray(comp, dtype=np.int64)[None]).reshape(-1, 2, 2)
        got = adelic._componentwise(ring, comps)
        assert got.dtype == ring.dtype and np.array_equal(got, want)
