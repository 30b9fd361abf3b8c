"""Witness sets and double-centralizer verification.

Three families of witnesses:

* torus witnesses: s in T(R) centralizing U_alpha and fixing no nontrivial
  element of U_beta, found by exhaustive search over short torus words
  (the search is complete: single elementary factors over all roots, a
  parity argument when R* = {+-1}, and two-factor words inside the span);
* the F4 extension: torus witnesses for all positive beta plus the three
  x_{-b}(1) elements covering the long roots orthogonal to a_1;
* the classical matrix witness sets for SL_n / Sp_2m / O_2m / O_2m+1
  (the sets Y, X1..X5), verified through the linear-commutant route.

verify_dc keeps the elements of an enumerated group inside the linear
commutants of u and of C(u), and compares C(C(u)) and Z(C(u)) with U(R)Z(R),
or U.U1.U2.Z(R) in the exceptional symplectic short-root case;
verify_dc_exceptional_sp4 checks Z(C(v)) of the commutant set against +-U.phi(R).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gfmat
from .chevgroup import (
    EnumeratedGroup,
    MatrixRep,
    adjoint_rep,
    centralizer_indices,
    classical_rep,
    commutant_group_points,
    commutant_indices,
    exceptional_short_root,
    linear_commutant,
    product_set,
    root_product_center,
)
from .rings import FiniteRing, hypothesis_profile
from .rootsys import RootSystem, build_root_system, commutator_template


# ---------------------------------------------------------------------------
# torus witnesses


_POW_CACHE: dict = {}


def _unit_pow_tables(ring: FiniteRing):
    """pow[t][e+3] = t^e for units t, in the order of ring.units(), and
    exponents -3..3, plus the mask of 'effective' multipliers mu (mu*r != r
    for every r != 0, i.e. mu-1 is not a zero divisor)."""
    if ring.name in _POW_CACHE:
        return _POW_CACHE[ring.name]
    pows = {}
    for t in ring.units():
        ti = ring.inv(t)
        row = [ring.one] * 7
        for e in range(1, 4):
            row[3 + e] = ring.mul(row[3 + e - 1], t)
            row[3 - e] = ring.mul(row[3 - e + 1], ti)
        pows[t] = np.array(row, dtype=ring.dtype)
    eff = np.zeros(ring.size, dtype=bool)
    nonzero = np.array([c for c in range(ring.size) if c != ring.zero])
    for mu in range(ring.size):
        delta = ring.sub(mu, ring.one)
        if delta == ring.zero:
            continue
        eff[mu] = bool((ring.mul_t[delta, nonzero] != ring.zero).all())
    _POW_CACHE[ring.name] = (pows, eff)
    return pows, eff


def torus_witness(sys: RootSystem, alpha: int, beta: int, ring: FiniteRing):
    """A torus word [(gamma, t), ...] whose product centralizes U_alpha(R)
    and fixes no nontrivial element of U_beta(R), or None if none exists.

    The search is exhaustive over the classes of words that can possibly
    help: all single elementary factors; for R* = {+-1} arbitrary products
    of h(-1) factors (reduced to a parity condition, hence complete); and
    two equal-parameter factors inside the rank-2 span."""
    if beta == alpha or beta == sys.neg(alpha):
        # proportional roots are the only linearly dependent pairs
        raise ValueError("torus witness requires linearly independent roots")
    pows, eff = _unit_pow_tables(ring)
    Aa = sys.cartan_all[:, alpha]  # A_{gamma alpha} over all gamma
    Ab = sys.cartan_all[:, beta]
    units = list(pows)  # ring.units(), in its order
    # single factor h_gamma(t): t^-A(g,a) = 1, t^-A(g,b) effective
    for t in units:
        if t == ring.one:
            continue
        row = pows[t]
        mask = (row[3 - Aa] == ring.one) & eff[row[3 - Ab]]
        hits = np.nonzero(mask)[0]
        if len(hits):
            return [(int(hits[0]), t)]
    profile_pm1 = set(units) == {ring.one, ring.neg(ring.one)}
    if profile_pm1:
        # every torus word is a product of h_gamma(-1); only the exponent
        # parities matter, so solvability is a GF(2) span condition
        m1 = ring.neg(ring.one)
        if not eff[m1]:
            return None
        pa, pb = Aa % 2, Ab % 2
        # parity (0,1) would have been found as a single factor
        g11 = np.nonzero((pa == 1) & (pb == 1))[0]
        g10 = np.nonzero((pa == 1) & (pb == 0))[0]
        if len(g11) and len(g10):
            return [(int(g11[0]), m1), (int(g10[0]), m1)]
        return None
    # two equal-parameter factors within the rank-2 span
    span = sys.span_roots(alpha, beta)
    good_t = [t for t in units if ring.pow(t, 2) != ring.one and ring.pow(t, 3) != ring.one]
    for t in good_t + [t for t in units if t != ring.one and t not in good_t]:
        row = pows[t]
        for g1 in span:
            for g2 in span:
                ea = -int(Aa[g1]) - int(Aa[g2])
                eb = -int(Ab[g1]) - int(Ab[g2])
                if ring.pow(t, ea) == ring.one and eff[ring.pow(t, eb)]:
                    return [(g1, t), (g2, t)]
    return None


def witness_word_matrix(rep: MatrixRep, ring: FiniteRing, word) -> np.ndarray:
    out = rep.identity(ring)
    for g, t in word:
        out = gfmat.mat_mul(ring, out, rep.h(ring, g, t))
    return out


def matrix_witness_check(rep: MatrixRep, ring: FiniteRing, word, alpha: int, beta: int) -> bool:
    """Matrix-level oracle for a torus word: conjugation fixes all of
    U_alpha(R) and no nontrivial element of U_beta(R)."""
    s = witness_word_matrix(rep, ring, word)
    sinv = witness_word_matrix(rep, ring, [(g, ring.inv(t)) for g, t in reversed(word)])
    if not (gfmat.mat_mul(ring, s, sinv) == rep.identity(ring)).all():
        raise RuntimeError("the reversed torus word does not invert the word")
    codes = np.arange(ring.size, dtype=ring.dtype)
    xa = rep.x_batch(ring, alpha, codes)
    conj_a = gfmat.mat_mul(ring, sinv[None], gfmat.mat_mul(ring, xa, s[None]))
    if not (conj_a == xa).all():
        return False
    nonzero = codes[codes != ring.zero]
    xb = rep.x_batch(ring, beta, nonzero)
    conj_b = gfmat.mat_mul(ring, sinv[None], gfmat.mat_mul(ring, xb, s[None]))
    fixed = (conj_b == xb).reshape(len(xb), -1).all(axis=1)
    return not fixed.any()


# ---------------------------------------------------------------------------
# witness sets


@dataclass
class WitnessSet:
    target_root: int
    elements: list  # matrices over the ring
    expected: str  # UZ | pmU | UU1U2Z
    extra_roots: tuple = ()  # the long adjacent roots for the UU1U2Z bound


def f4_b_roots(sys: RootSystem):
    """The three positive long roots orthogonal to a_1 in F4, with their
    published coefficient vectors cross-checked against the search."""
    if sys.type_label != "F":
        raise ValueError(f"F4 roots asked of type {sys.type_label}")
    a1 = sys.fundamental[0]
    by_search = sorted(
        g
        for g in range(sys.n_pos)
        if sys.is_long(g) and sys.gram6[g, a1] == 0
    )
    printed = [sys.index[v] for v in [(1, 2, 2, 0), (1, 2, 2, 2), (1, 2, 4, 2)]]
    if by_search != sorted(printed):
        raise RuntimeError("F4 exceptional roots differ from the printed ones")
    return printed


def f4_witness_set(ring: FiniteRing) -> WitnessSet:
    """Witness set for U_{a_1} in F4: torus witnesses for every positive
    beta outside {a_1, b_2, b_3, b_4}, plus x_{-b_i}(1) for the three
    exceptional long roots."""
    sys = build_root_system("F", 4)
    rep = adjoint_rep("F", 4)
    a1 = sys.fundamental[0]
    bs = f4_b_roots(sys)
    # the four root subgroups must commute elementwise: pairwise sums off Phi
    for r1 in [a1, *bs]:
        for r2 in [a1, *bs]:
            if r1 != r2 and sys.sum_root(r1, r2) is not None:
                raise RuntimeError(f"roots {r1} and {r2} sum to a root")
    elements = []
    for beta in range(sys.n_pos):
        if beta == a1 or beta in bs:
            continue
        word = torus_witness(sys, a1, beta, ring)
        if word is None:
            raise RuntimeError(f"missing torus witness for beta index {beta} over {ring.name}")
        elements.append(witness_word_matrix(rep, ring, word))
    for b in bs:
        elements.append(rep.x(ring, sys.neg(b), ring.one))
    return WitnessSet(a1, elements, "UZ")


def _e(d, i, j):
    m = np.zeros((d, d), dtype=np.int64)
    m[i, j] = 1
    return m


def _alpha_ij(d, pos, i, j, symplectic: bool):
    eps = (-1 if i * j > 0 else 1) if symplectic else -1
    return _e(d, pos(i), pos(j)) + eps * _e(d, pos(-j), pos(-i))


def _root_index_for_nilpotent(rep: MatrixRep, X: np.ndarray) -> int:
    for a, M in rep.root_X.items():
        if (M == X).all() or (M == -X).all():
            return a
    raise RuntimeError("nilpotent matrix is not a root matrix of this representation")


_WITNESS_SET_TYPE = {"sl": "A", "X1": "C", "X2": "C", "X3": "D", "X4": "B", "X5": "B"}


def classical_witness_set(type_label: str, rank: int, which: str, ring: FiniteRing) -> WitnessSet:
    """The explicit witness sets: `which` is one of sl (SL_n, U_12),
    X1 (Sp, long U_1), X2 (Sp, short U_12), X3 (O_2m, U_12),
    X4 (O_2m+1, long U_12), X5 (O_2m+1, short U_1, needs m >= 3)."""
    if which not in _WITNESS_SET_TYPE:
        raise ValueError(f"unknown witness set {which}")
    if _WITNESS_SET_TYPE[which] != type_label:
        raise ValueError(f"witness set {which} is for type {_WITNESS_SET_TYPE[which]}, not {type_label}")
    rep = classical_rep(type_label, rank)
    m = rank
    d = rep.dim
    pos = rep.signed_pos(type_label, m)

    ints: list[np.ndarray] = []
    ident = np.eye(d, dtype=np.int64)
    signed = [i for i in range(1, m + 1)] + [-i for i in range(1, m + 1)]

    if which == "sl":
        n = m + 1
        for p in range(n):
            for q in range(n):
                if p != 1 and q != 0 and p != q:
                    ints.append(ident + _e(d, p, q))
        target = _root_index_for_nilpotent(rep, _e(d, 0, 1))
        expected = "UZ"
        extra = ()
    elif which in ("X1", "X2"):
        # X1 excludes only i = -1 (1+e_{2,-2} commutes with the long target
        # and is needed to cut the alpha_12 direction); X2 also excludes
        # i = 2, which fails to commute with the short target
        excluded = (-1,) if which == "X1" else (-1, 2)
        for i in signed:
            if i not in excluded:
                ints.append(ident + _e(d, pos(i), pos(-i)))
        if which == "X1":
            js = [j for j in range(2, m + 1)]
            target = _root_index_for_nilpotent(rep, _e(d, pos(1), pos(-1)))
        else:
            js = [j for j in signed if abs(j) != 1 and j != -2 and j != 1]
            target = _root_index_for_nilpotent(rep, _alpha_ij(d, pos, 1, 2, True))
        for j in js:
            ints.append(ident + _alpha_ij(d, pos, 1, j, True))
        if which == "X2":
            # the centralizer always contains U.U_1.U_{-2} (those three
            # subgroups commute elementwise with X2 over any ring), so the
            # honest bound for C(X2) is the product shape; the sharper
            # +-U_12 statement concerns Z(C(v)) and uses a torus element
            expected = "UU1U2Z"
            extra = (
                _root_index_for_nilpotent(rep, _e(d, pos(1), pos(-1))),
                _root_index_for_nilpotent(rep, _e(d, pos(-2), pos(2))),
            )
        else:
            expected = "UZ"
            extra = ()
    elif which == "X3":
        for i, j in _slist(m):
            ints.append(ident + _alpha_ij(d, pos, i, j, False))
        target = _root_index_for_nilpotent(rep, _alpha_ij(d, pos, 1, 2, False))
        expected = "pmU"  # the sharp form: C_{O_2m}(X3) inside +-U_12
        extra = ()
    elif which == "X4":
        for i, j in _slist(m):
            ints.append(ident + _alpha_ij(d, pos, i, j, False))
        ints.append(_u_short(d, pos, 1))
        target = _root_index_for_nilpotent(rep, _alpha_ij(d, pos, 1, 2, False))
        expected = "pmU"
        extra = ()
    else:  # X5
        if m < 3:
            raise ValueError("X5 needs rank >= 3; the conclusion is false for m=2")
        for i in signed:
            for j in signed:
                if abs(i) < abs(j) and i != -1 and j != 1:
                    ints.append(ident + _alpha_ij(d, pos, i, j, False))
        ints.append(_u_short(d, pos, 1))
        target = _root_index_for_nilpotent(rep, 2 * _e(d, pos(1), 0) - _e(d, 0, pos(-1)))
        expected = "pmU"
        extra = ()

    mats = [gfmat.from_int_matrix(ring, M) for M in ints]
    return WitnessSet(target, mats, expected, extra)


def _slist(m: int):
    """Index set S: 3 <= |i| < |j|, or i = 1 < |j|, plus (-1, 2)."""
    out = []
    signed = [i for i in range(1, m + 1)] + [-i for i in range(1, m + 1)]
    for i in signed:
        for j in signed:
            if abs(i) < abs(j) and (abs(i) >= 3 or i == 1):
                out.append((i, j))
    out.append((-1, 2))
    return out


def _u_short(d, pos, i):
    """u_i(1) = 1 + (2 e_{i,0} - e_{0,-i}) - e_{i,-i} in the odd orthogonal layout."""
    return np.eye(d, dtype=np.int64) + 2 * _e(d, pos(i), 0) - _e(d, 0, pos(-i)) - _e(d, pos(i), pos(-i))


def verify_containment(rep: MatrixRep, ring: FiniteRing, ws: WitnessSet) -> dict:
    """Kernel route: compute the linear commutant of the witness set, check
    that U_alpha lies inside it, enumerate its span, filter by group
    membership and check containment in U_alpha Z, or U U1 U2 Z for the
    extra roots of the X2 bound, whose size is `bound`.  For the classical
    forms the center is {+-1}, so the sharp +-U bounds are the UZ bounds."""
    xa = rep.x_batch(ring, ws.target_root, np.arange(ring.size, dtype=ring.dtype))
    basis = linear_commutant(ring, np.stack(ws.elements))
    commutes = len(commutant_indices(ring, xa, basis)) == len(xa)
    points = commutant_group_points(rep, ring, basis)
    exp = root_product_center(rep, ring, (ws.target_root, *ws.extra_roots))
    contained = gfmat.MatSet(ring, exp).contains(points).all()
    return {
        "commutant_dim": int(len(basis)),
        "group_points": int(len(points)),
        "bound": int(len(exp)),
        "ok": bool(commutes and contained),
    }


# ---------------------------------------------------------------------------
# double centralizers


@dataclass
class DCReport:
    sizes: dict
    exceptional: bool
    dc1_holds: bool
    dc2_holds: bool | None
    verdict: bool

    def case(self) -> str:
        return "dc2" if self.exceptional else "dc1"


def verify_dc(E: EnumeratedGroup, alpha: int, r=None) -> DCReport:
    """Compute C(u), C(C(u)) and Z(C(u)) = C(C(u)) & C(u) for u =
    x_alpha(r) in the group (`EnumeratedGroup.centralizer`) and compare
    with U_alpha(R) Z(R) (or the dc2 bound U U1 U2 Z(R) in the exceptional
    symplectic short-root case)."""
    rep, ring = E.rep, E.ring
    sys = rep.sys
    if r is None:
        r = ring.one
    u = rep.x(ring, alpha, r)
    C = E.centralizer([u])
    CC = E.centralizer(E.elements[C])
    in_C = np.zeros(E.order, dtype=bool)
    in_C[C] = True
    ZC = CC[in_C[CC]]
    UZ = root_product_center(rep, ring, (alpha,), group=E)
    exceptional = exceptional_short_root(sys, ring, alpha)
    dc1 = (np.array_equal(CC, ZC) and len(CC) == len(UZ)
           and bool(gfmat.MatSet(ring, UZ).contains(E.elements[CC]).all()))
    dc2 = None
    if exceptional:
        # U1, U2: long roots adjacent to alpha in a C2 subsystem
        bound = root_product_center(rep, ring, (alpha, *_adjacent_longs(sys, alpha)), group=E)
        dc2 = bool(gfmat.MatSet(ring, bound).contains(E.elements[ZC]).all())
    sizes = {
        "C_u": int(len(C)),
        "CC_u": int(len(CC)),
        "ZC_u": int(len(ZC)),
        "UZ": int(len(UZ)),
    }
    verdict = dc2 if exceptional else dc1
    return DCReport(
        sizes=sizes,
        exceptional=exceptional,
        dc1_holds=dc1,
        dc2_holds=dc2,
        verdict=bool(verdict),
    )


def _c2_partner(sys: RootSystem, alpha: int) -> int:
    for b in range(len(sys.roots)):
        if b != alpha and b != sys.neg(alpha) and sys.span_roots(alpha, b) and len(sys.span_roots(alpha, b)) == 8:
            return b
    raise RuntimeError("no B2 subsystem through the root")


def _adjacent_longs(sys: RootSystem, alpha: int):
    """The two long roots of a C2 subsystem through the short root alpha
    whose root subgroups commute with U_alpha (gamma + alpha not a root);
    for alpha = e1 - e2 these are 2e1 and -2e2."""
    beta = _c2_partner(sys, alpha)
    span = sys.span_roots(alpha, beta)
    out = [g for g in span if sys.is_long(g) and sys.sum_root(alpha, g) is None]
    if len(out) != 2:
        raise RuntimeError(f"{len(out)} long roots beside the short root, not 2")
    return sorted(out)


def sp4_phi_set(rep: MatrixRep, ring: FiniteRing) -> np.ndarray:
    """{1 + r(e_{1,-1} - e_{-2,2})} in the symplectic signed layout."""
    m = rep.sys.rank
    d = rep.dim
    pos = rep.signed_pos(rep.sys.type_label, m)
    base = gfmat.from_int_matrix(ring, _e(d, pos(1), pos(-1)) - _e(d, pos(-2), pos(2)))
    ident = rep.identity(ring)
    out = [ring.add_t[ident, ring.mul_t[r, base]] for r in ring.elements()]
    return gfmat.MatSet.unique(ring, np.stack(out))


def verify_dc_exceptional_sp4(ring: FiniteRing) -> dict:
    """Z(C(v)) for the short root element v in Sp4(R): equals
    +-U.phi(R) when R* = {+-1} and char != 2, and +-U when R* != {+-1}.
    C(v) is the linear-commutant set, so G(R) is never enumerated."""
    rep = classical_rep("C", 2)
    sys = rep.sys
    alpha = sys.fundamental[0]  # short
    if sys.is_long(alpha):
        raise RuntimeError("the first fundamental root of C2 is not short")
    v = rep.x(ring, alpha, ring.one)
    Cv = commutant_group_points(rep, ring, linear_commutant(ring, v[None]))
    ZC = Cv[centralizer_indices(ring, Cv, Cv)]
    codes = np.arange(ring.size, dtype=ring.dtype)
    U = rep.x_batch(ring, alpha, codes)
    pm = gfmat.MatSet.unique(
        ring, np.stack([gfmat.scalar_mat(ring, rep.dim, c) for c in (ring.one, ring.neg(ring.one))]))
    pmU = product_set(ring, [pm, U])
    pmUphi = product_set(ring, [pm, U, sp4_phi_set(rep, ring)])
    prof = hypothesis_profile(ring)
    in_pmU = gfmat.MatSet(ring, pmU).contains(ZC).all()
    in_pmUphi = gfmat.MatSet(ring, pmUphi).contains(ZC).all()
    out = {"ZC_size": int(len(ZC))}
    # ZC, pmU and pmUphi hold distinct matrices, so equal sizes and
    # containment mean equal sets
    if prof.units_eq_pm1 and ring.char != 2:
        out["expected"] = "pmU.phi"
        out["ok"] = bool(in_pmUphi) and len(ZC) == len(pmUphi)
    elif not prof.units_eq_pm1:
        out["expected"] = "pmU"
        out["ok"] = bool(in_pmU) and len(ZC) == len(pmU)
    else:
        out["expected"] = "open(char 2)"
        out["ok"] = None  # exploratory: no claim made
    return out


def verify_witness_centralizer(rep: MatrixRep, ring: FiniteRing, alpha: int) -> dict:
    """C_G(Y) <= U_alpha Z for Y consisting of the torus witnesses
    s_{alpha,beta} (beta over the other positive roots) together with the
    root elements of every root subgroup contained in C_G(U_alpha).  The
    root elements are needed to force the residual torus part into the
    center; the torus witnesses alone centralize the whole torus.  Checked
    as a witness set by `verify_containment`."""
    sys = rep.sys
    sc = rep.sc
    Y = []
    for beta in range(sys.n_pos):
        if beta == alpha or beta == sys.neg(alpha):
            continue
        word = torus_witness(sys, alpha, beta, ring)
        if word is None:
            raise RuntimeError(f"missing torus witness for pair ({alpha},{beta}) over {ring.name}")
        Y.append(witness_word_matrix(rep, ring, word))
    codes = np.arange(ring.size, dtype=ring.dtype)
    for delta in range(len(sys.roots)):
        if delta == sys.neg(alpha) or delta == alpha:
            continue
        if sys.sum_root(alpha, delta) is None and not commutator_template(sc, alpha, delta):
            Y.extend(rep.x_batch(ring, delta, codes[codes != ring.zero]))
    return verify_containment(rep, ring, WitnessSet(alpha, Y, "UZ"))
