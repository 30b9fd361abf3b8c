"""SL2 over finite products of finite fields.

The groups SL2(A), SL2(A)/<-1> and PSL2(A) with A a product of odd finite
fields, the generators u, v, h, w, the definable subsets H, U, V, W, A_T,
Gamma_1, the group-word multiplication on U, the VHU factorization with
W-correction, the entrywise theta map, and the 8-factor K_alpha / elementary
width decompositions, grown as unions of cosets of their factors.

`SL2Group` is a `chevgroup.EnumeratedGroup`, built by the same
constructor as the Chevalley groups.  Quotient modes are realized by
canonical coset representatives (the lexicographically least matrix in the
coset, `SL2Group.canon`, a running minimum over the central scalars), so
set comparisons are exact; each is picked where the componentwise grid of
SL2(A), which holds every matrix once, meets its coset.
First-order definitions are double-checked against the direct constructions
with the formula evaluator, which applies the group product in every mode.
Every formula is built over one parameter list (`_params`): @1 = u(1),
@2 = h(tau), @3 = w and @(4 + c) = u(c), with u(0) written as the identity.
Each bound variable has a fixed name for its role, so equal guards read
alike and the evaluator scans each once: x, y conjugate u into a member of
U and z, r into P's first factor (all four range over H = C(h(tau)));
a, b, c are the V, H and U parts of Gamma_1; y, z in W range over
u(A_{0,1}); m<k> is the k-th partial product of A_T's polynomial.  The
offset set S of U's definition is {0}: `_field_factors` refuses
characteristic 2, 3 and 5, and over every other field each element is
xi^2 - eta^2 with xi, eta units.

The ring A is read off the group as U = u(A): + is the group product and x
is the group word P.  Each group evaluates both once, on all pairs of U at
a time as stacks of 2x2 matrices, and keeps them as code tables (code c
stands for u(c)): `SL2Group.p_table` for P, one per offset set S, and
`SL2Group.u_ring` for the ring on U that the two tables make.  theta
sends g to a 2x2 code matrix over that ring, and its products are
`gfmat.mat_mul` over it.

The generators, the VHU factorization, the W-correction and theta take a
single 2x2 matrix or a (..., 2, 2) stack of them (codes for the
generators), and answer in the same shape: each check is applied to the
whole stack at once, so a sample is one pass.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import gfmat
from .chevgroup import EnumeratedGroup
from .rings import FiniteRing, ProductRing, TableRing, decompose_square_diff
from .definability import And, Eq, Exists, Inv, Mul, One, Or, Param, Var, define_set


def _field_factors(ring: FiniteRing):
    factors = ring.factors if isinstance(ring, ProductRing) else [ring]
    for f in factors:
        if not getattr(f, "is_field", False):
            raise ValueError(f"adelic ring needs field components, got {f.name}")
        if f.char in (2, 3, 5):
            raise ValueError(f"component {f.name} has characteristic in {{2,3,5}}")
    return factors


def make_tau(ring: FiniteRing):
    """tau with component 2 at odd components, 3 at even ones; always a unit
    with tau^2 != 1 so that C(h(tau)) is exactly the diagonal."""
    factors = _field_factors(ring)
    comps = []
    for f in factors:
        for m in (2, 3) if f.char != 2 else (3,):
            c = f.from_int(m)
            if c in f.units() and f.mul(c, c) != f.one:
                comps.append(c)
                break
        else:
            raise ValueError(f"no usable tau component in {f.name}")
    if isinstance(ring, ProductRing):
        return ring.encode(comps)
    return comps[0]


def _sl2_field(f: FiniteRing) -> np.ndarray:
    """All 2x2 determinant-1 matrices over the field f, by grid scan."""
    n = f.size
    gfmat.check_budget(f"SL2({f.name}) grid", (4, n, n, n, n), np.int64)
    a, b, c, d = np.indices((n, n, n, n), dtype=np.int64)
    det = f.add_t[f.mul_t[a, d], f.neg_t[f.mul_t[b, c]]]
    a, b, c, d = (x[det == f.one] for x in (a, b, c, d))
    return np.stack([a, b, c, d], axis=-1).reshape(-1, 2, 2)


class SL2Group(EnumeratedGroup):
    """SL2(A) or one of its central quotients, fully enumerated: an
    EnumeratedGroup whose elements are the matrices of the determinant-1
    grid that are their own coset representative (`canon`, the lex-least
    matrix of a coset of the mode's central scalars), one per coset, each
    with the representative of its adjugate as inverse; here too the
    generators, the P tables and the ring on U."""

    MODES = ("SL2", "SL2modZ", "PSL2")

    def __init__(self, ring: FiniteRing, mode: str = "SL2"):
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.ring = ring  # canon reads it before the group is numbered
        self.mode = mode
        comps = [_sl2_field(f) for f in _field_factors(ring)]
        gfmat.check_budget(f"SL2({ring.name})", (math.prod(len(c) for c in comps), 2, 2), np.int64)
        # the central scalars, one coset of them per element
        self._zs = np.array({"SL2": [ring.one], "SL2modZ": [ring.one, ring.neg(ring.one)],
                             "PSL2": [z for z in ring.units() if ring.mul(z, z) == ring.one]}[mode])
        cosets = _componentwise(ring, comps)  # all of SL2(A), each matrix once
        if len(self._zs) > 1:
            # z g != g for z != 1: a coset is |Z| grid matrices, and the one
            # kept is its own least variant, the one picked by z = 1
            cosets = cosets[self._least_scalar(cosets) == self._zs.tolist().index(ring.one)]
        super().__init__(ring, cosets, self.canon(_adjugate(ring, cosets)))
        self._p_tables = {}  # offset set S -> P table

    # -- coset representatives ------------------------------------------

    def canon(self, mats: np.ndarray) -> np.ndarray:
        """Lex-least matrix in the coset mats * Z (`_least_scalar`)."""
        ring = self.ring
        mats = np.asarray(mats, dtype=ring.dtype)
        if len(self._zs) == 1:
            return mats
        return ring.mul_t[mats, self._zs[self._least_scalar(mats)][..., None, None]]

    def _least_scalar(self, mats: np.ndarray) -> np.ndarray:
        """For each matrix, the position in _zs of the central scalar z whose
        z mats has the least key: a running minimum over the scalars; the
        first z keeps a tie."""
        ring = self.ring
        # 2 x 2 keys are packed integers for every ring within the table budget
        keys = gfmat.MatSet.keys(ring, ring.mul_t[mats, self._zs[0]])
        pick = np.zeros(keys.shape, dtype=np.uint8)  # |Z| = 2^k over k factors
        for i, z in enumerate(self._zs[1:], start=1):
            var_keys = gfmat.MatSet.keys(ring, ring.mul_t[mats, z])
            pick[var_keys < keys] = i
            np.minimum(keys, var_keys, out=keys)
        return pick

    def conj(self, g, x) -> np.ndarray:
        # g^x = x^-1 g x
        return self.mul(self.mul(self.inv(x), g), x)

    # -- generators -----------------------------------------------------

    def u(self, lam) -> np.ndarray:
        """u(lam), or the stack of u over an array of codes; so are v and h."""
        ring = self.ring
        return self.canon(_mats(ring.dtype, ring.one, lam, ring.zero, ring.one))

    def v(self, lam) -> np.ndarray:
        ring = self.ring
        return self.canon(_mats(ring.dtype, ring.one, ring.zero, ring.neg_t[lam], ring.one))

    def h(self, lam) -> np.ndarray:
        ring = self.ring
        if not ring.unit_mask[lam].all():
            raise ZeroDivisionError(f"h needs units of {ring.name}")
        return self.canon(_mats(ring.dtype, ring.inv_t[lam], ring.zero, ring.zero, lam))

    @functools.cached_property
    def w(self) -> np.ndarray:
        one = self.ring.one
        return self.mul(self.mul(self.u(one), self.v(one)), self.u(one))

    def u_decode(self, m: np.ndarray):
        """lam with m = u(lam), or the lams of a stack; representatives of
        u-cosets keep 1 top left."""
        ring = self.ring
        if m.ndim == 2:  # one matrix: three scalar tests
            (a, _), (c, d) = m.tolist()
            ok = a == d == ring.one and c == ring.zero
        else:
            ok = ((m[..., 0, 0] == ring.one) & (m[..., 1, 0] == ring.zero) & (m[..., 1, 1] == ring.one)).all()
        if not ok:
            raise ValueError("not a canonical unipotent representative")
        return m[..., 0, 1]

    def p_table(self, S=None) -> np.ndarray:
        """The product P on U as a code table: entry [b, a] is the code of
        mult_formula_P(u(b), u(a), S).  Built once per S."""
        S = [self.ring.zero] if S is None else S
        key = tuple(int(s) for s in S)
        if key not in self._p_tables:
            self._p_tables[key] = _p_word(self, S)
        return self._p_tables[key]

    @functools.cached_property
    def u_ring(self) -> TableRing:
        """The ring on U: + is the group product u(a) u(b), x the P word
        with S = {0}; code c stands for u(c)."""
        ring = self.ring
        U = _u_stack(self)
        add_t = self.u_decode(self.mul(U[:, None], U[None]))
        return TableRing(f"U({ring.name}) [{self.mode}]", add_t, self.p_table(),
                         zero=self.u_decode(self.canon(gfmat.identity(ring, 2))), one=ring.one)


# ---------------------------------------------------------------------------
# component plumbing


def _mats(dtype, a, b, c, d) -> np.ndarray:
    """The matrices (a, b; c, d) of entry codes broadcast together: one
    (2, 2) matrix from scalars, a (..., 2, 2) stack from arrays."""
    if all(map(np.isscalar, (a, b, c, d))):
        return np.array((a, b, c, d), dtype=dtype).reshape(2, 2)
    shape = np.broadcast_shapes(*(np.shape(x) for x in (a, b, c, d)))
    out = np.empty(shape + (2, 2), dtype=dtype)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def _adjugate(ring: FiniteRing, mats: np.ndarray) -> np.ndarray:
    """The adjugate [[d, -b], [-c, a]] of each matrix: its inverse when the
    determinant is 1."""
    neg = ring.neg_t
    out = np.empty_like(mats)
    out[..., 0, 0] = mats[..., 1, 1]
    out[..., 0, 1] = neg[mats[..., 0, 1]]
    out[..., 1, 0] = neg[mats[..., 1, 0]]
    out[..., 1, 1] = mats[..., 0, 0]
    return out


def _split(ring: FiniteRing, codes):
    """(factor, component codes) for each factor of ring; a plain field is
    its own single factor."""
    if isinstance(ring, ProductRing):
        return zip(ring.factors, ring.decode_array(codes))
    return [(ring, np.asarray(codes))]


def _componentwise(ring: FiniteRing, comps) -> np.ndarray:
    """Every matrix over ring whose component in factor i is a matrix of the
    stack comps[i]: the cartesian product, first factor slowest.  Built in
    the ring's dtype: every partial sum is a code below |A|."""
    strides = ring.strides if isinstance(ring, ProductRing) else [1]
    mats = np.zeros((1, 2, 2), dtype=ring.dtype)
    for comp, st in zip(comps, strides):
        mats = (mats[:, None] + st * np.asarray(comp, dtype=ring.dtype)[None]).reshape(-1, 2, 2)
    return mats


# ---------------------------------------------------------------------------
# the subsets of section interest, built directly


def _u_stack(G: SL2Group) -> np.ndarray:
    """u(c) for every code c, shape (size, 2, 2)."""
    return G.u(np.arange(G.ring.size))


def _w_stack(G: SL2Group) -> np.ndarray:
    """W = componentwise {1, w}: entry sum_i b_i 2^(k-1-i) over the k
    factors has w in factor i where b_i = 1, and 1 where b_i = 0."""
    return G.canon(_componentwise(G.ring, [
        np.array([[[f.one, f.zero], [f.zero, f.one]], [[f.zero, f.one], [f.neg(f.one), f.zero]]])
        for f in _field_factors(G.ring)]))


def u_set(G: SL2Group) -> np.ndarray:
    return G.elements[np.unique(G.idx(_u_stack(G)))]


def v_set(G: SL2Group) -> np.ndarray:
    return G.elements[np.unique(G.idx(G.v(np.arange(G.ring.size))))]


def h_set(G: SL2Group) -> np.ndarray:
    return G.elements[np.unique(G.idx(G.h(np.nonzero(G.ring.unit_mask)[0])))]


def centralizer_H(G: SL2Group, tau) -> np.ndarray:
    """C(h(tau)), scanned; must equal h(A*) exactly."""
    ht = G.h(tau)
    left = G.mul(G.elements, ht)
    right = G.mul(ht, G.elements)
    hit = np.nonzero((left == right).all(axis=(-1, -2)))[0]
    cent = G.elements[hit]
    if not np.array_equal(hit, G.idx(h_set(G))):
        raise RuntimeError(f"C(h(tau)) != h(A*) over {G.ring.name} [{G.mode}]")
    return cent


def define_U(G: SL2Group, S=(0,)) -> dict:
    """u^x u^{-y} u(s) over x, y in H and s in S; reports coverage of u(A)."""
    ring = G.ring
    S = [ring.from_int(s) if isinstance(s, int) else s for s in S]
    H = h_set(G)
    u1 = G.u(ring.one)
    Hinv = _adjugate(ring, H)
    ux = gfmat.mat_mul_many(ring, [Hinv, u1[None], H])          # u^x per x
    uy = gfmat.mat_mul_many(ring, [Hinv, G.inv(u1)[None], H])   # u^-y per y
    prods = gfmat.mat_mul(ring, ux[:, None, None], uy[None, :, None])
    got = np.unique(G.idx(gfmat.mat_mul(ring, prods, G.u(np.array(S, dtype=np.int64)))))
    if np.setdiff1d(got, G.idx(_u_stack(G))).size:
        raise RuntimeError("define_U produced elements outside u(A)")
    return {"size": len(got), "expected": ring.size, "complete": len(got) == ring.size}


def _p_word(G: SL2Group, S) -> np.ndarray:
    """The defining word of P on all pairs (u(b), u(a)) at once, as the
    (size, size) table of the codes of its values."""
    ring = G.ring
    # a = xi^2 - eta^2 + s per code, so that u(a) = u^x u^{-y} u(s) with
    # x = h(xi), y = h(eta)
    dec = np.array([decompose_square_diff(ring, a, S) for a in range(ring.size)],
                   dtype=ring.dtype)
    b, a = (i.ravel() for i in np.indices((ring.size, ring.size)))
    xi, eta, s = dec[a].T
    zeta, rho, t = dec[b].T
    y1, us = G.u(b), G.u(s)
    out = G.mul(G.conj(y1, G.h(xi)), G.conj(G.inv(y1), G.h(eta)))
    out = G.mul(out, G.conj(us, G.h(zeta)))
    out = G.mul(out, G.conj(G.inv(us), G.h(rho)))
    out = G.mul(out, G.u(ring.mul_t[s, t]))
    return G.u_decode(out).reshape(ring.size, ring.size)


def mult_formula_P(G: SL2Group, y1: np.ndarray, y2: np.ndarray, S=None) -> np.ndarray:
    """y1 * y2 in the ring structure on U, given by the defining group
    word y3 = y1^x y1^{-y} u(s)^z u(s)^{-r} u(st); read off G.p_table(S),
    which evaluates the word once on all pairs."""
    beta = G.u_decode(G.canon(y1))
    alpha = G.u_decode(G.canon(y2))
    return G.u(G.p_table(S)[beta, alpha])


def at_codes(ring: FiniteRing, T) -> np.ndarray:
    """Ring codes whose every component is the image of some t in T."""
    codes = np.arange(ring.size)
    keep = np.ones(ring.size, dtype=bool)
    for f, comp in _split(ring, codes):
        keep &= np.isin(comp, [f.from_int(t) for t in T])
    return codes[keep].astype(ring.dtype)


def define_AT(G: SL2Group, T) -> dict:
    """A_T three ways: componentwise, as zeros of f(X) = prod (X - t) in the
    ring, and as zeros of f computed inside U by the group-word product."""
    ring = G.ring
    direct = at_codes(ring, T)
    c = np.arange(ring.size)
    diffs = [ring.add_t[c, ring.neg_t[ring.from_int(t)]] for t in T]  # c - t per code
    poly = functools.reduce(lambda acc, d: ring.mul_t[acc, d], diffs)
    grp = functools.reduce(lambda acc, d: G.p_table()[acc, d], diffs)
    ok = all(np.array_equal(direct, np.nonzero(z == ring.zero)[0]) for z in (poly, grp))
    return {"codes": direct.tolist(), "ok": ok}


def define_W(G: SL2Group) -> dict:
    """W = componentwise {1, w}; cross-checked against the y z^w y scan."""
    ring = G.ring
    direct_idx = np.unique(G.idx(_w_stack(G)))
    direct = G.elements[direct_idx]
    # scan route: x = y z^w y with y, z in u(A_{0,1}) and x^4 = 1
    D = G.u(at_codes(ring, (0, 1)))
    y = D[:, None]
    x = G.mul(G.mul(y, G.conj(D[None], G.w)), y)
    x2 = G.mul(x, x)
    found = x[(G.mul(x2, x2) == G.canon(gfmat.identity(ring, 2))).all(axis=(-1, -2))]
    ok = np.array_equal(direct_idx, np.unique(G.idx(found)))
    return {"elements": direct, "size": len(direct),
            "ok": ok and len(direct) == 2 ** len(_field_factors(ring))}


# ---------------------------------------------------------------------------
# the VHU factorization and the W-correction


def gamma1_factor(G: SL2Group, g: np.ndarray):
    """(v~, h~, u~) with g = v(-a^-1 c) h(a^-1) u(a^-1 b); needs g11 a unit.
    g may be a stack; the factors are stacks of the same shape."""
    ring = G.ring
    g = G.canon(np.asarray(g, dtype=ring.dtype))
    a, b, c, d = g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]
    if (ring.add_t[ring.mul_t[a, d], ring.neg_t[ring.mul_t[b, c]]] != ring.one).any():
        raise ValueError("matrix has determinant != 1")
    unit = ring.unit_mask[a]
    if not unit.all():
        bad = np.asarray(a)[~unit].flat[0]
        raise ValueError(f"g11 = {ring.elem_str(bad)} is not a unit: g outside Gamma_1")
    ainv = ring.inv_t[a]
    vt = G.v(ring.neg_t[ring.mul_t[ainv, c]])
    ht = G.h(ainv)
    ut = G.u(ring.mul_t[ainv, b])
    if not (G.mul(G.mul(vt, ht), ut) == g).all():
        raise RuntimeError("VHU factorization failed to reconstruct g")
    return vt, ht, ut


def w_correction(G: SL2Group, g: np.ndarray) -> np.ndarray:
    """x in W with (gx)11 a unit, chosen componentwise: in each factor, 1
    where g11 is nonzero and w where it is zero.  g may be a stack."""
    ring = G.ring
    g = G.canon(np.asarray(g, dtype=ring.dtype))
    pick = 0  # row of _w_stack, one bit per factor
    for f, row in _split(ring, g[..., 0, :]):
        a0, b0 = row[..., 0] == f.zero, row[..., 1] == f.zero
        if (a0 & b0).any():
            raise ValueError("first row vanishes in a component: g not invertible")
        pick = 2 * pick + a0
    x = _w_stack(G)[pick]
    if not ring.unit_mask[G.mul(g, x)[..., 0, 0]].all():
        raise RuntimeError("W-correction left a non-unit corner")
    return x


def gamma1_report(G: SL2Group) -> dict:
    """Gamma_1 = VHU by double inclusion, over the whole group at once."""
    ring = G.ring
    units = ring.unit_mask
    mask = units[G.elements[:, 0, 0]]
    try:
        gamma1_factor(G, G.elements[mask])
        recon = True
    except RuntimeError:
        recon = False
    # VHU subset of Gamma_1: every product has unit top-left entry
    prods = gfmat.mat_mul(ring, gfmat.mat_mul(ring, v_set(G)[:, None], h_set(G)[None]),
                          G.canon(u_set(G))[:, None, None])
    vhu_units = bool(units[prods.reshape(-1, 2, 2)[:, 0, 0]].all())
    return {"size": int(mask.sum()), "reconstructs": recon, "ok": recon and vhu_units}


# ---------------------------------------------------------------------------
# theta: g = (a,b;c,d) -> (u(a),u(b);u(c),u(d)), entries living in U, held
# as code matrices over G.u_ring; g and the result may be stacks


def _theta_u(G: SL2Group, g):
    one, zero = G.ring.one, G.ring.zero
    return _mats(G.ring.dtype, one, G.u_decode(G.canon(g)), zero, one)


def _theta_v(G: SL2Group, g):
    one, zero = G.ring.one, G.ring.zero
    return _mats(G.ring.dtype, one, zero, G.u_decode(G.conj(G.inv(g), G.w)), one)


def _theta_h(G: SL2Group, g):
    ring = G.ring
    xi = g[..., 1, 1]
    y4, y1 = G.u(xi), G.u(ring.inv_t[xi])
    # soundness of the defining clauses: y4 * y1 = u and w^-1 y4 w y1 w^-1 y4 = g
    if not (G.p_table()[xi, ring.inv_t[xi]] == ring.one).all():
        raise RuntimeError("theta of h: y4 * y1 != u(1)")
    w, winv = G.w, G.inv(G.w)
    back = G.mul(G.mul(G.mul(G.mul(winv, y4), w), y1), G.mul(winv, y4))
    if not (back == G.canon(g)).all():
        raise RuntimeError("theta of h: the word in y1, y4 and w does not give g")
    return _mats(ring.dtype, G.u_decode(y1), ring.zero, ring.zero, xi)


def _theta_w_elt(G: SL2Group, x):
    u1 = G.u(G.ring.one)
    ut = gamma1_factor(G, G.conj(u1, x))[2]
    c0 = G.u_decode(ut)
    return _mats(G.ring.dtype, c0, G.u_decode(G.mul(G.inv(ut), u1)),
                 G.u_decode(G.mul(G.inv(u1), ut)), c0)


def theta_sl2(G: SL2Group, g: np.ndarray) -> np.ndarray:
    """theta via a W-correction into Gamma_1 and the VHU factorization: a
    (2, 2) code matrix over G.u_ring, or a stack of them for a stack g."""
    T = G.u_ring
    g = G.canon(np.asarray(g, dtype=G.ring.dtype))
    x = w_correction(G, g)
    vt, ht, ut = gamma1_factor(G, G.mul(g, x))
    M = gfmat.mat_mul_many(T, [_theta_v(G, vt), _theta_h(G, ht), _theta_u(G, ut)])
    # theta(x) has determinant 1 over the ring on U: its adjugate inverts it
    return gfmat.mat_mul(T, M, _adjugate(T, _theta_w_elt(G, x)))


def theta_decode(G: SL2Group, th) -> np.ndarray:
    """The group element read off a theta image: entry code c stands for
    u(c), so it is the entry c of the matrix over A."""
    return G.canon(np.asarray(th, dtype=G.ring.dtype))


def theta_report(G: SL2Group, sample: int = 500, pairs: int = 200, seed: int = 0) -> dict:
    """Round trips (exhaustive when small) and multiplicativity modulo the
    quotient's central equivalence, each over the whole set at once."""
    rng = np.random.default_rng(seed)
    if G.order <= 2000:
        idxs = np.arange(G.order)
    else:
        idxs = rng.choice(G.order, size=sample, replace=False)
    g = G.elements[idxs]
    rt = bool((theta_decode(G, theta_sl2(G, g)) == g).all())
    gi, gj = G.elements[rng.integers(G.order, size=(pairs, 2)).T]
    lhs = theta_decode(G, gfmat.mat_mul(G.u_ring, theta_sl2(G, gi), theta_sl2(G, gj)))
    rhs = theta_decode(G, theta_sl2(G, G.mul(gi, gj)))
    mult = bool((lhs == rhs).all())
    return {"round_trip": rt, "checked": len(idxs), "multiplicative": mult, "ok": rt and mult}


# ---------------------------------------------------------------------------
# bounded generation: K_alpha in 8 factors, elementary width for higher rank


def _coset_labels(E: EnumeratedGroup, X: np.ndarray) -> np.ndarray:
    """Label each left coset gX of the subgroup X (a stack of its elements)
    by its least element number, so that R X for a mask R of element numbers
    is `np.isin(lab, lab[R])`, the cosets that meet R (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005, ch. 4).  The
    cosets are the orbits of right multiplication by elements of X, taken in
    order until the coset of 1 is X; pointer doubling spreads each orbit's
    minimum.  RuntimeError when X is not a subgroup."""
    inX = np.isin(np.arange(E.order), E.idx(X))
    one = E.idx(gfmat.identity(E.ring, X.shape[-1]))
    lab, perms = np.arange(E.order), []
    for x in X:
        if lab[E.idx(x)] == lab[one]:  # x is in the subgroup generated so far
            continue
        perms.append(E.idx(E.mul(E.elements, x)))
        while not all(np.array_equal(lab, lab[p]) for p in perms):
            for p in perms:
                for _ in range(len(X).bit_length()):
                    lab, p = np.minimum(lab, lab[p]), p[p]
        if np.array_equal(lab == lab[one], inX):
            return lab
    raise RuntimeError(f"not a subgroup over {E.ring.name}")


def k_alpha_product(G: SL2Group) -> dict:
    """The alternating 8-factor product V U V U V U V U, grown stagewise from
    1 as unions of cosets (`_coset_labels`); covers the whole group."""
    labs = [_coset_labels(G, F) for F in (v_set(G), u_set(G))]
    mask = np.arange(G.order) == G.idx(gfmat.identity(G.ring, 2))
    sizes = []
    for lab in labs * 4:
        mask = np.isin(lab, lab[mask])
        sizes.append(int(mask.sum()))
    return {"stage_sizes": sizes, "covered": sizes[-1] == G.order,
            "w_reached": bool(mask[G.idx(G.w)]), "h_reached": bool(mask[G.idx(G.h(make_tau(G.ring)))])}


def higher_rank_width(E: EnumeratedGroup) -> dict:
    """A concrete sequence of root subgroups X_a = x_a(R) whose product set
    is all of G(R), with the measured number of factors: the product grows
    from 1 by one X_a at a time, as unions of cosets (`_coset_labels`), the
    roots taken in order until a full pass over them adds nothing."""
    codes = np.arange(E.ring.size, dtype=E.ring.dtype)
    labs = [_coset_labels(E, E.rep.x_batch(E.ring, a, codes)) for a in range(len(E.rep.sys.roots))]
    mask = np.arange(E.order) == E.idx(E.rep.identity(E.ring))
    sequence, sizes = [], [1]  # sizes[k] = |X_{a_1} ... X_{a_k}|
    while len(sequence) < len(labs) or sizes[-1] > sizes[-1 - len(labs)]:
        for a, lab in enumerate(labs):
            mask = np.isin(lab, lab[mask])
            sequence.append(a)
            sizes.append(int(mask.sum()))
    n = sizes.index(sizes[-1])
    return {"order": sizes[-1], "N": n, "factors": sequence[:n], "sizes": sizes[1:n + 1]}


# ---------------------------------------------------------------------------
# first-order definitions over `_params`, double-checked against the direct
# constructions by the formula evaluator, which applies the group product of
# any mode.


def _params(G: SL2Group) -> np.ndarray:
    """The parameters of every formula below, as one stack: @1 = u(1),
    @2 = h(tau), @3 = w and @(4 + c) = u(c) for each code c."""
    return np.concatenate([np.stack([G.u(G.ring.one), G.h(make_tau(G.ring)), G.w]), _u_stack(G)])


def _u_of(ring: FiniteRing, c):
    """The term for u(c): the identity for c = 0, else its parameter."""
    return One() if c == ring.zero else Param(4 + int(c))


def _commutes(t, p):
    return Eq(Mul(t, p), Mul(p, t))


def _conj(t, v):
    return Mul(Mul(Inv(v), t), v)


def _exists_h(name: str, body):
    """Some element `name` of H = C(h(tau)) with body."""
    return Exists(name, And(_commutes(Var(name), Param(2)), body))


def h_formula():
    return _commutes(Var("x1"), Param(2))


def _u_member(target):
    """target = u^x u^{-y} for some x, y in H."""
    u, x, y = Param(1), Var("x"), Var("y")
    return _exists_h("x", _exists_h("y", Eq(target, Mul(_conj(u, x), _conj(Inv(u), y)))))


def u_formula():
    return _u_member(Var("x1"))


def p_formula(y1, y2, y3):
    """The multiplication formula y3 = y1 * y2 on U: y1 = u^z u^{-r},
    y2 = u^x u^{-y} and y3 = y1^x y1^{-y} for some z, r, x, y in H."""
    u = Param(1)
    z, r, x, y = (Var(n) for n in "zrxy")
    body = And(Eq(y1, Mul(_conj(u, z), _conj(Inv(u), r))),
               And(Eq(y2, Mul(_conj(u, x), _conj(Inv(u), y))), Eq(y3, Mul(_conj(y1, x), _conj(Inv(y1), y)))))
    for v in "yxrz":
        body = _exists_h(v, body)
    return body


def at_formula(ring: FiniteRing, T):
    """x1 in u(A_T): x1 in U and f applied inside U vanishes, its k-th
    partial product named m<k>."""
    x1 = Var("x1")

    def factor_term(t):  # x1 - t, as the group product x1 u(-t)
        c = ring.neg(ring.from_int(t))
        return x1 if c == ring.zero else Mul(x1, _u_of(ring, c))

    T = list(T)
    member = _u_member(x1)
    if len(T) == 1:
        return And(member, Eq(factor_term(T[0]), One()))

    def chain(acc, rest, k):
        if len(rest) == 1:
            return p_formula(acc, factor_term(rest[0]), One())
        m = Var(f"m{k}")
        return Exists(m.name, And(p_formula(acc, factor_term(rest[0]), m), chain(m, rest[1:], k + 1)))

    return And(member, chain(factor_term(T[0]), T[1:], 1))


def w_formula(ring: FiniteRing):
    """x1 = y z^w y with y, z in u(A_{0,1}) and x1^4 = 1."""
    x1, y, z = Var("x1"), Var("y"), Var("z")

    def d_guard(v):
        return functools.reduce(Or, [Eq(v, _u_of(ring, c)) for c in at_codes(ring, (0, 1))])

    x2 = Mul(x1, x1)
    body = And(Eq(x1, Mul(Mul(y, _conj(z, Param(3))), y)), Eq(Mul(x2, x2), One()))
    return Exists("y", And(d_guard(y), Exists("z", And(d_guard(z), body))))


def gamma1_formula():
    """x1 = a b c in VHU; V-membership via conjugation by w into U."""
    w, a, b, c = Param(3), Var("a"), Var("b"), Var("c")
    body = Eq(Var("x1"), Mul(Mul(a, b), c))
    return Exists("a", And(_u_member(Mul(Mul(w, a), Inv(w))),
                           _exists_h("b", Exists("c", And(_u_member(c), body)))))


def sl2_formula_report(ring: FiniteRing, sets=("H", "U", "AT", "W", "G1")) -> dict:
    """Evaluate the first-order definitions with the formula evaluator and
    compare with the direct constructions, set by set; U is defined with
    S = {0} and A_T with T = {0, 1}."""
    G = SL2Group(ring, "SL2")
    T = (0, 1)
    units = ring.unit_mask
    checks = {  # the formula, and the element indices it should define, ascending
        "H": (h_formula, lambda: G.idx(h_set(G))),
        "U": (u_formula, lambda: G.idx(u_set(G))),
        "AT": (lambda: at_formula(ring, T), lambda: np.unique(G.idx(G.u(at_codes(ring, T))))),
        "W": (lambda: w_formula(ring), lambda: G.idx(define_W(G)["elements"])),
        "G1": (gamma1_formula, lambda: np.nonzero(units[G.elements[:, 0, 0]])[0]),
    }
    params = _params(G)
    out = {}
    for name in sets:
        if name not in checks:
            raise ValueError(f"unknown set {name!r}")
        formula, expected = checks[name]
        got = define_set(formula(), G, params)
        out[name] = {"size": len(got), "match": np.array_equal(got, expected())}
    return out
