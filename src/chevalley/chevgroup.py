"""Matrix realizations of Chevalley groups over commutative rings.

Two families of representations:

* the adjoint representation for any root system, with root matrices
  built from the structure constants (dimension |Phi| + rank);
* the explicit classical representations for types A/B/C/D (special
  linear, odd orthogonal, symplectic, even orthogonal) with the signed
  index layout 1..m, -1..-m (0 first for odd orthogonal).

Divided powers M_i(alpha) = X_alpha^i / i! are computed over Z and reduced
into each target ring, so x_alpha(r) = sum r^i M_i(alpha) is exact in any
characteristic.  Both constructions are calibrated against the same
structure-constant table and abort if any bracket disagrees.

Also here: `EnumeratedGroup`, the one finite-group type, whose one
constructor numbers given elements in key order and pairs them with their
given inverses by a sort; group enumeration over a field from the Bruhat
cells u t n_w v; the BFS word data used for theta and width, found on the
group's element numbers, which is also the check that the cells are the
closure of the root elements; centralizers as the
elements of a stack inside the linear commutant of the conditions, found
in a group by looking the commutant's span up when it is small; the
bound U_{a_1}...U_{a_k}Z as an explicit set, and the one test for the
exceptional symplectic short-root case; and the Bruhat factorization check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial

import numpy as np

from . import gfmat
from .rings import FiniteRing, hypothesis_profile
from .rootsys import RootSystem, build_root_system, structure_constants


# ---------------------------------------------------------------------------
# representations


class MatrixRep:
    """A faithful-at-desk-scale integral matrix realization.

    root_X maps every root index to a nilpotent integer matrix X_alpha;
    divided powers are integer matrices M_i = X^i/i!.  membership_form is
    None (adjoint: membership is by generation), "det" (special linear) or
    an integer Gram matrix J (g^T J g = J)."""

    def __init__(self, sys: RootSystem, form: str, dim: int, root_X: dict, membership_form):
        self.sys = sys
        self.form = form
        self.dim = dim
        self.sc = structure_constants(sys.type_label, sys.rank)
        self.root_X = root_X
        self.membership_form = membership_form
        self.divpow = {}
        for a, X in root_X.items():
            powers = [np.eye(dim, dtype=np.int64)]
            P = X
            i = 1
            while P.any():
                f = factorial(i)
                M, rem = np.divmod(P, f)
                if rem.any():
                    raise ArithmeticError(f"divided power not integral at root {a}, i={i}")
                powers.append(M)
                P = P @ X
                i += 1
            self.divpow[a] = powers
        self._check_brackets()
        self._ring_cache = {}

    @staticmethod
    def signed_pos(type_label: str, m: int):
        """pos(i), the matrix position of the signed index i in the classical
        layout 1..m, -1..-m of rank m (after a leading 0 for type B)."""
        if type_label == "B":
            return lambda i: 0 if i == 0 else (i if i > 0 else m - i)
        return lambda i: i - 1 if i > 0 else m - i - 1

    # -- construction-time consistency -------------------------------------

    def coroot_matrix(self, a: int) -> np.ndarray:
        """Integer matrix of h_{a}^vee = [X_a, X_-a] in this representation."""
        sys = self.sys
        return self.root_X[a] @ self.root_X[sys.neg(a)] - self.root_X[sys.neg(a)] @ self.root_X[a]

    def _check_brackets(self):
        sys, sc = self.sys, self.sc
        nroots = len(sys.roots)
        for a in range(nroots):
            Xa = self.root_X[a]
            Ha = self.coroot_matrix(a)
            # sl2 relation [h_a, X_a] = 2 X_a
            if not (Ha @ Xa - Xa @ Ha == 2 * Xa).all():
                raise RuntimeError(f"sl2 failure at root {a}")
            for b in range(nroots):
                if b == a or b == sys.neg(a):
                    continue
                Xb = self.root_X[b]
                br = Xa @ Xb - Xb @ Xa
                g = sys.sum_root(a, b)
                want = sc.N(a, b) * self.root_X[g] if g is not None else 0
                if not (br == want).all():
                    raise RuntimeError(f"bracket failure at roots {a},{b}")
        if self.membership_form is not None and self.form != "special_linear":
            J = self.membership_form
            for a in range(nroots):
                X = self.root_X[a]
                if not (X.T @ J + J @ X == 0).all():
                    raise RuntimeError(f"form not preserved by root {a}")

    # -- elementary elements ------------------------------------------------

    def _reduced(self, ring: FiniteRing):
        cache = self._ring_cache.setdefault(ring.name, {})
        if "divpow" not in cache:
            cache["divpow"] = {
                a: [gfmat.from_int_matrix(ring, M) for M in powers]
                for a, powers in self.divpow.items()
            }
            cache["h"] = {}
            cache["n"] = {}
            cache["transport"] = {}
            cache["root_subgroup"] = {}
        return cache

    def identity(self, ring: FiniteRing) -> np.ndarray:
        return gfmat.identity(ring, self.dim)

    def root_subgroup(self, ring: FiniteRing, a: int) -> np.ndarray:
        """x_alpha(c) = 1 + c M_1 + ... + c^q M_q for every code c, shape
        (|R|, d, d), row c: one ring product of the (|R|, q + 1) table of
        powers c^i by the divided powers stacked as rows.  Built once per
        ring and root, and read-only."""
        reduced = self._reduced(ring)
        cache = reduced["root_subgroup"]
        if a not in cache:
            powers = reduced["divpow"][a]
            codes = np.arange(ring.size, dtype=ring.dtype)
            cpow = np.empty((ring.size, len(powers)), dtype=ring.dtype)
            cpow[:, 0] = ring.one
            for i in range(1, len(powers)):
                cpow[:, i] = ring.mul_t[cpow[:, i - 1], codes]
            M = np.stack(powers).reshape(len(powers), -1)
            cache[a] = gfmat.mat_mul(ring, cpow, M).reshape(ring.size, self.dim, self.dim)
            cache[a].flags.writeable = False
        return cache[a]

    def x(self, ring: FiniteRing, a: int, r) -> np.ndarray:
        """x_alpha(r), a fresh copy."""
        return self.root_subgroup(ring, a)[int(r)].copy()

    def x_batch(self, ring: FiniteRing, a: int, rcodes: np.ndarray) -> np.ndarray:
        """x_alpha(r) for each of an array of ring codes, shape rcodes.shape + (d, d)."""
        return self.root_subgroup(ring, a)[np.asarray(rcodes)]

    def h(self, ring: FiniteRing, g: int, t) -> np.ndarray:
        """h_gamma(t) = n_gamma(t) n_gamma(1)^-1 with
        n_gamma(t) = x_g(t) x_-g(-1/t) x_g(t)."""
        cache = self._reduced(ring)["h"]
        key = (g, int(t))
        if key not in cache:
            if not ring.is_unit(t):
                raise ZeroDivisionError(f"h requires a unit, got {ring.elem_str(t)}")
            cache[key] = gfmat.mat_mul(ring, self._n(ring, g, t), self._n(ring, g, ring.neg(ring.one)))
        return cache[key]

    def _n(self, ring: FiniteRing, g: int, t) -> np.ndarray:
        """n_gamma(t) = x_g(t) x_-g(-1/t) x_g(t) for a unit t, memoised per ring."""
        cache = self._reduced(ring)["n"]
        key = (g, int(t))
        if key not in cache:
            x = self.x(ring, g, t)
            cache[key] = gfmat.mat_mul_many(ring, [x, self.x(ring, self.sys.neg(g), ring.neg(ring.inv(t))), x])
        return cache[key]

    def weyl_rep(self, ring: FiniteRing, word) -> np.ndarray:
        """n_w = n_{w_0}(1) n_{w_1}(1) ... for w given as a word in
        reflections (list of root indices)."""
        return gfmat.mat_mul_many(ring, [self.identity(ring)] + [self._n(ring, g, ring.one) for g in word])

    def weyl_rep_inv(self, ring: FiniteRing, word) -> np.ndarray:
        """n_w^-1 as the reversed product of the factors
        n_g(1)^-1 = n_g(-1) = x_g(-1) x_-g(1) x_g(-1), exact over any ring."""
        m1 = ring.neg(ring.one)
        return gfmat.mat_mul_many(ring, [self.identity(ring)] + [self._n(ring, g, m1) for g in reversed(word)])

    def weyl_transport(self, ring: FiniteRing, a: int, b: int):
        """(n_w^-1, n_w, eta) with n_w^-1 x_a(r) n_w = x_b(eta * r), eta = +-1,
        for the first Weyl element w (BFS order) with w(b) = a; memoised per
        ring and root pair.  With n_w = n_{w_0} n_{w_1} ... the conjugation
        n^-1 x n realizes the inverse permutation, so the image root
        accumulates the reflections in word order."""
        cache = self._reduced(ring)["transport"]
        if (a, b) not in cache:
            word = next((w for perm, w in weyl_elements(self.sys).items() if perm[b] == a), None)
            if word is None:
                raise ValueError("roots lie in different Weyl orbits")
            image = a
            for g in word:
                image = self.sys.reflect(g, image)
            if image != b:
                raise RuntimeError(f"Weyl word does not carry root {a} to root {b}")
            nw_inv, nw = self.weyl_rep_inv(ring, word), self.weyl_rep(ring, word)
            conj = gfmat.mat_mul_many(ring, [nw_inv, self.x(ring, a, ring.one), nw])
            eta = next((e for e in (ring.one, ring.neg(ring.one))
                        if (conj == self.x(ring, b, e)).all()), None)
            if eta is None:
                raise RuntimeError("Weyl conjugation did not land on x_b(+-1)")
            cache[(a, b)] = (nw_inv, nw, eta)
        return cache[(a, b)]

    # -- membership ---------------------------------------------------------

    def membership_mask(self, ring: FiniteRing, mats: np.ndarray) -> np.ndarray:
        """Batched membership test, shape (N,). Only for classical forms."""
        if self.membership_form is None:
            raise ValueError("adjoint representation: membership is by generation only")
        if self.form == "special_linear":
            return gfmat.mat_det(ring, mats) == ring.one
        J = gfmat.from_int_matrix(ring, self.membership_form)
        gt = np.swapaxes(mats, -1, -2)
        prod = gfmat.mat_mul(ring, gt, gfmat.mat_mul(ring, J[None], mats))
        return (prod == J).reshape(mats.shape[0], -1).all(axis=1)


@lru_cache(maxsize=None)
def adjoint_rep(type_label: str, rank: int) -> MatrixRep:
    """Adjoint representation: basis {e_gamma} for all roots (in the fixed
    order) followed by the fundamental coroots {h_i}; d = |Phi| + rank."""
    sys = build_root_system(type_label, rank)
    sc = structure_constants(type_label, rank)
    nroots = len(sys.roots)
    d = nroots + sys.rank
    root_X = {}
    for a in range(nroots):
        X = np.zeros((d, d), dtype=np.int64)
        for g in range(nroots):
            if g == sys.neg(a):
                # ad(e_a) e_{-a} = h_{a^vee}, expanded over fundamental coroots
                for i, c in enumerate(_coroot_coords(sys, a)):
                    X[nroots + i, g] = c
            else:
                s = sys.sum_root(a, g)
                if s is not None:
                    X[s, g] = sc.N(a, g)
        for i in range(sys.rank):
            # ad(e_a) h_i = -<a, a_i^vee> e_a
            X[a, nroots + i] = -sys.cartan_integer(sys.fundamental[i], a)
        root_X[a] = X
    return MatrixRep(sys, "adjoint", d, root_X, None)


def _coroot_coords(sys: RootSystem, a: int):
    """a^vee = sum c_i a_i^vee over fundamental coroots; the c_i are integers."""
    da = sys.bilinear(a, a) / 2
    out = []
    for i, m in enumerate(sys.roots[a]):
        c = Fraction(m) * sys.d[i] / da
        if c.denominator != 1:
            raise RuntimeError(f"coroot of root {a} is not integral over the fundamental coroots")
        out.append(int(c))
    return out


# classical representations: signed index layout


def _eps_coords(sys: RootSystem, fund_eps: list, a: int) -> tuple:
    m = len(fund_eps[0])
    v = [0] * m
    for k, c in enumerate(sys.roots[a]):
        for t in range(m):
            v[t] += c * fund_eps[k][t]
    return tuple(v)


def _signed_pair(eps: tuple):
    """Write a two-coordinate root s_i e_i + s_j e_j (i<j) as e_a - e_b with
    |a| < |b| in the signed index convention."""
    nz = [t for t, c in enumerate(eps) if c]
    (i, si), (j, sj) = (nz[0] + 1, eps[nz[0]]), (nz[1] + 1, eps[nz[1]])
    return si * i, -sj * j


@lru_cache(maxsize=None)
def classical_rep(type_label: str, rank: int) -> MatrixRep:
    """The explicit special linear / symplectic / orthogonal representations,
    with rows and columns labelled 1..m, -1..-m (and a leading 0 for odd
    orthogonal).  Signs are calibrated to the structure-constant table."""
    sys = build_root_system(type_label, rank)
    m = rank
    if type_label == "A":
        d = m + 1
        fund_eps = [[int(t == k) - int(t == k + 1) for t in range(d)] for k in range(m)]

        def raw(a):
            eps = _eps_coords(sys, fund_eps, a)
            i = eps.index(1)
            j = eps.index(-1)
            X = np.zeros((d, d), dtype=np.int64)
            X[i, j] = 1
            return X

        form, J = "special_linear", "det"
    elif type_label in ("B", "C", "D"):
        two_m = 2 * m
        d = two_m + 1 if type_label == "B" else two_m
        pos = MatrixRep.signed_pos(type_label, m)

        # e_k - e_{k+1}, then 2 e_m (C), e_m (B) or e_{m-1} + e_m (D)
        fund_eps = [[int(t == k) - int(t == k + 1) for t in range(m)] for k in range(m - 1)]
        last = {"C": [0] * (m - 1) + [2], "B": [0] * (m - 1) + [1], "D": [0] * (m - 2) + [1, 1]}
        fund_eps.append(last[type_label])

        def raw(a):
            eps = _eps_coords(sys, fund_eps, a)
            X = np.zeros((d, d), dtype=np.int64)
            nz = [c for c in eps if c]
            if type_label == "C" and sorted(map(abs, nz)) == [2]:
                # long root +-2 e_i -> e_{i,-i} / e_{-i,i}
                t = [k for k, c in enumerate(eps) if c][0] + 1
                i = t if eps[t - 1] > 0 else -t
                X[pos(i), pos(-i)] = 1
                return X
            if type_label == "B" and len(nz) == 1:
                # short root +- e_t: u_a(r) = 1 + r(2 e_{a,0} - e_{0,-a}) - r^2 e_{a,-a}
                t = [k for k, c in enumerate(eps) if c][0] + 1
                a_ = t if eps[t - 1] > 0 else -t
                X[pos(a_), 0] = 2
                X[0, pos(-a_)] = -1
                return X
            a_, b_ = _signed_pair(eps)
            eps_sign = -1 if (type_label in ("B", "D") or a_ * b_ > 0) else 1
            X[pos(a_), pos(b_)] = 1
            X[pos(-b_), pos(-a_)] = eps_sign
            return X

        form = {"B": "orthogonal_odd", "C": "symplectic", "D": "orthogonal_even"}[type_label]
        J = np.zeros((d, d), dtype=np.int64)
        if type_label == "B":
            J[0, 0] = 2
        for i in range(1, m + 1):
            J[pos(i), pos(-i)] = 1
            J[pos(-i), pos(i)] = -1 if type_label == "C" else 1
    else:
        raise ValueError(f"no classical representation for type {type_label}")

    root_X = _calibrate(sys, {a: raw(a) for a in range(len(sys.roots))})
    return MatrixRep(sys, form, d, root_X, J)


def _calibrate(sys: RootSystem, raw_X: dict) -> dict:
    """Flip signs of the raw root matrices so brackets match the
    structure-constant table: positives by extraspecial recursion, negatives
    by the [e, f] = h condition."""
    sc = structure_constants(sys.type_label, sys.rank)
    eta = {}
    for i in sys.fundamental:
        eta[i] = 1
    for g in range(sys.n_pos):
        if g in eta:
            continue
        a, b = sc._es[g]
        br = raw_X[a] * eta[a] @ raw_X[b] - raw_X[b] @ (raw_X[a] * eta[a])
        br = eta[b] * br  # [eta_a X_a, eta_b X_b]
        target = sc.N(a, b) * raw_X[g]
        if (br == target).all():
            eta[g] = 1
        elif (br == -target).all():
            eta[g] = -1
        else:
            raise RuntimeError(f"calibration failed at positive root {g}")
    # negatives: pick the sign making [e_g, e_-g] act as +2 on e_g
    out = {g: eta[g] * raw_X[g] for g in range(sys.n_pos)}
    for g in range(sys.n_pos):
        ng = sys.neg(g)
        for s in (1, -1):
            F = s * raw_X[ng]
            H = out[g] @ F - F @ out[g]
            if (H @ out[g] - out[g] @ H == 2 * out[g]).all():
                out[ng] = F
                break
        else:
            raise RuntimeError(f"calibration failed at negative root {ng}")
    return out


# ---------------------------------------------------------------------------
# enumeration


class EnumeratedGroup:
    """A finite matrix group, each element listed once and numbered in key
    order (`gfmat.MatSet.keys`, the lexicographic order of the entries),
    with the index of its inverse.  The constructors differ only in how
    they produce the elements and their inverses: over a field from the
    Bruhat cells (`enumerate_group`), and SL2 over a product of fields in
    its quotient modes (`adelic.SL2Group`, whose `canon` picks one matrix
    per coset, so `mul`, the one group product on matrices, reads each
    product as its coset).  A group of a representation keeps its
    generators; its word data (each element's BFS distance, parent and
    generator, `_words`) come from a BFS on its own element numbers, and
    its center is found once, both on first use.  So is the multiplication
    table of a group small enough to have one (`mul_table`), on which the
    formula evaluator multiplies element numbers.  Its centralizers
    (`centralizer`) look a small commutant's span up in the index."""

    def __init__(self, ring: FiniteRing, elements, inverses, rep: MatrixRep | None = None,
                 gens_meta=None, gens=None):
        """Number the distinct elements in key order by one sort, whose
        sorted keys are the index, and find the number of each inverse,
        inverses[i] for elements[i], by one sort of the inverses' keys.
        inverses must be a fresh C-contiguous array like elements: once the
        inverses are keyed, their buffer takes the sorted elements.
        RuntimeError when a key repeats, when an inverse is not an element,
        or when the inverses do not pair up (inv(inv(g)) != g)."""
        self.rep = rep
        self.ring = ring
        self.gens_meta = gens_meta  # list of generator labels (root, ring elt)
        self.gens = gens  # (G, d, d) generator matrices, in the order of gens_meta
        keys = gfmat.MatSet.keys(ring, elements)
        self.order = order = len(keys)
        perm = np.argsort(keys)
        srt = keys[perm]
        if (srt[1:] == srt[:-1]).any():
            raise RuntimeError("an element is given twice")
        # a copy, in key order of the elements: the inverses' buffer is free
        inv_keys = gfmat.MatSet.keys(ring, inverses)[perm]
        del keys
        self.elements = np.take(elements, perm, axis=0, out=inverses, mode="clip")  # (order, d, d)
        del perm
        # the inverse of the element numbered s[j] is the element numbered j,
        # for s the sort of inv_keys, so s is the inverse map once it is an
        # involution (s^-1 = s)
        self.inv_idx = np.argsort(inv_keys)
        if not np.array_equal(inv_keys[self.inv_idx], srt):
            raise RuntimeError("an inverse is not an element")
        del inv_keys
        if not np.array_equal(self.inv_idx[self.inv_idx], np.arange(order)):
            raise RuntimeError("the inverses are not an involution")
        self.index = gfmat.MatSet.from_sorted_keys(ring, elements.shape[-2:], srt)

    dist = property(lambda self: self._words[0])
    parent = property(lambda self: self._words[1])
    genidx = property(lambda self: self._words[2])

    @cached_property
    def _words(self):
        """(dist, parent, genidx) of the BFS from the identity over the
        generators, on element numbers: each level multiplies its frontier's
        matrices by every generator, one outer product per block of rows,
        numbers the products through `idx`, and keeps the numbers not reached
        before (dist < 0) at their first (frontier position, generator).  The
        word arrays pass `check_budget` before they are allocated.
        RuntimeError when a product is not an element, or when the BFS reaches
        fewer elements than the group has: either way the elements are not the
        closure of the generators."""
        n, d, G = self.order, self.elements.shape[-1], len(self.gens)
        gfmat.check_budget("word data", (n,), np.intp)  # each of the three
        dist, parent, genidx = (np.full(n, -1, dtype=np.intp) for _ in range(3))
        frontier = self.idx(gfmat.identity(self.ring, d)[None])
        dist[frontier] = level = 0
        reached = 1
        rows = gfmat.block_rows(self.ring, d, G)
        while len(frontier):
            level += 1
            new = []
            for c0 in range(0, len(frontier), rows):
                block = frontier[c0:c0 + rows]
                prods = gfmat.mat_mul(self.ring, self.elements[block][:, None], self.gens[None])
                try:
                    nums = self.idx(prods).ravel()  # [i G + g]: elements[block[i]] gens[g]
                except KeyError:
                    raise RuntimeError("a product of an element and a generator is not an element") from None
                pos = np.flatnonzero(dist[nums] < 0)
                hit = nums[pos]
                # numbers are dense: genidx holds each new number's first
                # position for a moment (ufunc.at is defined for repeats)
                genidx[hit] = np.iinfo(np.intp).max
                np.minimum.at(genidx, hit, pos)
                first = genidx[hit] == pos
                pos, found = pos[first], hit[first]
                dist[found] = level
                parent[found] = block[pos // G]
                genidx[found] = pos % G
                new.append(found)
            frontier = np.concatenate(new)
            reached += len(frontier)
        if reached != n:
            raise RuntimeError(f"the BFS from the identity reaches {reached} of the {n} elements")
        return dist, parent, genidx

    @cached_property
    def mul_table(self) -> np.ndarray | None:
        """The (order, order) table of element numbers, entry [i, j] the number
        of elements[i] elements[j], in the narrowest of int16 and int32 that
        holds them; None when it would not fit one block (`gfmat.fits_block`).
        Built in blocks of rows, each one outer product of the block's elements
        by all elements, numbered through `idx` (so through `canon`);
        RuntimeError when a product is not an element.  The table is the usual
        representation of a small group (Holt, Eick and O'Brien, Handbook of
        Computational Group Theory, 2005)."""
        n, d = self.order, self.elements.shape[-1]
        dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int32
        if not gfmat.fits_block((n, n), dtype):
            return None
        table = np.empty((n, n), dtype=dtype)
        rows = gfmat.block_rows(self.ring, d, n)
        for lo in range(0, n, rows):
            prods = gfmat.mat_mul(self.ring, self.elements[lo:lo + rows, None], self.elements[None])
            try:
                table[lo:lo + rows] = self.idx(prods)
            except KeyError:
                raise RuntimeError("a product of two elements is not an element") from None
        return table

    @cached_property
    def center(self) -> np.ndarray:
        """Indices of Z(G): the elements commuting with every generator,
        found once per group."""
        return self.centralizer(self.gens)

    def centralizer(self, mats) -> np.ndarray:
        """Ascending indices of C(mats) = {g : gs = sg for all s in mats}
        over a field: the elements inside the linear commutant of mats, k
        basis matrices.  When its span has no more matrices than the group
        (q^k <= |G|), the span is listed and looked up in the index, where
        the matrices that are not elements drop out (subgroup membership
        by lookup, Holt, Eick and O'Brien, 2005, ch. 4); else every element
        is tested against the basis (`commutant_indices`)."""
        d = self.elements.shape[-1]
        basis = linear_commutant(self.ring, np.asarray(mats, dtype=self.ring.dtype).reshape(-1, d, d))
        if self.ring.size ** len(basis) > self.order:
            return commutant_indices(self.ring, self.elements, basis)
        span = gfmat.span_elements(self.ring, basis).reshape(-1, d, d)
        return np.sort(self.index.index(span[self.index.contains(span)]))

    def canon(self, mats: np.ndarray) -> np.ndarray:
        """The matrices that stand for a stack in this group: the matrices
        themselves, unless a quotient picks one per coset."""
        return mats

    def mul(self, a, b) -> np.ndarray:
        """The group product of two elements or stacks: `canon` of the matrix product."""
        return self.canon(gfmat.mat_mul(self.ring, a, b))

    def idx(self, mats: np.ndarray):
        """Index of a matrix, or the indices of a stack of matrices; raises
        KeyError for a matrix outside the group."""
        return self.index.index(self.canon(mats))

    def inv(self, mats: np.ndarray) -> np.ndarray:
        """The inverse of a group element, or of each of a stack."""
        return self.elements[self.inv_idx[self.idx(mats)]]

    def word(self, i: int):
        """Generator-index word with elements[i] = prod of gens (left to right)."""
        _, parent, genidx = self._words
        out = []
        while parent[i] >= 0:
            out.append(int(genidx[i]))
            i = int(parent[i])
        return out[::-1]


def root_element_generators(rep: MatrixRep, ring: FiniteRing):
    """The full elementary generator set {x_alpha(r) : r != 0} as
    (labels, matrices)."""
    labels = [(a, r) for a in range(len(rep.sys.roots)) for r in ring.elements() if r != ring.zero]
    return labels, np.stack([rep.x(ring, a, r) for a, r in labels])


def enumerate_group(rep: MatrixRep, ring: FiniteRing) -> EnumeratedGroup:
    """The elements of G(F) over a field F: the products u t n_w v of the
    Bruhat cells (`bruhat_cells`), one outer product (u t n_w) x v per block
    of rows of a cell; each inverse v^-1 (u t n_w)^-1 is the outer product
    transposed, so it lands at the place of its element.  ValueError
    for a ring that is not a field: the paper's R is an integral domain,
    and a finite one is a field."""
    if not ring.is_field:
        raise ValueError(f"enumeration needs a field, not {ring.name}")
    labels, gmats = root_element_generators(rep, ring)
    d = rep.dim
    cells = bruhat_cells(rep, ring, inverses=True)
    order = sum(len(A) * len(V) for A, V, _, _ in cells)
    elems = np.empty((order, d, d), dtype=ring.dtype)  # in the cells' layout (w, u t, v)
    invs = np.empty_like(elems)
    at = 0
    for A, V, B, V_inv in cells:
        # element (i, j) of a cell is A[i] V[j], and its inverse V_inv[j] B[i]
        k, n = len(A), len(V)
        cell_elems, cell_invs = (x[at:at + k * n].reshape(k, n, d, d) for x in (elems, invs))
        rows = gfmat.block_rows(ring, d, n)
        for blk in (slice(r0, r0 + rows) for r0 in range(0, k, rows)):
            cell_elems[blk] = gfmat.mat_mul(ring, A[blk][:, None], V[None])
            cell_invs[blk] = gfmat.mat_mul(ring, V_inv[:, None], B[blk][None]).swapaxes(0, 1)
        at += k * n
    return EnumeratedGroup(ring, elems, invs, rep, labels, gmats)


def centralizer_indices(ring: FiniteRing, elements: np.ndarray, mats) -> np.ndarray:
    """Indices of {g in elements : gs = sg for all s in mats} over a field:
    the elements inside the linear commutant of mats, for any stack, by a
    scan of the stack (`commutant_indices`); `EnumeratedGroup.centralizer`
    gives the same indices in a group."""
    d = elements.shape[-1]
    basis = linear_commutant(ring, np.asarray(mats, dtype=ring.dtype).reshape(-1, d, d))
    return commutant_indices(ring, elements, basis)


def linear_commutant(ring: FiniteRing, mats: np.ndarray) -> np.ndarray:
    """Row-reduced basis, shape (k, d^2), of the matrix subspace
    {m : ms = sm for all s in mats} over a field, for a (n, d, d) stack;
    rows are flattened d x d matrices.  The commutant of mats is that of a
    basis of their span, so it shrinks from the full space one basis matrix
    b at a time: c K commutes with b exactly when c (K b - b K) = 0, and a
    b that all of K commutes with leaves K as it is, with no nullspace."""
    d = mats.shape[-1]
    _, span = gfmat.rref(ring, mats.reshape(-1, d * d).T)  # the pivot columns: a basis of the span
    K = gfmat.identity(ring, d * d)
    for b in mats[span]:
        Km = K.reshape(-1, d, d)
        D = ring.add_t[gfmat.mat_mul(ring, Km, b), ring.neg_t[gfmat.mat_mul(ring, b, Km)]]
        if (D == ring.zero).all():  # all of K commutes with b
            continue
        K = gfmat.mat_mul(ring, gfmat.nullspace(ring, D.reshape(len(K), -1).T), K)
    return gfmat.rref(ring, K)[0]


def commutant_indices(ring: FiniteRing, elements: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Indices of the elements whose flattened matrix lies in the span of a
    row-reduced basis, by a scan of every element.  With P the basis's
    pivot columns, v lies in the span exactly when v = v[P] basis: one 2-D
    product per block of elements.  It serves stacks that are not groups,
    and groups in which the span has more matrices than the group."""
    d = elements.shape[-1]
    pivots = np.argmax(basis != ring.zero, axis=1)
    rows = gfmat.block_rows(ring, d, 1)
    keep = [np.arange(0)]
    for b0 in range(0, len(elements), rows):
        v = elements[b0:b0 + rows].reshape(-1, d * d)
        keep.append(b0 + np.flatnonzero((gfmat.mat_mul(ring, v[:, pivots], basis) == v).all(axis=1)))
    return np.concatenate(keep)


def commutant_group_points(rep: MatrixRep, ring: FiniteRing, basis) -> np.ndarray:
    """Enumerate the span of a commutant basis and keep the matrices that
    satisfy the representation's membership conditions."""
    vecs = gfmat.span_elements(ring, basis)
    mats = vecs.reshape(-1, rep.dim, rep.dim)
    return mats[rep.membership_mask(ring, mats)]


# ---------------------------------------------------------------------------
# subgroup bounds


def root_product_center(rep: MatrixRep, ring: FiniteRing, roots,
                        group: EnumeratedGroup | None = None) -> np.ndarray:
    """U_{roots[0]} ... U_{roots[-1]} Z(G(R)) as distinct matrices, shape
    (N, d, d); the center is cross-checked against `group` when supplied."""
    codes = np.arange(ring.size, dtype=ring.dtype)
    return product_set(ring, [rep.x_batch(ring, a, codes) for a in roots] + [center_set(rep, ring, group)])


def exceptional_short_root(sys: RootSystem, ring: FiniteRing, alpha: int) -> bool:
    """The exceptional case of the double centralizer: type C, alpha short
    and R* = {+-1}, where C(C(x_alpha(1))) is not U_alpha Z, the bound is
    U U1 U2 Z (dc2), and the definition of U_alpha Z needs two more
    conditions."""
    return sys.type_label == "C" and not sys.is_long(alpha) and hypothesis_profile(ring).units_eq_pm1


def product_set(ring: FiniteRing, sets) -> np.ndarray:
    """Unique pairwise products of a list of matrix sets, in order."""
    out = sets[0]
    for s in sets[1:]:
        prods = gfmat.mat_mul(ring, out[:, None], s[None, :, :, :])
        out = gfmat.MatSet.unique(ring, prods.reshape(-1, *out.shape[1:]))
    return out


def torus_set(rep: MatrixRep, ring: FiniteRing) -> np.ndarray:
    """T(R): the product set of the rank-one tori {h_{a_i}(t) : t in R*},
    which are commuting subgroups, since each h_{a_i} is a homomorphism."""
    tori = [np.stack([rep.h(ring, a, t) for t in ring.units()]) for a in rep.sys.fundamental]
    return product_set(ring, [rep.identity(ring)[None]] + tori)


def center_set(rep: MatrixRep, ring: FiniteRing, group: EnumeratedGroup | None = None) -> np.ndarray:
    """Z(G(R)).  For classical forms these are the scalar matrices passing
    the membership test; for adjoint forms the center is trivial (checked
    against the enumerated group when one is supplied)."""
    if rep.membership_form is None:
        out = rep.identity(ring)[None]
    else:
        scalars = np.stack([gfmat.scalar_mat(ring, rep.dim, c) for c in ring.units()])
        out = scalars[rep.membership_mask(ring, scalars)]
    if group is not None:
        zc = group.elements[group.center]
        if len(zc) != len(out) or not gfmat.MatSet(ring, out).contains(zc).all():
            raise RuntimeError("scalar center disagrees with enumerated center")
    return out


# ---------------------------------------------------------------------------
# Weyl group and Bruhat


@lru_cache(maxsize=None)
def weyl_elements(sys: RootSystem):
    """The Weyl group as root permutations, each with a reduced word in
    fundamental reflections (BFS, so words are geodesic).  Memoised per
    root system; callers must not modify the result."""
    n = len(sys.roots)
    fund_perms = {
        k: tuple(sys.reflect(k, j) for j in range(n)) for k in sys.fundamental
    }
    ident = tuple(range(n))
    out = {ident: []}
    frontier = [ident]
    while frontier:
        new = []
        for p in frontier:
            for k in sys.fundamental:
                q = tuple(fund_perms[k][p[j]] for j in range(n))
                if q not in out:
                    out[q] = [k] + out[p]
                    new.append(q)
        frontier = new
    return out


def _unipotent_cell(rep: MatrixRep, ring: FiniteRing, roots) -> np.ndarray:
    """x_{a_1}(r_1) ... x_{a_k}(r_k) over every tuple of codes, in base-|R|
    order of (r_1, ..., r_k); RuntimeError if two tuples give one product."""
    codes = np.arange(ring.size, dtype=ring.dtype)
    prods = product_set(ring, [rep.identity(ring)[None]] + [rep.x_batch(ring, a, codes) for a in roots])
    if len(prods) != ring.size ** len(roots):
        raise RuntimeError("unipotent product set collapsed")
    return prods


def _unipotent_cell_inverses(rep: MatrixRep, ring: FiniteRing, roots) -> np.ndarray:
    """The inverse x_{a_k}(-r_k) ... x_{a_1}(-r_1) of each product of
    `_unipotent_cell`, at its place."""
    neg = ring.neg_t[np.arange(ring.size)]
    invs = rep.identity(ring)[None]
    for a in roots:  # x_a(r)^-1 = x_a(-r), on the left, with r the last digit
        invs = gfmat.mat_mul(ring, rep.x_batch(ring, a, neg)[None], invs[:, None])
        invs = invs.reshape(-1, rep.dim, rep.dim)
    return invs


def bruhat_cells(rep: MatrixRep, ring: FiniteRing, inverses: bool = False):
    """The Bruhat cells of G(F) over a field F: every element is uniquely
    u t n_w v, with u in U over all positive roots in the fixed order, t in
    T(F), w in the Weyl group and v over S_w = {i : w(root_i) < 0}
    (Steinberg, Lectures on Chevalley Groups, 1968, 3; Carter, Simple Groups
    of Lie Type, 1972, Thm 8.4.3).  One pair (A, V) per w: A the products
    u t n_w in layout (u, t), V the products over S_w (`_unipotent_cell`).
    With inverses, (A, V, B, V^-1) with B = n_w^-1 (u t)^-1 at the places
    of A: t^-1 is looked up in T, and n_w^-1 is `weyl_rep_inv`.  The order
    |U| |T| sum_w q^|S_w| passes `check_budget` before any cell is built."""
    sys, d = rep.sys, rep.dim
    T = torus_set(rep, ring)
    words = list(weyl_elements(sys).items())
    negs = [[i for i in range(sys.n_pos) if perm[i] >= sys.n_pos] for perm, _ in words]
    order = ring.size ** sys.n_pos * len(T) * sum(ring.size ** len(sw) for sw in negs)
    gfmat.check_budget("group elements", (order, d, d), ring.dtype)
    UT = gfmat.mat_mul(ring, _unipotent_cell(rep, ring, range(sys.n_pos))[:, None], T[None]).reshape(-1, d, d)
    cells = [(gfmat.mat_mul(ring, UT, rep.weyl_rep(ring, word)), _unipotent_cell(rep, ring, sw))
             for (_, word), sw in zip(words, negs)]
    if not inverses:
        return cells
    is_one = (gfmat.mat_mul(ring, T[:, None], T[None]) == rep.identity(ring)).all(axis=(-2, -1))
    if not is_one.any(axis=1).all():
        raise RuntimeError("torus set is not closed under inverses")
    U_inv = _unipotent_cell_inverses(rep, ring, range(sys.n_pos))
    UT_inv = gfmat.mat_mul(ring, T[is_one.argmax(axis=1)][None], U_inv[:, None]).reshape(-1, d, d)
    return [(A, V, gfmat.mat_mul(ring, rep.weyl_rep_inv(ring, word), UT_inv), _unipotent_cell_inverses(rep, ring, sw))
            for (A, V), (_, word), sw in zip(cells, words, negs)]


def verify_bruhat(E: EnumeratedGroup) -> dict:
    """Check the factorization g = u t n_w v of `bruhat_cells` against the
    closure of the root elements: every product must arise exactly once,
    be an element of E, and the tuple count must equal |E|; and the BFS
    over the root elements on E's element numbers (`EnumeratedGroup._words`)
    must stay inside E and reach all of it.  `enumerate_group` builds E
    from the same cells, so the counts agree by construction there; the
    BFS is the check that stands apart."""
    rep, ring = E.rep, E.ring
    prods = np.concatenate([gfmat.mat_mul(ring, A[:, None], V[None]).reshape(-1, rep.dim, rep.dim)
                            for A, V in bruhat_cells(rep, ring)])
    distinct = len(gfmat.MatSet(ring, prods))
    try:
        E.dist  # the BFS, on first use
        closed = True
    except RuntimeError:  # a product outside E, or elements the BFS does not reach
        closed = False
    return {
        "order": E.order,
        "tuple_count": len(prods),
        "distinct_products": distinct,
        "unique": distinct == len(prods),
        "ok": closed and len(prods) == E.order == distinct and bool(E.index.contains(prods).all()),
    }
