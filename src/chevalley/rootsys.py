"""Root systems of types A-G: enumeration, Cartan integers, Weyl action,
rank-2 subsystem classification, and Chevalley structure constants.

Roots are stored as integer coefficient vectors over the fundamental roots
(kept integral even for E types).  Positive roots carry a fixed total order:
height first, then lexicographic on coefficients; negatives follow in the
mirrored order.  The bilinear form is normalized so long roots have squared
length 2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, cached_property

import numpy as np

from . import gfmat


def _cartan_data(type_label: str, rank: int):
    """Cartan matrix A[i][j] = 2(a_i,a_j)/(a_i,a_i) and the half-lengths
    d_i = (a_i,a_i)/2 for the chosen fundamental system.

    Conventions: B_n has a_n short; C_n has a_n long; G2 has a_1 short,
    a_2 long; F4 has a_1,a_2 long and a_3,a_4 short; E_n is the chain
    a_1..a_{n-1} with a_n attached to a_{n-3}."""
    t, n = type_label, rank
    if t == "A" and n >= 2:
        d = [Fraction(1)] * n
        edges = [(i, i + 1) for i in range(n - 1)]
    elif t == "B" and n >= 2:
        d = [Fraction(1)] * (n - 1) + [Fraction(1, 2)]
        edges = [(i, i + 1) for i in range(n - 1)]
    elif t == "C" and n >= 2:
        d = [Fraction(1, 2)] * (n - 1) + [Fraction(1)]
        edges = [(i, i + 1) for i in range(n - 1)]
    elif t == "D" and n >= 4:
        d = [Fraction(1)] * n
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    elif t == "E" and n in (6, 7, 8):
        d = [Fraction(1)] * n
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 4, n - 1)]
    elif t == "F" and n == 4:
        d = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2)]
        edges = [(0, 1), (1, 2), (2, 3)]
    elif t == "G" and n == 2:
        d = [Fraction(1, 3), Fraction(1)]
        edges = [(0, 1)]
    else:
        raise ValueError(f"invalid simple type {type_label}{rank} (rank >= 2 required)")
    # (a_i, a_j) = -min(d_i, d_j) on edges makes every Cartan integer land in Z
    B = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        B[i][i] = 2 * d[i]
    for i, j in edges:
        B[i][j] = B[j][i] = -max(d[i], d[j]) if d[i] != d[j] else -d[i]
    A = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            v = 2 * B[i][j] / B[i][i]
            if v.denominator != 1:
                raise RuntimeError(f"Cartan integer {v} of {t}{n} at ({i}, {j}) is not an integer")
            A[i, j] = int(v)
    return A, B, d


class RootSystem:
    def __init__(self, type_label: str, rank: int):
        """The roots by reflection closure, and the (|Phi|, |Phi|) Gram and
        Cartan arrays, which pass `check_budget` before the closure runs."""
        A, B, d = _cartan_data(type_label, rank)
        n = rank
        count = {"A": n * (n + 1), "B": 2 * n * n, "C": 2 * n * n, "D": 2 * n * (n - 1),
                 "E": {6: 72, 7: 126, 8: 240}.get(n), "F": 48, "G": 12}[type_label]
        gfmat.check_budget(f"root system {type_label}{rank}", (count, count), np.int64)
        self.type_label = type_label
        self.rank = rank
        self.d = d

        # reflection closure from the fundamental roots
        fund = [tuple(int(i == k) for i in range(rank)) for k in range(rank)]
        seen = set(fund)
        frontier = list(fund)
        while frontier:
            new = []
            for v in frontier:
                for k in range(rank):
                    # s_{a_k}(v) = v - <v, a_k^vee> a_k, coefficient from column k
                    c = sum(A[k, j] * v[j] for j in range(rank))
                    w = tuple(v[j] - (c if j == k else 0) for j in range(rank))
                    if w not in seen:
                        seen.add(w)
                        new.append(w)
            frontier = new
        pos = sorted(
            (v for v in seen if all(c >= 0 for c in v)),
            key=lambda v: (sum(v), v),
        )
        if 2 * len(pos) != len(seen) or len(seen) != count:
            raise RuntimeError(f"{len(seen)} roots, {len(pos)} of them positive, where {count} are expected")
        self.roots = pos + [tuple(-c for c in v) for v in pos]
        self.n_pos = len(pos)
        self.index = {v: i for i, v in enumerate(self.roots)}
        self.fundamental = [self.index[v] for v in fund]

        # integral Gram data, scaled by 6 to clear denominators
        C = np.array(self.roots, dtype=np.int64)
        B6 = np.array([[int(6 * B[i][j]) for j in range(rank)] for i in range(rank)], dtype=np.int64)
        self.gram6 = C @ B6 @ C.T
        norms = np.diag(self.gram6)
        num = 2 * self.gram6
        self.cartan_all = num // norms[:, None]
        if not (self.cartan_all * norms[:, None] == num).all():
            raise RuntimeError(f"a Cartan integer of {type_label}{rank} is not an integer")
        self.long_norm6 = int(norms.max())

    # -- basic queries ----------------------------------------------------

    def __repr__(self):
        return f"<RootSystem {self.type_label}{self.rank}, {len(self.roots)} roots>"

    def root(self, i: int) -> tuple:
        return self.roots[i]

    def height(self, i: int) -> int:
        return sum(self.roots[i])

    def neg(self, i: int) -> int:
        return i + self.n_pos if i < self.n_pos else i - self.n_pos

    def is_long(self, i: int) -> bool:
        return int(self.gram6[i, i]) == self.long_norm6

    def length_classes(self) -> int:
        return len(set(int(self.gram6[i, i]) for i in range(len(self.roots))))

    def bilinear(self, i: int, j: int) -> Fraction:
        return Fraction(int(self.gram6[i, j]), 6)

    def cartan_integer(self, gamma: int, beta: int) -> int:
        """A_{gamma beta} = 2(gamma,beta)/(gamma,gamma)."""
        return int(self.cartan_all[gamma, beta])

    def sum_root(self, i: int, j: int):
        """Index of root_i + root_j, or None if not a root."""
        v = tuple(a + b for a, b in zip(self.roots[i], self.roots[j]))
        return self.index.get(v)

    def combo(self, coeffs_roots):
        """Index of an integer combination sum c*root, or None."""
        v = [0] * self.rank
        for c, i in coeffs_roots:
            for k in range(self.rank):
                v[k] += c * self.roots[i][k]
        return self.index.get(tuple(v))

    def reflect(self, i: int, j: int) -> int:
        """s_{root_i}(root_j)."""
        c = self.cartan_integer(i, j)
        v = tuple(b - c * a for a, b in zip(self.roots[i], self.roots[j]))
        return self.index[v]

    def chain_down(self, a: int, b: int) -> int:
        """p = max{k : b - k*a is a root} (the chain value behind N = +-(p+1))."""
        k = 0
        v = list(self.roots[b])
        av = self.roots[a]
        while True:
            v = [x - y for x, y in zip(v, av)]
            if tuple(v) not in self.index:
                return k
            k += 1

    def span_roots(self, i: int, j: int):
        """All roots in the rational span of root_i, root_j; None if dependent."""
        vi = np.array(self.roots[i], dtype=np.int64)
        vj = np.array(self.roots[j], dtype=np.int64)
        if _int_rank(np.vstack([vi, vj])) < 2:
            return None
        out = []
        for k, v in enumerate(self.roots):
            if _int_rank(np.vstack([vi, vj, np.array(v, dtype=np.int64)])) == 2:
                out.append(k)
        return out


def _int_rank(M: np.ndarray) -> int:
    """Rank of a small integer matrix by fraction-free Gaussian elimination."""
    M = M.astype(object).copy()
    rows, cols = M.shape
    rank = 0
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if M[r, c] != 0:
                piv = r
                break
        if piv is None:
            continue
        M[[rank, piv]] = M[[piv, rank]]
        for r in range(rank + 1, rows):
            if M[r, c] != 0:
                M[r] = M[r] * M[rank, c] - M[rank] * M[r, c]
        rank += 1
        if rank == rows:
            break
    return rank


@lru_cache(maxsize=None)
def build_root_system(type_label: str, rank: int) -> RootSystem:
    return RootSystem(type_label, rank)


class StructureConstants:
    """Chevalley structure constants N_{ab} for a fixed root system, built by
    the extraspecial-pair normalization: for each positive root written as a
    sum, the minimal decomposition (in the positive-root order) gets the
    positive sign p+1, and all other constants follow from the standard
    antisymmetry, negation and Jacobi relations."""

    def __init__(self, sys: RootSystem):
        self.sys = sys
        self._N = {}
        self._es = {}
        for g in range(sys.n_pos):
            if sys.height(g) >= 2:
                for a in range(sys.n_pos):
                    b = sys.index.get(
                        tuple(x - y for x, y in zip(sys.roots[g], sys.roots[a]))
                    )
                    if b is not None and b < sys.n_pos:
                        self._es[g] = (a, b)
                        break
        # force the whole table now so inconsistencies surface at build time
        for i in range(len(sys.roots)):
            for j in range(len(sys.roots)):
                if sys.sum_root(i, j) is not None:
                    n = self.N(i, j)
                    p = sys.chain_down(i, j)
                    if not (abs(n) == p + 1 and 1 <= abs(n) <= 3):
                        raise RuntimeError(f"inconsistent structure constant at roots {i},{j}: N={n}, p={p}")

    def N(self, a: int, b: int) -> int:
        """N_{ab} with root_a + root_b a root; 0 if the sum is not a root."""
        sys = self.sys
        g = sys.sum_root(a, b)
        if g is None:
            return 0
        key = (a, b)
        if key in self._N:
            return self._N[key]
        val = self._compute(a, b, g)
        self._N[key] = val
        return val

    def _compute(self, a, b, g):
        sys = self.sys
        npos = sys.n_pos
        if a < npos and b < npos:
            ea, eb = self._es[g]
            if (a, b) == (ea, eb):
                return sys.chain_down(a, b) + 1
            if (a, b) == (eb, ea):
                return -self.N(ea, eb)
            # Jacobi-type four-root relation on (ea, eb, -a, -b), which sum to 0
            na, nb = sys.neg(a), sys.neg(b)
            t2 = self._pair_term(eb, na, ea, nb)
            t3 = self._pair_term(na, ea, eb, nb)
            gg = sys.bilinear(g, g)
            val = (t2 + t3) * gg / self.N(ea, eb)
            if val.denominator != 1 or val == 0:
                raise RuntimeError(f"structure constant N({a}, {b}) = {val} is not a nonzero integer")
            return int(val)
        if a >= npos and b >= npos:
            return -self.N(sys.neg(a), sys.neg(b))
        # mixed signs: rotate the zero-sum triple (a, b, -g) to a same-sign pair
        ng = sys.neg(g)
        if (a < npos) == (g < npos):
            # pair (b, -g) has matching signs... fall through generic rotation
            val = sys.bilinear(g, g) / sys.bilinear(a, a) * self.N(b, ng)
        else:
            val = sys.bilinear(g, g) / sys.bilinear(b, b) * self.N(ng, a)
        if val.denominator != 1 or val == 0:
            raise RuntimeError(f"structure constant N({a}, {b}) = {val} is not a nonzero integer")
        return int(val)

    def _pair_term(self, x, y, z, w):
        """N(x,y) N(z,w) / (x+y, x+y), or 0 when x+y is not a root."""
        sys = self.sys
        s = sys.sum_root(x, y)
        if s is None:
            return Fraction(0)
        return Fraction(self.N(x, y) * self.N(z, w)) / sys.bilinear(s, s)

    def M(self, a: int, b: int, i: int) -> int:
        """M_i(a,b) = (1/i!) * prod_{k=0}^{i-1} N(a, k*a+b)."""
        sys = self.sys
        num = 1
        for k in range(i):
            kb = sys.combo([(k, a), (1, b)])
            if kb is None:
                raise ValueError(f"{k} a + b is not a root for a = {a}, b = {b}: i = {i} passes the chain")
            num *= self.N(a, kb)
        fact = 1
        for k in range(2, i + 1):
            fact *= k
        if num % fact:
            raise RuntimeError(f"M_{i}({a}, {b}) = {num}/{fact} is not an integer")
        return num // fact


@lru_cache(maxsize=None)
def structure_constants(type_label: str, rank: int) -> StructureConstants:
    return StructureConstants(build_root_system(type_label, rank))


@lru_cache(maxsize=None)
def commutator_template(sc: StructureConstants, a: int, b: int):
    """Integer template for [x_a(r), x_b(s)] with the convention
    [g,h] = g^-1 h^-1 g h: a tuple of (root index, e_a, e_b, coeff) meaning
    the factor x_{e_a*a + e_b*b}(coeff * r^{e_a} * s^{e_b}), in increasing
    e_a + e_b order.  Empty when a+b is not a root; memoised."""
    sys = sc.sys
    if sys.sum_root(a, b) is None:
        return ()
    out = []
    for i in range(1, 4):  # exponent of b
        for j in range(1, 4):  # exponent of a
            g = sys.combo([(j, a), (i, b)])
            if g is None:
                continue
            c = _carter_coeff(sc, b, a, i, j)
            out.append((g, j, i, c * (-1) ** i))
    out.sort(key=lambda t: (t[1] + t[2], t[2]))
    return tuple(out)


def _carter_coeff(sc: StructureConstants, alpha: int, beta: int, i: int, j: int) -> int:
    """The C_{ij} coefficient attached to i*alpha + j*beta in the rank-2
    commutator expansion of [x_beta(u), x_alpha(t)]."""
    sys = sc.sys
    if (i, j) == (1, 1):
        return sc.N(alpha, beta)
    if j == 1:
        return sc.M(alpha, beta, i)
    if i == 1:
        return (-1) ** j * sc.M(beta, alpha, j)
    ab = sys.sum_root(alpha, beta)
    if ab is None or (i, j) not in ((3, 2), (2, 3)):
        raise ValueError(f"no commutator coefficient C_{i}{j} for roots {alpha}, {beta}")
    m = sc.M(ab, alpha, 2) if i == 3 else -2 * sc.M(ab, beta, 2)
    if m % 3:
        raise RuntimeError(f"C_{i}{j} = {m}/3 for roots {alpha}, {beta} is not an integer")
    return m // 3


def dump_roots(sys: RootSystem) -> str:
    """One root per line, space-separated integer coefficients, positive
    roots first in the fixed order."""
    return "\n".join(" ".join(str(c) for c in v) for v in sys.roots)
