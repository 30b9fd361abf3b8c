"""Exact commutative-ring arithmetic for small rings.

Every ring is finite and table-backed: an element is an integer code in
``range(size)`` and all arithmetic goes through numpy lookup tables
(``add_t``, ``mul_t``, ``neg_t``, ``inv_t``).  That keeps batched matrix
work in the group modules fully vectorized; `gfmat.mat_mul` lifts the rings
whose arithmetic is integer arithmetic to integer matrix products.

Supported kinds: GF(q) for prime powers q (non-prime q via the smallest
lexicographic monic irreducible over GF(p)), Z/n, finite direct products
of finite rings, and rings given only by their tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm

import numpy as np


def _min_dtype(size: int):
    if size <= 256:
        return np.uint8
    if size <= 65536:
        return np.uint16
    return np.int64


class FiniteRing:
    """Common interface: subclasses build the arithmetic tables."""

    kind: str
    char: int
    is_domain: bool
    is_field: bool
    size: int
    name: str
    add_t: np.ndarray  # (size, size)
    mul_t: np.ndarray  # (size, size)
    neg_t: np.ndarray  # (size,)
    inv_t: np.ndarray  # (size,), garbage at non-units
    unit_mask: np.ndarray  # (size,) bool
    zero: int
    one: int

    def __repr__(self):
        return f"<Ring {self.name}>"

    def _finish(self):
        """Derive neg/inv/units from add/mul tables."""
        n = self.size
        dt = _min_dtype(n)
        self.add_t = self.add_t.astype(dt)
        self.mul_t = self.mul_t.astype(dt)
        self.neg_t = np.argmin(self.add_t != self.zero, axis=1).astype(dt)
        eq_one = self.mul_t == self.one
        self.unit_mask = eq_one.any(axis=1)
        self.inv_t = np.argmax(eq_one, axis=1).astype(dt)
        self.dtype = dt

    # scalar helpers (codes in, codes out)
    def add(self, a, b):
        return int(self.add_t[a, b])

    def mul(self, a, b):
        return int(self.mul_t[a, b])

    def neg(self, a):
        return int(self.neg_t[a])

    def sub(self, a, b):
        return int(self.add_t[a, self.neg_t[b]])

    def inv(self, a):
        if not self.unit_mask[a]:
            raise ZeroDivisionError(f"{self.elem_str(a)} is not a unit in {self.name}")
        return int(self.inv_t[a])

    def is_unit(self, a) -> bool:
        return bool(self.unit_mask[a])

    def pow(self, a, n: int):
        if n < 0:
            a, n = self.inv(a), -n
        r = self.one
        for _ in range(n):
            r = self.mul(r, a)
        return r

    def elements(self):
        return range(self.size)

    def units(self):
        return [int(c) for c in np.nonzero(self.unit_mask)[0]]

    def from_int(self, m: int) -> int:
        raise NotImplementedError

    def from_int_array(self, a: np.ndarray) -> np.ndarray:
        """Vectorized image of an integer array under Z -> R."""
        raise NotImplementedError

    def elem_str(self, a) -> str:
        return str(self.payload(a))

    def payload(self, a):
        return a


def _check_tables(name: str, size: int) -> None:
    from .gfmat import check_budget  # deferred: gfmat imports this module
    check_budget(f"ring tables of {name}", (size, size), np.int64)


def _poly_mul_mod(u, v, mod, p):
    """Multiply coefficient tuples u, v over GF(p) and reduce mod `mod` (monic)."""
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                out[i + j] = (out[i + j] + ui * vj) % p
    deg = len(mod) - 1
    while len(out) > deg:
        lead = out.pop()
        if lead:
            for k in range(deg):
                out[-deg + k] = (out[-deg + k] - lead * mod[k]) % p
    while len(out) < deg:
        out.append(0)
    return tuple(out)


def _is_irreducible(coeffs, p):
    """Check a monic poly (coeffs low-to-high incl. leading 1) has no roots /
    no factor of degree <= deg/2, by brute force over GF(p)[X]."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            # trial division
            rem = list(coeffs)
            while len(rem) - 1 >= d:
                lead = rem[-1]
                if lead:
                    for k in range(d + 1):
                        rem[len(rem) - 1 - d + k] = (rem[len(rem) - 1 - d + k] - lead * div[k]) % p
                rem.pop()
            if not any(rem):
                return False
    return True


def _smallest_irreducible(p, f):
    """Smallest monic irreducible of degree f over GF(p), lexicographic in
    (c_0, ..., c_{f-1})."""
    for tail in itertools.product(range(p), repeat=f):
        coeffs = list(tail) + [1]
        if coeffs[0] == 0:
            continue  # reducible: X divides
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible of degree {f} over GF({p})")


def _factor_prime_power(q):
    for p in range(2, q + 1):
        if p * p > q and q > 1:
            return q, 1
        if q % p == 0:
            f = 0
            m = q
            while m % p == 0:
                m //= p
                f += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, f
    raise ValueError(f"bad field size {q}")


class GF(FiniteRing):
    """GF(p^f). Elements are encoded as base-p digit strings: the code of
    c_0 + c_1 X + ... is c_0 + c_1 p + ...; prime fields reduce to residues."""

    kind = "finite_field"
    is_domain = True
    is_field = True

    def __init__(self, q: int):
        p, f = _factor_prime_power(q)
        self.p, self.deg, self.size = p, f, q
        self.char = p
        self.name = f"F{q}"
        _check_tables(self.name, q)
        self.zero, self.one = 0, 1
        if f == 1:
            self.modulus = None
            idx = np.arange(q)
            self.add_t = (idx[:, None] + idx[None, :]) % q
            self.mul_t = (idx[:, None] * idx[None, :]) % q
        else:
            self.modulus = _smallest_irreducible(p, f)
            polys = [self._decode(c) for c in range(q)]
            add = np.zeros((q, q), dtype=np.int64)
            mul = np.zeros((q, q), dtype=np.int64)
            for a in range(q):
                for b in range(a, q):
                    s = tuple((x + y) % p for x, y in zip(polys[a], polys[b]))
                    m = _poly_mul_mod(polys[a], polys[b], self.modulus, p)
                    add[a, b] = add[b, a] = self._encode(s)
                    mul[a, b] = mul[b, a] = self._encode(m)
            self.add_t, self.mul_t = add, mul
        self._finish()

    def _decode(self, code):
        out = []
        for _ in range(self.deg):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def _encode(self, coeffs):
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c
        return code

    def from_int(self, m: int) -> int:
        return m % self.p

    def from_int_array(self, a):
        return np.asarray(a % self.p, dtype=self.dtype)

    def payload(self, a):
        if self.deg == 1:
            return int(a)
        return self._decode(a)

    def elem_str(self, a):
        if self.deg == 1:
            return str(int(a))
        coeffs = self._decode(a)
        terms = []
        for i, c in enumerate(coeffs):
            if c:
                terms.append(str(c) if i == 0 else (f"{c}t^{i}" if i > 1 else f"{c}t"))
        return "+".join(terms) if terms else "0"


class Zmod(FiniteRing):
    kind = "modular"
    is_field = False

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("modulus must be >= 2")
        self.size = n
        self.char = n
        self.name = f"Z/{n}"
        _check_tables(self.name, n)
        self.is_domain = all(n % d for d in range(2, n)) if n > 1 else False
        self.zero, self.one = 0, 1
        idx = np.arange(n)
        self.add_t = (idx[:, None] + idx[None, :]) % n
        self.mul_t = (idx[:, None] * idx[None, :]) % n
        self._finish()

    def from_int(self, m):
        return m % self.size

    def from_int_array(self, a):
        return np.asarray(a % self.size, dtype=self.dtype)

    def payload(self, a):
        return int(a)


class ProductRing(FiniteRing):
    """Finite direct product. Codes are mixed-radix over the factor codes,
    first factor least significant."""

    kind = "product"
    is_field = False

    def __init__(self, factors):
        factors = list(factors)
        if not factors or not all(isinstance(f, FiniteRing) for f in factors):
            raise ValueError("product requires finite factors")
        self.factors = factors
        self.size = 1
        for f in factors:
            self.size *= f.size
        self.char = lcm(*[f.char for f in factors])
        self.is_domain = len(factors) == 1 and factors[0].is_domain
        self.name = "x".join(f.name for f in factors)
        _check_tables(self.name, self.size)
        strides = []
        s = 1
        for f in factors:
            strides.append(s)
            s *= f.size
        self.strides = strides
        self.zero = self.encode([f.zero for f in factors])
        self.one = self.encode([f.one for f in factors])
        # componentwise tables
        idx = np.arange(self.size)
        comps = self.decode_array(idx)  # list of per-factor code arrays
        add = np.zeros((self.size, self.size), dtype=np.int64)
        mul = np.zeros((self.size, self.size), dtype=np.int64)
        for f, st, c in zip(factors, strides, comps):
            add += st * f.add_t[np.ix_(c, c)].astype(np.int64)
            mul += st * f.mul_t[np.ix_(c, c)].astype(np.int64)
        self.add_t, self.mul_t = add, mul
        self._finish()

    def encode(self, comps) -> int:
        return sum(int(c) * st for c, st in zip(comps, self.strides))

    def decode(self, code: int):
        out = []
        for f in self.factors:
            out.append(code % f.size)
            code //= f.size
        return tuple(out)

    def decode_array(self, a):
        out = []
        a = np.asarray(a)
        for f in self.factors:
            out.append(a % f.size)
            a = a // f.size
        return out

    def from_int(self, m):
        return self.encode([f.from_int(m) for f in self.factors])

    def from_int_array(self, a):
        out = np.zeros(np.shape(a), dtype=np.int64)
        for f, st in zip(self.factors, self.strides):
            out += st * f.from_int_array(a).astype(np.int64)
        return out.astype(self.dtype)

    def payload(self, a):
        return tuple(f.payload(c) for f, c in zip(self.factors, self.decode(a)))

    def elem_str(self, a):
        return "(" + ",".join(f.elem_str(c) for f, c in zip(self.factors, self.decode(a))) + ")"


class TableRing(FiniteRing):
    """A finite ring given only by its addition and multiplication tables,
    such as the ring a group word carries on a root subgroup: code r is the
    r-th element of the carrier."""

    kind = "table"

    def __init__(self, name: str, add_t, mul_t, zero: int, one: int):
        self.name = name
        self.size = len(add_t)
        self.add_t, self.mul_t = np.asarray(add_t), np.asarray(mul_t)
        self.zero, self.one = int(zero), int(one)
        self._finish()


@dataclass(frozen=True)
class HypothesisProfile:
    is_domain: bool
    units_eq_pm1: bool  # R* = {1, -1}


def hypothesis_profile(ring: FiniteRing) -> HypothesisProfile:
    return HypothesisProfile(
        is_domain=ring.is_domain,
        units_eq_pm1=set(ring.units()) == {ring.one, ring.neg(ring.one)},
    )


def decompose_square_diff(ring: FiniteRing, a: int, S) -> tuple[int, int, int]:
    """Write a = xi^2 - eta^2 + s with xi, eta units and s in S.

    Searches exhaustively; raises ValueError if no decomposition exists for
    the supplied S (the caller's signal that S is too small)."""
    S = list(S)
    units = ring.units()
    sqs = sorted({ring.mul(u, u) for u in units})
    sq_to_unit = {}
    for u in units:
        sq_to_unit.setdefault(ring.mul(u, u), u)
    for s in S:
        target = ring.sub(a, s)
        for x2 in sqs:
            e2 = ring.sub(x2, target)
            if e2 in sq_to_unit:
                return sq_to_unit[x2], sq_to_unit[e2], s
    raise ValueError(
        f"no decomposition of {ring.elem_str(a)} as xi^2-eta^2+s over {ring.name} with |S|={len(S)}"
    )
