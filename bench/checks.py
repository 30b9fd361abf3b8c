"""Expected values computed apart from the program, and the tally of checks.

Every expected value here comes from a closed form or from integer
arithmetic; nothing imports the program and nothing is a stored copy of its
output.
"""

from __future__ import annotations

from math import gcd, prod

import numpy as np


def order_sl3(q: int) -> int:
    return q**3 * (q**2 - 1) * (q**3 - 1)


def order_sp4(q: int) -> int:
    return q**4 * (q**2 - 1) * (q**4 - 1)


def order_g2(q: int) -> int:
    return q**6 * (q**2 - 1) * (q**6 - 1)


def order_sl2(q: int) -> int:
    return q * (q**2 - 1)


ORDER = {"SL3": order_sl3, "Sp4": order_sp4, "G2adj": order_g2}

# |Z(G(F_q))| of the representation: scalars of determinant 1 in SL3,
# +-1 in Sp4, and trivial for the adjoint G2.
CENTER = {
    "SL3": lambda q: gcd(3, q - 1),
    "Sp4": lambda q: gcd(2, q - 1),
    "G2adj": lambda q: 1,
}


def root_times_center(spec: str, q: int) -> int:
    """|U_alpha Z| = q |Z|: the root subgroup meets the centre trivially."""
    return q * CENTER[spec](q)


def sp4_short_root_exceptional(q: int) -> bool:
    """The short root of Sp4 is exceptional exactly when F_q* = {1, -1}."""
    return q - 1 == 2


def product_field_mul(primes, a: int, b: int) -> int:
    """a * b in F_p1 x F_p2 x ..., codes mixed-radix with the first factor
    least significant, by integer arithmetic mod each p."""
    out, stride = 0, 1
    for p in primes:
        out += stride * ((a % p) * (b % p) % p)
        a, b, stride = a // p, b // p, stride * p
    return out


def sl2_product_order(primes) -> int:
    return prod(order_sl2(p) for p in primes)


def central_quotient(mode: str, primes) -> int:
    """Size of the central subgroup a quotient mode divides by: {1} for SL2,
    {1, -1} for SL2modZ, and every z with z^2 = 1 (two per odd field) for
    PSL2."""
    return {"SL2": 1, "SL2modZ": 2, "PSL2": 2 ** len(primes)}[mode]


def units_count(primes) -> int:
    return prod(p - 1 for p in primes)


def gamma1_size(primes) -> int:
    """|Gamma_1| = |{g : g11 a unit}| = prod q^2 (q - 1)."""
    return prod(p * p * (p - 1) for p in primes)


class Tally:
    """Counts checks attempted and keeps a line for every failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def equal(self, label: str, got, want) -> bool:
        self.attempted += 1
        if isinstance(got, np.ndarray) or isinstance(want, np.ndarray):
            ok = np.array_equal(got, want)
        else:
            ok = got == want
        if not ok:
            self.failures.append(f"{label}: got {got!r}, expected {want!r}")
        return bool(ok)

    def holds(self, label: str, flag) -> bool:
        return self.equal(label, bool(flag), True)
