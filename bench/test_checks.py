"""Tests of the benchmark's own checkers: the closed forms give known values,
and a wrong value counts as a failed check.

    python3 -m pytest -q bench/test_checks.py     (or: python3 bench/test_checks.py)
"""

from __future__ import annotations

import numpy as np

from checks import (
    Tally, central_quotient, gamma1_size, order_g2, order_sl2, order_sl3, order_sp4,
    product_field_mul, root_times_center, sl2_product_order, sp4_short_root_exceptional,
    units_count,
)


def test_group_orders_match_known_values():
    assert order_sl3(2) == 168
    assert order_sl3(3) == 5616
    assert order_sp4(2) == 720
    assert order_sp4(3) == 51840
    assert order_g2(2) == 12096
    assert order_sl2(7) == 336 and order_sl2(11) == 1320


def test_centre_and_root_subgroup_sizes():
    assert root_times_center("SL3", 4) == 12
    assert root_times_center("SL3", 5) == 5
    assert root_times_center("Sp4", 3) == 6
    assert root_times_center("G2adj", 2) == 2
    assert sp4_short_root_exceptional(3)
    assert not sp4_short_root_exceptional(5)


def test_sl2_product_closed_forms():
    primes = (7, 11)
    assert sl2_product_order(primes) == 336 * 1320
    assert [central_quotient(m, primes) for m in ("SL2", "SL2modZ", "PSL2")] == [1, 2, 4]
    assert units_count(primes) == 60
    assert gamma1_size(primes) == 49 * 6 * 121 * 10


def test_product_field_mul_is_componentwise():
    primes = (7, 11)
    for a in range(77):
        for b in range(77):
            c = product_field_mul(primes, a, b)
            assert c % 7 == (a % 7) * (b % 7) % 7
            assert c // 7 == (a // 7) * (b // 7) % 11


def test_wrong_value_counts_as_failed():
    t = Tally()
    assert t.equal("right", 5616, order_sl3(3))
    assert not t.equal("wrong order", 5615, order_sl3(3))
    assert not t.holds("false flag", False)
    assert not t.equal("wrong matrix", np.eye(2, dtype=np.int8), np.zeros((2, 2), np.int8))
    assert t.equal("same matrix", np.eye(2, dtype=np.int8), np.eye(2, dtype=np.int8))
    assert t.attempted == 5
    assert len(t.failures) == 3
    assert t.failures[0].startswith("wrong order: got 5615")


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
    print("ok")
