import numpy as np
import pytest
from hypothesis import given, strategies as st

from chevalley.rings import GF, ProductRing, Zmod, decompose_square_diff, hypothesis_profile, square_diff_table

RINGS = [GF(4), GF(5), GF(9), Zmod(6), ProductRing([GF(3), GF(4)])]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_ring_axioms_exhaustive(ring):
    elems = [ring.dtype(c) for c in range(ring.size)]
    for a in elems:
        assert ring.add(a, ring.zero) == a
        assert ring.mul(a, ring.one) == a
        assert ring.add(a, ring.neg(a)) == ring.zero
        for b in elems:
            assert ring.add(a, b) == ring.add(b, a)
            assert ring.mul(a, b) == ring.mul(b, a)
    # sampled associativity and distributivity (cubic in ring size)
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b, c = (ring.dtype(x) for x in rng.integers(ring.size, size=3))
        assert ring.mul(a, ring.mul(b, c)) == ring.mul(ring.mul(a, b), c)
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_inverses(q):
    f = GF(q)
    for a in f.units():
        assert f.mul(a, f.inv(a)) == f.one
    assert len(f.units()) == q - 1


def test_zmod_units():
    z6 = Zmod(6)
    assert sorted(int(u) for u in z6.units()) == [1, 5]
    with pytest.raises((ValueError, ZeroDivisionError, KeyError)):
        z6.inv(z6.dtype(2))


def test_product_ring_componentwise():
    pr = ProductRing([GF(3), GF(5)])
    assert pr.size == 15
    for code in range(pr.size):
        parts = pr.decode(pr.dtype(code))
        assert pr.encode(parts) == code
    a = pr.encode((1, 2))
    b = pr.encode((2, 4))
    assert tuple(int(x) for x in pr.decode(pr.mul(pr.dtype(a), pr.dtype(b)))) == (2, 3)


@given(st.integers(0, 11), st.integers(0, 11), st.integers(0, 11))
def test_zmod12_is_a_ring(a, b, c):
    z = Zmod(12)
    a, b, c = z.dtype(a), z.dtype(b), z.dtype(c)
    assert z.add(z.add(a, b), c) == z.add(a, z.add(b, c))
    assert z.mul(z.mul(a, b), c) == z.mul(a, z.mul(b, c))
    assert z.mul(a, z.add(b, c)) == z.add(z.mul(a, b), z.mul(a, c))


def test_gf_frobenius():
    f = GF(8)
    for a in [f.dtype(c) for c in range(8)]:
        for b in [f.dtype(c) for c in range(8)]:
            s = f.add(a, b)
            assert f.mul(s, s) == f.add(f.mul(a, a), f.mul(b, b))


def test_hypothesis_profile_flags():
    assert not hypothesis_profile(Zmod(4)).is_domain
    assert hypothesis_profile(GF(3)).units_eq_pm1
    assert hypothesis_profile(GF(5)).is_domain
    assert not hypothesis_profile(GF(5)).units_eq_pm1


def test_square_difference_decomposition():
    f7 = GF(7)
    for a in range(7):
        x, y, s = decompose_square_diff(f7, f7.dtype(a), [f7.zero])
        lhs = f7.sub(f7.mul(f7.dtype(x), f7.dtype(x)), f7.mul(f7.dtype(y), f7.dtype(y)))
        assert f7.add(lhs, f7.dtype(s)) == f7.dtype(a)


@pytest.mark.parametrize("S", [(0,), (0, 1), (3, 0)])
@pytest.mark.parametrize("ring", [GF(7), GF(11), GF(13), GF(49), ProductRing([GF(7), GF(11)])],
                         ids=["F7", "F11", "F13", "F49", "F7xF11"])
def test_square_diff_table_is_the_scalar_search(ring, S):
    table = square_diff_table(ring, S)
    assert table.dtype == ring.dtype and table.shape == (ring.size, 3)
    assert table.tolist() == [list(decompose_square_diff(ring, a, S)) for a in range(ring.size)]


def test_square_diff_table_refuses_a_gap_as_the_scalar_search_does():
    f5 = GF(5)
    with pytest.raises(ValueError) as scalar:
        decompose_square_diff(f5, 1, [f5.zero])
    with pytest.raises(ValueError) as batched:
        square_diff_table(f5, [f5.zero])
    assert str(batched.value) == str(scalar.value)
    with pytest.raises(ValueError):
        square_diff_table(GF(7), [])
    assert square_diff_table(f5, [f5.zero, f5.one])[:, 2].tolist() == [0, 1, 0, 0, 1]


def test_square_difference_gap_over_f5():
    f5 = GF(5)
    failing = []
    for a in range(5):
        try:
            decompose_square_diff(f5, f5.dtype(a), [f5.zero])
        except ValueError:
            failing.append(a)
    assert failing == [1, 4]
