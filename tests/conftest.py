"""Shared fixtures.  Group enumeration is the expensive step of many tests
(Sp4 over F4 takes about half a second from its Bruhat cells, and its word
data several seconds more), so enumerated groups are cached once per
session and shared across test modules."""

import itertools

import numpy as np
import pytest

from chevalley.chevgroup import EnumeratedGroup, adjoint_rep, classical_rep, enumerate_group
from chevalley.rings import GF

_GROUPS = {}


def get_group(form, type_label, rank, q):
    key = (form, type_label, rank, q)
    if key not in _GROUPS:
        rep = (classical_rep if form == "classical" else adjoint_rep)(type_label, rank)
        _GROUPS[key] = enumerate_group(rep, GF(q))
    return _GROUPS[key]


@pytest.fixture(scope="session")
def group_of():
    return get_group


@pytest.fixture(scope="session")
def sl2_f3():
    """SL2(F3), 24 elements, through the group constructor: the determinant-1
    matrices listed by their entries, each with its adjugate as inverse."""
    ring = GF(3)
    mats = [m for m in itertools.product(range(3), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % 3 == 1]
    elements = np.array(mats, dtype=ring.dtype).reshape(-1, 2, 2)
    a, b, c, d = (elements[:, i, j].astype(int) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    adjugate = np.stack([d, -b % 3, -c % 3, a], axis=-1).reshape(-1, 2, 2).astype(ring.dtype)
    return EnumeratedGroup(ring, elements, adjugate)
