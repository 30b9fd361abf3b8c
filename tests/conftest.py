"""Shared fixtures.  Group enumeration is the expensive step of many tests
(Sp4 over F4 takes about half a second from its Bruhat cells, and its word
data several seconds more), so enumerated groups are cached once per
session and shared across test modules."""

import pytest

from chevalley.chevgroup import adjoint_rep, classical_rep, enumerate_group
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
