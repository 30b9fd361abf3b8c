import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chevalley.gfmat import MatSet
from chevalley.rings import GF, ProductRing, Zmod

RINGS = {
    "F4": GF(4),
    "F5": GF(5),
    "Z/6": Zmod(6),
    "F7xF11": ProductRing([GF(7), GF(11)]),
    "F7xF11xF13": ProductRing([GF(7), GF(11), GF(13)]),  # uint16 codes
}


def _oracle_key(m) -> bytes:
    return np.ascontiguousarray(m).tobytes()


@settings(deadline=None, max_examples=40)
@given(name=st.sampled_from(sorted(RINGS)), d=st.integers(1, 3),
       n=st.integers(1, 60), seed=st.integers(0, 2**31 - 1))
def test_matset_against_bytes_oracle(name, d, n, seed):
    ring = RINGS[name]
    rng = np.random.default_rng(seed)
    # few distinct codes per entry, so batches repeat matrices
    codes = rng.choice(ring.size, size=min(3, ring.size), replace=False)
    mats = codes[rng.integers(len(codes), size=(n, d, d))].astype(ring.dtype)
    assert mats.dtype == ring.dtype

    # oracle: first occurrences in order, numbered by first occurrence
    first, number = [], {}
    for i, m in enumerate(mats):
        if _oracle_key(m) not in number:
            number[_oracle_key(m)] = len(first)
            first.append(i)

    uniq = MatSet.unique(mats)
    assert np.array_equal(uniq, mats[first])

    s = MatSet(mats)
    assert len(s) == len(first)
    got = s.index(mats)
    assert got.shape == (n,)
    assert got.tolist() == [number[_oracle_key(m)] for m in mats]
    assert s.index(mats[first[-1]]) == len(first) - 1
    assert s.contains(mats).all()

    # matrices outside the batch: contains is False and index raises
    other = codes[rng.integers(len(codes), size=(20, d, d))].astype(ring.dtype)
    other[:, 0, 0] = np.setdiff1d(np.arange(ring.size), codes)[0]
    assert not s.contains(other).any()
    with pytest.raises(KeyError):
        s.index(other[0])
    with pytest.raises(KeyError):
        s.index(np.concatenate([mats[:1], other[:1]]))

    # add() inserts only new matrices, at their first occurrence
    both = np.concatenate([other, mats, other])
    fresh = s.add(both)
    want = [i for i, m in enumerate(both) if _oracle_key(m) not in number
            and all(_oracle_key(both[j]) != _oracle_key(m) for j in range(i))]
    assert fresh.tolist() == want
    assert s.index(both[want]).tolist() == list(range(len(first), len(first) + len(want)))

    # sorted keys follow lexicographic entry order
    entries = sorted({tuple(int(v) for v in m.ravel()) for m in both})
    srt = s.sorted()
    assert srt.dtype == ring.dtype
    assert [tuple(int(v) for v in m.ravel()) for m in srt] == entries
    assert np.array_equal(np.argsort(MatSet.keys(srt), kind="stable"), np.arange(len(srt)))


def test_matset_keys_uint16_are_big_endian():
    ring = RINGS["F7xF11xF13"]
    a = np.array([[1, 0], [0, 0]], dtype=ring.dtype)
    b = np.array([[256, 0], [0, 0]], dtype=ring.dtype)
    # little-endian bytes would put b = (256, ...) before a = (1, ...)
    assert np.argsort(MatSet.keys(np.stack([b, a]))).tolist() == [1, 0]
    assert np.array_equal(MatSet(np.stack([b, a])).sorted(), np.stack([a, b]))


def test_no_matrix_keys_outside_gfmat():
    src = Path(__file__).resolve().parent.parent / "src" / "chevalley"
    pattern = re.compile(r"tobytes|np\.void|\.view\(\s*f?[\"']V|\.view\(\s*\[")
    offenders = [f"{p.name}:{i}" for p in sorted(src.glob("*.py")) if p.name != "gfmat.py"
                 for i, line in enumerate(p.read_text().splitlines(), start=1)
                 if pattern.search(line)]
    assert offenders == []
