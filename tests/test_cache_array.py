"""Unit tests for the set-associative cache array."""

import pytest

from repro.common.types import L1State
from repro.config import CacheConfig
from repro.errors import SimulationError
from repro.mem.cache_array import CacheArray


def make_array(size=1024, assoc=2, block=128):
    return CacheArray(CacheConfig(size_bytes=size, assoc=assoc,
                                  block_bytes=block), L1State.I)


def test_insert_and_lookup():
    arr = make_array()
    line = arr.insert(0x100, L1State.V)
    assert arr.lookup(0x100) is line
    assert arr.lookup(0x17F) is line  # same block
    assert arr.lookup(0x200) is None


def test_insert_existing_resets_state():
    arr = make_array()
    arr.insert(0x100, L1State.V)
    line = arr.insert(0x100, L1State.IV)
    assert line.state is L1State.IV
    assert arr.occupancy() == 1


def test_lru_eviction_order():
    arr = make_array(size=512, assoc=2)  # 2 sets of 2
    n_sets = arr.n_sets
    stride = 128 * n_sets  # same set
    evicted = []
    arr.insert(0, L1State.V, evicted.append)
    arr.insert(stride, L1State.V, evicted.append)
    arr.lookup(0).touch()  # make block 0 MRU
    arr.insert(2 * stride, L1State.V, evicted.append)
    assert [ln.addr for ln in evicted] == [stride]
    assert arr.lookup(0) is not None


def test_invalid_lines_preferred_victims():
    arr = make_array(size=512, assoc=2)
    stride = 128 * arr.n_sets
    arr.insert(0, L1State.V)
    inv = arr.insert(stride, L1State.V)
    inv.state = L1State.I
    arr.lookup(0)  # no touch needed; invalid preferred regardless of LRU
    evicted = []
    arr.insert(2 * stride, L1State.V, evicted.append)
    assert [ln.addr for ln in evicted] == [stride]


def test_pinned_lines_never_evicted():
    arr = make_array(size=512, assoc=2)
    stride = 128 * arr.n_sets
    arr.insert(0, L1State.IV).pinned = True
    arr.insert(stride, L1State.IV).pinned = True
    assert not arr.can_allocate(2 * stride)
    with pytest.raises(SimulationError):
        arr.insert(2 * stride, L1State.V)


def test_can_allocate_when_space_or_victim():
    arr = make_array(size=512, assoc=2)
    stride = 128 * arr.n_sets
    assert arr.can_allocate(0)
    arr.insert(0, L1State.V)
    arr.insert(stride, L1State.V)
    assert arr.can_allocate(2 * stride)  # unpinned victim available
    assert arr.can_allocate(0)           # already present


def test_remove():
    arr = make_array()
    arr.insert(0x100, L1State.V)
    removed = arr.remove(0x100)
    assert removed is not None
    assert arr.lookup(0x100) is None
    assert arr.remove(0x100) is None


def test_removed_line_keeps_fields():
    """A reference held across remove() still reads the departed line —
    stale-``CacheLine`` aliasing the flat views must reproduce (the MESI
    eviction-recall path hands removed lines to ``_on_evict``)."""
    arr = make_array()
    line = arr.insert(0x100, L1State.V)
    line.value = "old"
    line.sharers.add(("core", 1))
    removed = arr.remove(0x100)
    assert removed.value == "old"
    assert removed.sharers == {("core", 1)}
    assert removed.addr == 0x100


def test_clear_drops_everything():
    arr = make_array()
    for i in range(4):
        arr.insert(i * 128, L1State.V)
    arr.clear()
    assert arr.occupancy() == 0
    assert list(arr.lines()) == []


def test_set_lines():
    arr = make_array(size=512, assoc=2)
    stride = 128 * arr.n_sets
    arr.insert(0, L1State.V)
    arr.insert(stride, L1State.V)
    assert len(arr.set_lines(0)) == 2
    assert len(arr.set_lines(128)) in (0, 1, 2)  # other set


def test_equal_lru_tie_breaks_by_insertion_order():
    """Victim tie-breaking is deterministic: with equal LRU ticks the
    first-inserted line wins (strict ``<`` scan in dict insertion order).
    Equal ticks cannot occur in a simulation (the shared global counter
    is unique), but the scan must stay pinned so a future tick-source
    change cannot silently reshuffle victims."""
    arr = make_array(size=1024, assoc=4, block=128)
    stride = 128 * arr.n_sets
    for i in range(4):
        arr.insert(i * stride, L1State.V)
    for i in range(4):
        arr.lookup(i * stride)._lru = 5
    evicted = []
    arr.insert(4 * stride, L1State.V, evicted.append)
    assert [ln.addr for ln in evicted] == [0]


def test_geometry_validation():
    with pytest.raises(Exception):
        CacheConfig(size_bytes=1000, assoc=3).validate()
