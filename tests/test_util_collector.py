"""``gc_paused``: collection off inside the block, as found after it."""

from __future__ import annotations

import gc

import pytest

from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.util.collector import gc_paused


@pytest.fixture(autouse=True)
def collector_as_found():
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


def test_pauses_and_re_enables():
    gc.enable()
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_leaves_a_disabled_collector_disabled():
    gc.disable()
    with gc_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_restores_when_the_block_raises():
    gc.enable()
    with pytest.raises(KeyError):
        with gc_paused():
            raise KeyError("boom")
    assert gc.isenabled()


def test_nested_pauses_restore_in_order():
    gc.enable()
    with gc_paused():
        with gc_paused():
            pass
        assert not gc.isenabled()
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_building_a_system_leaves_the_collector_as_found(enabled):
    (gc.enable if enabled else gc.disable)()
    RangeSelectionSystem(SystemConfig(n_peers=4))
    assert gc.isenabled() is enabled
