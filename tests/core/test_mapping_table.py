"""Tests for the per-process mapping table and HWG directory."""

from repro.core import LwgListener, LwgState, MappingTable
from repro.core.mapping_table import HwgDirectory
from repro.vsync.view import View, ViewId


def view(lwg, coord, seq, *members):
    return View(lwg, ViewId(coord, seq), tuple(members))


def test_ensure_local_creates_once():
    table = MappingTable()
    listener = LwgListener()
    first = table.ensure_local("lwg:a", listener)
    second = table.ensure_local("lwg:a", None)
    assert first is second
    assert first.listener is listener


def test_local_lwgs_on_filters_by_hwg_and_state():
    table = MappingTable()
    a = table.ensure_local("lwg:a", LwgListener())
    a.state = LwgState.MEMBER
    a.hwg = "hwg:1"
    a.view = view("lwg:a", "p0", 1, "p0")
    b = table.ensure_local("lwg:b", LwgListener())
    b.state = LwgState.JOINING
    b.hwg = "hwg:1"
    assert [e.lwg for e in table.local_lwgs_on("hwg:1")] == ["lwg:a"]


def test_coordinated_lwgs():
    table = MappingTable()
    a = table.ensure_local("lwg:a", LwgListener())
    a.state = LwgState.MEMBER
    a.view = view("lwg:a", "p0", 1, "p0", "p1")
    b = table.ensure_local("lwg:b", LwgListener())
    b.state = LwgState.MEMBER
    b.view = view("lwg:b", "p1", 1, "p1", "p0")
    assert [e.lwg for e in table.coordinated_lwgs("p0")] == ["lwg:a"]
    assert [e.lwg for e in table.coordinated_lwgs("p1")] == ["lwg:b"]


def test_hwgs_in_use_includes_switch_targets():
    table = MappingTable()
    a = table.ensure_local("lwg:a", LwgListener())
    a.state = LwgState.MEMBER
    a.hwg = "hwg:1"
    a.switch_target = "hwg:2"
    assert table.hwgs_in_use() == {"hwg:1", "hwg:2"}


def test_directory_record_and_forward():
    directory = HwgDirectory("hwg:1")
    v = view("lwg:a", "p0", 1, "p0", "p1")
    directory.record_view(v)
    assert directory.views["lwg:a"] is v
    directory.remove_lwg("lwg:a", forward_to="hwg:2")
    assert "lwg:a" not in directory.views
    assert directory.forward["lwg:a"] == "hwg:2"
    # A fresh view announcement clears the forward pointer.
    directory.record_view(v)
    assert "lwg:a" not in directory.forward


def test_directory_prune_members():
    directory = HwgDirectory("hwg:1")
    directory.record_view(view("lwg:a", "p0", 1, "p0", "p1"))
    directory.record_view(view("lwg:b", "p2", 1, "p2"))
    dropped = directory.prune_members({"p0", "p1"})
    assert dropped == ["lwg:b"]
    assert "lwg:a" in directory.views


def test_dir_for_creates_on_demand():
    table = MappingTable()
    assert table.dir_for("hwg:x") is table.dir_for("hwg:x")
