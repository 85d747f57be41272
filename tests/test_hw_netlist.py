import pytest

from repro.hw.cells import tsmc28_like_library
from repro.hw.netlist import ComponentInventory, HardwareModule


class TestComponentInventory:
    def test_add_and_count(self):
        inv = ComponentInventory()
        inv.add("AND2", 3).add("AND2", 2).add("DFF", 1)
        assert inv.count("AND2") == 5
        assert inv.count("DFF") == 1
        assert inv.count("MISSING") == 0

    def test_negative_add_rejected(self):
        with pytest.raises(ValueError):
            ComponentInventory().add("AND2", -1)

    def test_merge(self):
        a = ComponentInventory({"AND2": 2})
        b = ComponentInventory({"AND2": 1, "DFF": 4})
        a.merge(b)
        assert a.count("AND2") == 3 and a.count("DFF") == 4

    def test_scaled(self):
        inv = ComponentInventory({"AND2": 2, "DFF": 3}).scaled(4)
        assert inv.count("AND2") == 8 and inv.count("DFF") == 12

    def test_total_instances(self):
        assert ComponentInventory({"A": 2, "B": 5}).total_instances() == 7

    def test_area_uses_library(self):
        lib = tsmc28_like_library()
        inv = ComponentInventory({"AND2": 10})
        assert inv.area(lib) == pytest.approx(10 * lib.cell("AND2").area_um2)

    def test_area_unknown_cell_raises(self):
        with pytest.raises(KeyError):
            ComponentInventory({"NOPE": 1}).area(tsmc28_like_library())

    def test_equality(self):
        assert ComponentInventory({"A": 1}) == ComponentInventory({"A": 1})
        assert ComponentInventory({"A": 1}) != ComponentInventory({"A": 2})


class TestHardwareModule:
    def _leaf(self, name="leaf", cells=None, path=("AND2",), cycles=1):
        return HardwareModule(
            name=name,
            inventory=ComponentInventory(cells or {"AND2": 4}),
            critical_path=path,
            cycles=cycles,
        )

    def test_area_includes_submodules(self):
        lib = tsmc28_like_library()
        leaf = self._leaf()
        parent = HardwareModule(name="parent", inventory=ComponentInventory({"DFF": 2}), submodules=[(leaf, 3)])
        expected = 2 * lib.cell("DFF").area_um2 + 3 * 4 * lib.cell("AND2").area_um2
        assert parent.area_um2(lib) == pytest.approx(expected)

    def test_combinational_delay_sums_when_not_pipelined(self):
        lib = tsmc28_like_library()
        leaf = self._leaf(path=("AND2", "AND2"))
        parent = HardwareModule(name="p", critical_path=("DFF",), submodules=[(leaf, 1)])
        expected = lib.cell("DFF").delay_ns + 2 * lib.cell("AND2").delay_ns
        assert parent.combinational_delay_ns(lib) == pytest.approx(expected)

    def test_combinational_delay_max_when_pipelined(self):
        lib = tsmc28_like_library()
        leaf = self._leaf(path=("AND2", "AND2", "AND2", "AND2"))
        parent = HardwareModule(name="p", critical_path=("DFF",), submodules=[(leaf, 1)], pipelined=True)
        assert parent.combinational_delay_ns(lib) == pytest.approx(4 * lib.cell("AND2").delay_ns)

    def test_invalid_cycles_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            HardwareModule(name="x", cycles=0)

    def test_flattened_cell_count(self):
        leaf = self._leaf(cells={"AND2": 5})
        parent = HardwareModule(name="p", inventory=ComponentInventory({"DFF": 1}), submodules=[(leaf, 2)])
        assert parent.total_inventory().total_instances() == 1 + 10

    def test_leakage_includes_submodules(self):
        lib = tsmc28_like_library()
        leaf = self._leaf(cells={"AND2": 5})
        parent = HardwareModule(name="p", inventory=ComponentInventory({"DFF": 1}), submodules=[(leaf, 2)])
        expected = lib.cell("DFF").leakage_nw + 10 * lib.cell("AND2").leakage_nw
        assert parent.leakage_nw(lib) == pytest.approx(expected)

    def test_describe_includes_metadata(self):
        module = HardwareModule(name="block", metadata={"width": 8})
        assert "width=8" in module.describe()
