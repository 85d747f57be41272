import pytest

from repro.hw.cells import tsmc28_like_library
from repro.hw.netlist import ComponentInventory, HardwareModule
from repro.hw.synthesis import synthesize


@pytest.fixture
def simple_module():
    return HardwareModule(
        name="adder",
        inventory=ComponentInventory({"FULL_ADDER": 8, "DFF": 8}),
        critical_path=("FULL_ADDER", "FULL_ADDER", "DFF"),
        cycles=1,
        metadata={"width": 8},
    )


class TestSynthesize:
    def test_report_fields_consistent(self, simple_module):
        lib = tsmc28_like_library()
        report = synthesize(simple_module, lib)
        assert report.name == "adder"
        assert report.area_um2 == pytest.approx(simple_module.area_um2(lib))
        assert report.adp == pytest.approx(report.area_um2 * report.delay_ns)
        assert report.cell_count == 16
        assert report.metadata["width"] == 8

    def test_min_clock_floor(self, simple_module):
        fast = synthesize(simple_module, min_clock_ns=0.0)
        slow = synthesize(simple_module, min_clock_ns=5.0)
        assert slow.clock_period_ns == pytest.approx(5.0)
        assert slow.delay_ns > fast.delay_ns

    def test_serial_design_delay_scales_with_cycles(self):
        short = HardwareModule(name="s", inventory=ComponentInventory({"DFF": 1}), critical_path=("DFF",), cycles=16)
        long = HardwareModule(name="l", inventory=ComponentInventory({"DFF": 1}), critical_path=("DFF",), cycles=256)
        assert synthesize(long).delay_ns == pytest.approx(16 * synthesize(short).delay_ns)

    def test_negative_min_clock_rejected(self, simple_module):
        with pytest.raises(ValueError):
            synthesize(simple_module, min_clock_ns=-1.0)

    def test_cell_breakdown_matches_inventory(self, simple_module):
        report = synthesize(simple_module)
        assert report.cell_breakdown == {"FULL_ADDER": 8, "DFF": 8}

    @pytest.mark.parametrize("cycles", [1, 16, 256])
    @pytest.mark.parametrize("min_clock_ns", [0.0, 0.05, 5.0])
    def test_delay_is_cycles_times_clamped_path_delay(self, cycles, min_clock_ns):
        lib = tsmc28_like_library()
        module = HardwareModule(
            name="m", inventory=ComponentInventory({"FULL_ADDER": 2}), critical_path=("FULL_ADDER",), cycles=cycles
        )
        report = synthesize(module, lib, min_clock_ns=min_clock_ns)
        period = max(module.combinational_delay_ns(lib), min_clock_ns)
        assert report.clock_period_ns == pytest.approx(period)
        assert report.delay_ns == pytest.approx(cycles * period)
        assert report.cycles == cycles

    def test_leakage_sums_the_flattened_cells(self, simple_module):
        lib = tsmc28_like_library()
        expected = 8 * lib.cell("FULL_ADDER").leakage_nw + 8 * lib.cell("DFF").leakage_nw
        assert synthesize(simple_module, lib).leakage_nw == pytest.approx(expected)
