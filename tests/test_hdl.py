"""Unit tests for the VHDL backend (Figures 4-5) and its validator."""

import os

import pytest

from repro.busgen.split import plan_buses
from repro.errors import HdlError
from repro.explore.systems import load_system
from repro.hdl.validate import (
    count_procedures_per_channel,
    validate_vhdl,
)
from repro.hdl.vhdl import (
    emit_behavior,
    emit_bus_declaration,
    emit_procedure,
    emit_refined_spec,
    emit_variable_process,
    vhdl_expr,
    vhdl_type,
)
from repro.hdl.writer import SourceWriter
from repro.protocols import FULL_HANDSHAKE, HALF_HANDSHAKE
from repro.protogen.refine import generate_protocol, refine_system
from repro.spec.behavior import Behavior
from repro.spec.expr import BinOp, Const, Index, Ref, UnOp, vmax, vmin
from repro.spec.stmt import Assign, For, If, Nop, WaitClocks, While
from repro.spec.types import ArrayType, BitType, IntType
from repro.spec.variable import Variable


@pytest.fixture
def fig3_refined(fig3):
    return generate_protocol(fig3.system, fig3.group, width=8,
                             bus_name="B")


class TestWriter:
    def test_indentation(self):
        w = SourceWriter()
        w.line("a")
        with w.indented():
            w.line("b")
        w.line("c")
        assert w.text() == "a\n  b\nc\n"

    def test_dedent_below_zero(self):
        with pytest.raises(ValueError):
            SourceWriter().dedent()

    def test_blank_collapses(self):
        w = SourceWriter()
        w.line("a")
        w.blank()
        w.blank()
        assert w.text() == "a\n\n"


class TestTypesAndExprs:
    def test_vhdl_types(self):
        assert vhdl_type(BitType(1)) == "bit"
        assert vhdl_type(BitType(8)) == "bit_vector(7 downto 0)"
        assert vhdl_type(IntType(16)) == "integer range -32768 to 32767"
        assert "array (0 to 63)" in vhdl_type(ArrayType(IntType(16), 64))

    def test_vhdl_exprs(self):
        x = Variable("x", IntType(16))
        arr = Variable("arr", ArrayType(IntType(16), 8))
        assert vhdl_expr(Const(5)) == "5"
        assert vhdl_expr(Ref(x)) == "x"
        assert vhdl_expr(Index(arr, Ref(x))) == "arr(x)"
        assert vhdl_expr(Ref(x) + 1) == "(x + 1)"
        assert vhdl_expr(vmin(Ref(x), 3)) == "imin(x, 3)"
        assert vhdl_expr(vmax(Ref(x), 3)) == "imax(x, 3)"
        assert vhdl_expr(UnOp("abs", Ref(x))) == "abs(x)"
        assert vhdl_expr(UnOp("-", Ref(x))) == "(-x)"
        assert vhdl_expr(BinOp("=", Ref(x), 1)) == "(x = 1)"


class TestBusDeclaration:
    def test_figure4_record(self, fig3_refined):
        text = emit_bus_declaration(fig3_refined.buses[0].structure)
        assert "type FullHandshakeBus is record" in text
        assert "START, DONE : bit ;" in text
        assert "ID : bit_vector(1 downto 0) ;" in text
        assert "DATA : bit_vector(7 downto 0) ;" in text
        assert "signal B : FullHandshakeBus ;" in text


class TestProcedures:
    def test_uniform_loop_matches_figure4(self, fig3_refined):
        """The scalar 16-bit channel over the 8-bit bus gets the exact
        Figure 4 loop: for J in 1 to 2, slices 8*J-1 downto 8*(J-1)."""
        bus = fig3_refined.buses[0]
        scalar_write = next(
            pair for pair in bus.procedures.values()
            if pair.channel.variable.name == "X" and pair.channel.is_write)
        text = emit_procedure(scalar_write.accessor, bus.structure)
        assert "for J in 1 to 2 loop" in text
        assert "8*J-1 downto 8*(J-1)" in text
        assert "B.START <= '1' ;" in text
        assert "wait until (B.DONE = '1') ;" in text
        assert "B.START <= '0' ;" in text
        assert "wait until (B.DONE = '0') ;" in text

    def test_accessor_sets_id_first(self, fig3_refined):
        bus = fig3_refined.buses[0]
        for pair in bus.procedures.values():
            text = emit_procedure(pair.accessor, bus.structure)
            id_bits = bus.structure.ids.code_bits(pair.channel.name)
            assert f'B.ID <= "{id_bits}" ;' in text

    def test_server_guards_on_start_and_id(self, fig3_refined):
        bus = fig3_refined.buses[0]
        for pair in bus.procedures.values():
            text = emit_procedure(pair.server, bus.structure)
            id_bits = bus.structure.ids.code_bits(pair.channel.name)
            assert f"(B.START = '1') and (B.ID = \"{id_bits}\")" in text

    def test_array_server_declares_locals_and_commits(self, fig3_refined):
        bus = fig3_refined.buses[0]
        array_write = next(
            pair for pair in bus.procedures.values()
            if pair.channel.variable.name == "MEM" and pair.channel.is_write)
        text = emit_procedure(array_write.server, bus.structure)
        assert "variable addr : bit_vector" in text
        assert "variable data : bit_vector" in text
        assert "storage(bv2int(addr)) := bv2int(data) ;" in text

    def test_array_read_server_loads_after_address(self):
        """A read channel's server fetches storage once the address is
        complete, before driving data."""
        from repro.channels.channel import Channel
        from repro.channels.group import ChannelGroup
        from repro.spec.access import Direction
        from repro.spec.system import SystemSpec

        mem = Variable("MEM", ArrayType(IntType(16), 64))
        tmp = Variable("tmp", IntType(16))
        reader = Behavior("R", [Assign(tmp, Index(mem, 3))],
                          local_variables=[tmp])
        system = SystemSpec("sys", [reader], [mem])
        mem_read = Channel("chr", reader, mem, Direction.READ, 1)
        group = ChannelGroup("B2", [mem_read])
        refined = generate_protocol(system, group, width=8)
        bus = refined.buses[0]
        text = emit_procedure(bus.procedures["chr"].server, bus.structure)
        assert "data := int2bv(storage(bv2int(addr))" in text

    def test_half_handshake_toggles_req(self, fig3):
        refined = generate_protocol(fig3.system, fig3.group, width=8,
                                    protocol=HALF_HANDSHAKE, bus_name="B")
        bus = refined.buses[0]
        pair = next(iter(bus.procedures.values()))
        text = emit_procedure(pair.accessor, bus.structure)
        assert "B.REQ <= not B.REQ ;" in text
        assert "wait for BUS_WORD_DELAY ;" in text


class TestBehaviorsAndProcesses:
    def test_behavior_emission(self, fig3_refined):
        text = emit_behavior(fig3_refined.behavior("Q"))
        assert "Q : process" in text
        assert "SendCH" in text
        assert text.strip().endswith("end process ;")

    def test_refined_behavior_declares_temps(self, fig3_refined):
        text = emit_behavior(fig3_refined.behavior("P"))
        assert "variable Xtemp" in text

    def test_variable_process_dispatch(self, fig3_refined):
        bus = fig3_refined.buses[0]
        memproc = next(vp for vp in bus.variable_processes
                       if vp.name == "MEMproc")
        text = emit_variable_process(memproc, bus.structure)
        assert "MEMproc : process" in text
        assert "wait on B.ID ;" in text
        assert "if (B.ID =" in text
        assert "elsif (B.ID =" in text
        assert "end if ;" in text

    def test_statement_emission(self):
        x = Variable("x", IntType(16))
        i = Variable("i", IntType(16))
        behavior = Behavior("B", [
            If(Ref(x) > 0, [Assign(x, 1)], [Assign(x, 2)]),
            For(i, 0, 3, [Assign(x, Ref(i))]),
            While(Ref(x) < 10, [Assign(x, Ref(x) + 1)]),
            WaitClocks(5),
            Nop(),
        ], local_variables=[x])
        text = emit_behavior(behavior)
        assert "if (x > 0) then" in text
        assert "else" in text
        assert "for i in 0 to 3 loop" in text
        assert "while (x < 10) loop" in text
        assert "wait for 5 * CLOCK_PERIOD ;" in text
        assert "null ;" in text


class TestFullDesign:
    def test_emits_and_validates(self, fig3_refined):
        text = emit_refined_spec(fig3_refined)
        report = validate_vhdl(text)
        assert report.ok, report.errors

    def test_two_procedures_per_channel(self, fig3_refined):
        text = emit_refined_spec(fig3_refined)
        report = validate_vhdl(text)
        counts = count_procedures_per_channel(
            report, [c.name for c in fig3_refined.buses[0].group])
        assert all(count == 2 for count in counts.values())

    def test_all_processes_present(self, fig3_refined):
        report = validate_vhdl(emit_refined_spec(fig3_refined))
        assert {"P", "Q", "Xproc", "MEMproc"} <= report.processes

    def test_named_array_types_declared(self, fig3_refined):
        text = emit_refined_spec(fig3_refined)
        assert "type MEM_type is array (0 to 63)" in text

    @pytest.mark.parametrize("spec", ["gcd_accelerator", "pipeline_dsp"])
    def test_multi_bus_design_validates(self, spec):
        # gcd splits one group over two buses, pipeline_dsp has one bus
        # per module pair: each bus gets its own record type, and a
        # variable served over several buses keeps one shared storage.
        path = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "specs", f"{spec}.spec")
        loaded = load_system(path)
        refined = refine_system(loaded.system, plan_buses(loaded.groups))
        assert len(refined.buses) > 1
        text = emit_refined_spec(refined)
        report = validate_vhdl(
            text, structures=[bus.structure for bus in refined.buses])
        assert report.ok, report.errors
        assert len(report.records) == len(refined.buses)
        served = [vproc.variable.name
                  for vproc in refined.all_variable_processes()]
        shared = {name for name in served if served.count(name) > 1}
        assert shared
        for name in shared:
            assert text.count(f"shared variable {name} :") == 1
            assert f"variable {name} :" not in text.replace(
                f"shared variable {name} :", "")


class TestValidator:
    def test_detects_unbalanced_process(self, fig3_refined):
        text = emit_refined_spec(fig3_refined)
        broken = text.replace("end process ;", "", 1)
        assert not validate_vhdl(broken).ok

    def test_detects_unbalanced_loop(self, fig3_refined):
        text = emit_refined_spec(fig3_refined)
        broken = text.replace("end loop ;", "", 1)
        assert not validate_vhdl(broken).ok

    def test_detects_unknown_record_field(self, fig3_refined):
        text = emit_refined_spec(fig3_refined)
        broken = text.replace("B.START", "B.BOGUS", 1)
        report = validate_vhdl(broken)
        assert any("BOGUS" in e for e in report.errors)

    def test_detects_undeclared_procedure_call(self, fig3_refined):
        text = emit_refined_spec(fig3_refined)
        # Break the *call site* (inside Q's process), not the
        # declaration, so the validator sees a call to a missing name.
        broken = text.replace("SendCH3(60", "SendCH99(60", 1)
        assert broken != text
        report = validate_vhdl(broken)
        assert any("SendCH99" in e for e in report.errors)

    def test_raise_if_failed(self, fig3_refined):
        text = emit_refined_spec(fig3_refined)
        report = validate_vhdl(text.replace("end process ;", "", 1))
        with pytest.raises(HdlError):
            report.raise_if_failed()
        validate_vhdl(text).raise_if_failed()  # no exception


class TestWidthCheck:
    """validate_vhdl cross-checks declared record widths against the
    generating bus structures."""

    def _emit(self, fig3_refined):
        text = emit_refined_spec(fig3_refined)
        structures = [bus.structure for bus in fig3_refined.buses]
        return text, structures

    def test_matching_widths_pass(self, fig3_refined):
        text, structures = self._emit(fig3_refined)
        report = validate_vhdl(text, structures=structures)
        assert report.ok, report.errors

    def test_mutated_data_width_fails(self, fig3_refined):
        text, structures = self._emit(fig3_refined)
        width = structures[0].width
        broken = text.replace(
            f"DATA : bit_vector({width - 1} downto 0)",
            f"DATA : bit_vector({width + 1} downto 0)")
        assert broken != text
        report = validate_vhdl(broken, structures=structures)
        assert any("DATA" in e and "bit(s)" in e for e in report.errors)

    def test_mutated_id_width_fails(self, fig3_refined):
        text, structures = self._emit(fig3_refined)
        id_lines = structures[0].id_lines
        broken = text.replace(
            f"ID : bit_vector({id_lines - 1} downto 0)",
            f"ID : bit_vector({id_lines} downto 0)")
        assert broken != text
        report = validate_vhdl(broken, structures=structures)
        assert any("ID" in e for e in report.errors)

    def test_mutated_structure_fails_against_good_text(self, fig3_refined):
        import copy

        text, structures = self._emit(fig3_refined)
        patched = copy.copy(structures[0])
        object.__setattr__(patched, "width", structures[0].width + 3)
        report = validate_vhdl(text, structures=[patched])
        assert any("DATA" in e for e in report.errors)

    def test_missing_signal_reported(self, fig3_refined):
        text, structures = self._emit(fig3_refined)
        broken = text.replace("signal B :", "signal Bx :")
        report = validate_vhdl(broken, structures=structures)
        assert any("no signal" in e for e in report.errors)

    def test_without_structures_stays_lenient(self, fig3_refined):
        text, _ = self._emit(fig3_refined)
        assert validate_vhdl(text).ok
