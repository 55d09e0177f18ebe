"""A cold program is printed once: its flat text keys it.

On a raw-text alias miss ``CompilerService.compile_program`` flattens
first and keys ``KIND_PROGRAM`` by the flat module's deterministic
text, the canonical text the program carries anyway, so nothing prints
the parsed source.  A raw-text alias hit prints nothing, and a
checkpoint's canonical text reaches its program through the
``{digest}\\x00top=`` alias without a parse.
"""

import sys

import pytest

from repro.compiler import ArtifactStore, CompilerService
from repro.compiler import service as service_module
from repro.compiler.artifacts import text_digest
from repro.compiler.service import KIND_PROGRAM
from repro.hypervisor.migration import rehydrate, suspend
from repro.runtime import Runtime
from repro.verilog import parse, printer

TWO_MODULES = """
module inc(input wire [7:0] a, output wire [7:0] y);
  assign y = a + 1;
endmodule
module top(input wire clock);
  reg [7:0] n = 0;
  wire [7:0] next;
  inc u(.a(n), .y(next));
  always @(posedge clock) begin
    n <= next;
    if (n == 3) $display("n=%0d", n);
  end
endmodule
"""


@pytest.fixture
def printed(monkeypatch):
    """The names of the modules the printer renders, wherever its
    ``print_module`` was imported (``print_source`` calls it too)."""
    names = []
    real = printer.print_module

    def spy(module):
        names.append(module.name)
        return real(module)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "print_module", None) is real:
            monkeypatch.setattr(module, "print_module", spy)
    return names


def test_a_cold_miss_prints_the_flat_module_once(printed):
    program = CompilerService(ArtifactStore()).compile_program(TWO_MODULES)
    assert printed == ["top"]
    assert program.source == printer.print_module(program.flat)


def test_a_raw_text_alias_hit_prints_nothing(printed):
    service = CompilerService(ArtifactStore())
    program = service.compile_program(TWO_MODULES)
    printed.clear()
    assert service.compile_program(TWO_MODULES) is program
    assert printed == []


def test_rehydrate_reaches_the_program_without_a_parse(printed, monkeypatch):
    service = CompilerService(ArtifactStore())
    runtime = Runtime(TWO_MODULES, compiler=service)
    runtime.tick(5)
    context = suspend(runtime)
    printed.clear()

    def no_parse(text):
        raise AssertionError("rehydrate parsed its canonical text")

    monkeypatch.setattr(service_module, "parse", no_parse)
    restored = rehydrate(context, "copy", compiler=service)
    assert restored.program is runtime.program
    assert printed == []


def test_text_its_parse_and_its_flat_module_share_one_program():
    service = CompilerService(ArtifactStore())
    program = service.compile_program(TWO_MODULES)
    assert service.compile_program(parse(TWO_MODULES)) is program
    assert service.compile_program(program.flat) is program
    assert service.compile_program(program.source) is program
    assert service.store.count(KIND_PROGRAM) == 1


def test_a_program_under_the_parse_keyed_form_reads_as_a_miss():
    """What a store (or an artifact directory) from before the flat-text
    key holds: the program under a digest of the printed parse."""
    service = CompilerService(ArtifactStore())
    stale = text_digest(printer.print_source(parse(TWO_MODULES)) + "\x00top=top")
    service.store.put(KIND_PROGRAM, stale, "not a program")
    program = service.compile_program(TWO_MODULES)
    assert program.name == "top"
    assert program.digest == text_digest(program.source)
