"""System task/function host: the software side of unsynthesizable Verilog.

In Cascade/Synergy, unsynthesizable constructs are serviced by the
runtime.  :class:`TaskHost` is that service surface, and the one place
a task's meaning is written: it owns the virtual filesystem, the
display log and the pending ``$write`` text, the finish/yield/save/
restart flags, and the random generator, and :meth:`TaskHost.perform`
and :meth:`TaskHost.query` carry out every task and host function.  A
carrier only reads arguments and writes destinations: the interpreter
through its evaluator, a hardware engine through ABI traps (§3.4-3.5),
which is what makes hardware file IO and ``$save``/``$restart`` do
what they do in software.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..verilog import ast_nodes as ast
from .vfs import VirtualFS

#: how a carrier reads a (non-string) argument's value
Reader = Callable[[ast.Expr], int]


class FinishSignal(Exception):
    """Raised when the program executes ``$finish``."""

    def __init__(self, code: int = 0):
        super().__init__(f"$finish({code})")
        self.code = code


def verilog_format(fmt: str, values: List[object]) -> str:
    """Render a ``$display``-style format string.

    Supports ``%d``/``%0d``, ``%h``/``%x``, ``%b``, ``%o``, ``%c``,
    ``%s``, ``%t``, ``%m`` (best-effort) and ``%%``.  Width prefixes are
    honoured for numeric conversions.
    """
    out: List[str] = []
    args = list(values)
    i, n = 0, len(fmt)
    while i < n:
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        i += 1
        if i >= n:
            out.append("%")
            break
        # Optional width (a leading 0 means "minimum width").
        width_digits = ""
        while i < n and fmt[i].isdigit():
            width_digits += fmt[i]
            i += 1
        if i >= n:
            break
        conv = fmt[i].lower()
        i += 1
        if conv == "%":
            out.append("%")
            continue
        arg = args.pop(0) if args else 0
        if conv in ("d", "t"):
            text = str(arg)
            pad = int(width_digits) if width_digits else 0
            out.append(text.rjust(pad))
        elif conv in ("h", "x"):
            out.append(format(int(arg), "x"))
        elif conv == "b":
            out.append(format(int(arg), "b"))
        elif conv == "o":
            out.append(format(int(arg), "o"))
        elif conv == "c":
            out.append(chr(int(arg) & 0xFF))
        elif conv == "s":
            if isinstance(arg, str):
                out.append(arg)
            else:  # packed string in an integer
                value = int(arg)
                chars = []
                while value:
                    chars.append(chr(value & 0xFF))
                    value >>= 8
                out.append("".join(reversed(chars)))
        elif conv == "m":
            out.append(str(arg))
        else:
            out.append(f"%{conv}")
    return "".join(out)


def format_args(args: Sequence[ast.Expr], read: Reader) -> str:
    """An output task's text: a format string and the values it
    converts, or every argument joined by a space.  String arguments
    are their text; *read* gives any other argument's value."""
    def value(arg: ast.Expr):
        return arg.value if isinstance(arg, ast.String) else read(arg)

    if args and isinstance(args[0], ast.String) and "%" in args[0].value:
        return verilog_format(args[0].value, [value(a) for a in args[1:]])
    return " ".join(str(value(a)) for a in args)


class TaskHost:
    """Services unsynthesizable tasks for one program instance."""

    def __init__(self, vfs: Optional[VirtualFS] = None, echo: bool = False,
                 seed: int = 1):
        self.vfs = vfs if vfs is not None else VirtualFS()
        self.echo = echo
        self.display_log: List[str] = []
        #: ``$write`` text no ``$display`` has ended yet: the tenant's,
        #: so it stays put across engine swaps and travels in a Context
        self.write_buffer = ""
        self.finished = False
        self.finish_code = 0
        self.yield_asserted = False
        self.save_requested = False
        self.restart_requested = False
        self._rand_state = seed & 0xFFFFFFFF or 1

    # -- the tasks ------------------------------------------------------------

    def perform(self, name: str, args: Sequence[ast.Expr], read: Reader,
                assign: Callable[[ast.Expr, int], None],
                width_of: Callable[[ast.Expr], int]) -> None:
        """Carry out system task *name* on *args*.

        The carrier says how to read an argument (*read*), how to store
        ``$fread``'s word into its destination (*assign*) and how wide
        that destination is (*width_of*).  ``$finish`` raises
        :class:`FinishSignal`; a task the host does not know is logged,
        not fatal, as simulators do.
        """
        if name in ("$display", "$strobe", "$monitor"):
            self.display(format_args(args, read))
        elif name == "$write":
            self.write(format_args(args, read))
        elif name in ("$fdisplay", "$fwrite"):
            fd = int(read(args[0]))
            text = format_args(args[1:], read)
            self.vfs.fwrite(fd, text + "\n" if name == "$fdisplay" else text)
        elif name == "$fread":
            fd, dest = int(read(args[0])), args[1]
            word = self.vfs.fread_word(fd, width_of(dest))
            if word is not None:
                assign(dest, word)
        elif name == "$fclose":
            self.vfs.fclose(int(read(args[0])))
        elif name in ("$finish", "$stop"):
            self.finish(int(read(args[0])) if args else 0)
        elif name == "$save":  # the runtime acts on the flags between ticks
            self.save_requested = True
        elif name == "$restart":
            self.restart_requested = True
        elif name == "$yield":
            self.yield_asserted = True
        elif name == "$srandom":
            self._rand_state = (int(read(args[0])) if args else 1) or 1
        else:
            self._log(f"[unsupported system task {name}]")

    def query(self, name: str, args: Sequence[ast.Expr], read: Reader,
              time: int) -> Optional[int]:
        """The value of host function *name* at ``$time`` *time*, or
        ``None`` for one the host does not serve (each carrier raises
        its own error for that)."""
        if name == "$fopen":
            path = args[0].value if isinstance(args[0], ast.String) else ""
            mode = (args[1].value
                    if len(args) > 1 and isinstance(args[1], ast.String) else "r")
            return self.vfs.fopen(path, mode)
        if name == "$feof":
            return self.vfs.feof(int(read(args[0])))
        if name == "$fgetc":
            return self.vfs.fgetc(int(read(args[0])))
        if name in ("$random", "$urandom"):
            return self.random()
        if name in ("$time", "$stime"):
            return time
        return None

    # -- output, finish, random -----------------------------------------------

    def write(self, text: str) -> None:
        self.write_buffer += text

    def display(self, text: str) -> None:
        """End the line: the pending ``$write`` text, then *text*."""
        self._log(self.write_buffer + text)
        self.write_buffer = ""

    def _log(self, line: str) -> None:
        self.display_log.append(line)
        if self.echo:
            print(line)

    def finish(self, code: int = 0) -> None:
        self.finished = True
        self.finish_code = code
        raise FinishSignal(code)

    def random(self) -> int:
        """xorshift32 — deterministic across runs and platforms."""
        x = self._rand_state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._rand_state = x
        return x
