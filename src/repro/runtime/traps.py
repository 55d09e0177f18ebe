"""Trap servicing: the runtime side of sub-clock-tick yields (§3.4-3.5).

When a hardware engine's state machine raises ``__task``, the runtime
takes control, fetches the trap's arguments through ``get`` requests,
has the :class:`~repro.interp.systasks.TaskHost` perform the side
effect against OS-managed resources (the VFS, the display log, the
scheduler) exactly as it does for the interpreter, places results (if
any) in the appropriate hardware location through ``set`` requests, and
yields back by asserting ``__cont``.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.machinify import TaskSite
from ..interp.systasks import FinishSignal, TaskHost
from ..verilog import ast_nodes as ast
from ..verilog.width import WidthEnv, WidthError
from .abi import AbiChannel, ReadExpr, WriteLval


class TrapError(Exception):
    """Raised when a trap cannot be serviced."""


class TrapServicer:
    """Services task/query traps for one engine: reads arguments and
    writes destinations over the channel; the host does the rest."""

    def __init__(self, host: TaskHost, env: WidthEnv,
                 time_fn: Optional[Callable[[], int]] = None):
        self.host = host
        self.env = env
        self.time_fn = time_fn or (lambda: 0)
        self.serviced = 0

    def service(self, channel: AbiChannel, site: TaskSite) -> None:
        """Perform *site*'s side effect; results are written back via set."""
        self.serviced += 1
        channel.stats.traps_serviced += 1
        if site.kind == "query":
            self._service_query(channel, site)
        else:
            self._service_task(channel, site)

    def _service_query(self, channel: AbiChannel, site: TaskSite) -> None:
        value = self.host.query(site.name, site.args,
                                lambda expr: channel.send(ReadExpr(expr)),
                                self.time_fn())
        if value is None:
            raise TrapError(f"unsupported query {site.name}")
        channel.send(WriteLval(site.dest, int(value)))

    def _service_task(self, channel: AbiChannel, site: TaskSite) -> None:
        try:
            self.host.perform(
                site.name, site.args, lambda expr: channel.send(ReadExpr(expr)),
                lambda dest, word: channel.send(WriteLval(dest, word)),
                self._width)
        except FinishSignal:
            pass  # the engine stops on ``host.finished``

    def _width(self, dest: ast.Expr) -> int:
        try:
            return self.env.width_of(dest)
        except WidthError:
            return 32
