"""KNEM-style kernel module: cookie-declared regions, same lock bottleneck.

KNEM requires the *owner* of a buffer to declare it first, which creates a
"cookie" the peer then copies from/to.  Relative to CMA this adds a region
declaration cost (and an extra control message to ship the cookie, paid at
the MPI layer), but the data path still pins pages under the owner's mm
lock, so it contends identically — the reason the paper's analysis applies
to all three mechanisms (CMA, KNEM, LiMIC).

The copies delegate to :meth:`CMAKernel.process_vm_readv`/``writev``, so
untraced KNEM transfers ride the same fused
:class:`~repro.sim.engine.PinConvoy` pin loop as plain CMA — no
KNEM-specific engine path exists.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Generator

from repro.kernel.errors import CMAError, EINVAL
from repro.sim.engine import Delay

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.cma import CMAKernel
    from repro.sim.engine import SimProcess

__all__ = ["KnemRegion", "KnemKernel"]


class KnemRegion:
    """A declared memory region, addressable by cookie."""

    __slots__ = ("cookie", "pid", "addr", "nbytes")

    def __init__(self, cookie: int, pid: int, addr: int, nbytes: int):
        self.cookie = cookie
        self.pid = pid
        self.addr = addr
        self.nbytes = nbytes


class KnemKernel:
    """Cookie-based copy engine layered on the shared CMA machinery."""

    def __init__(self, cma: "CMAKernel"):
        self.cma = cma
        self._cookies = itertools.count(0xC0_0000)
        self._regions: dict[int, KnemRegion] = {}

    def declare_region(
        self, owner: "SimProcess", addr: int, nbytes: int
    ) -> Generator:
        """Owner declares a region; returns the cookie (costs t_cookie)."""
        # validate the region resolves in the owner's space
        self.cma.manager.get(owner.pid).resolve(addr, nbytes)
        fs = self.cma.faults
        if fs is not None:
            # op "declare": ioctl-style setup can fail like the syscalls
            # (the data path inherits the CMA sites via delegation).
            fs.raise_if("declare", owner.pid, owner.pid)
        yield Delay(self.cma.params.t_cookie)
        cookie = next(self._cookies)
        self._regions[cookie] = KnemRegion(cookie, owner.pid, addr, nbytes)
        return cookie

    def inline_copy_from(
        self,
        caller: "SimProcess",
        cookie: int,
        local: tuple[int, int],
        region_offset: int = 0,
    ) -> Generator:
        """Copy from a declared region into the caller (KNEM 'inline copy')."""
        region = self._region(cookie)
        nbytes = local[1]
        if region_offset + nbytes > region.nbytes:
            raise CMAError(EINVAL, "copy exceeds declared region")
        got = yield from self.cma.process_vm_readv(
            caller,
            region.pid,
            [local],
            [(region.addr + region_offset, nbytes)],
        )
        return got

    def inline_copy_to(
        self,
        caller: "SimProcess",
        cookie: int,
        local: tuple[int, int],
        region_offset: int = 0,
    ) -> Generator:
        """Copy from the caller into a declared region."""
        region = self._region(cookie)
        nbytes = local[1]
        if region_offset + nbytes > region.nbytes:
            raise CMAError(EINVAL, "copy exceeds declared region")
        got = yield from self.cma.process_vm_writev(
            caller,
            region.pid,
            [local],
            [(region.addr + region_offset, nbytes)],
        )
        return got

    def destroy_region(self, cookie: int) -> None:
        self._regions.pop(cookie, None)

    def _region(self, cookie: int) -> KnemRegion:
        try:
            return self._regions[cookie]
        except KeyError:
            raise CMAError(EINVAL, f"unknown cookie {cookie:#x}") from None
