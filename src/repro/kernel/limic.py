"""LiMIC2-style kernel module: memory-mapped windows, same lock bottleneck.

LiMIC exchanges a descriptor ("tx") for the source buffer which the peer
uses to trigger a kernel copy.  Like KNEM it needs a setup step per buffer
and, unlike CMA, performs no per-call permission check (its device node
gates access instead).  The data path again pins the owner's pages under
the owner's mm lock, so contention behaviour matches CMA — which is why the
paper's model covers all three mechanisms.

Transfers delegate to :meth:`CMAKernel.process_vm_readv`/``writev``, so
untraced LiMIC copies ride the same fused
:class:`~repro.sim.engine.PinConvoy` pin loop as plain CMA — contended
pins replay identically no matter which mechanism initiated them.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Generator

from repro.kernel.errors import CMAError, EINVAL
from repro.sim.engine import Delay

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.cma import CMAKernel
    from repro.sim.engine import SimProcess

__all__ = ["LimicTx", "LimicKernel"]


class LimicTx:
    """A LiMIC transfer descriptor for one buffer."""

    __slots__ = ("txid", "pid", "addr", "nbytes")

    def __init__(self, txid: int, pid: int, addr: int, nbytes: int):
        self.txid = txid
        self.pid = pid
        self.addr = addr
        self.nbytes = nbytes


class LimicKernel:
    """Descriptor-based copy engine layered on the shared CMA machinery."""

    def __init__(self, cma: "CMAKernel"):
        self.cma = cma
        self._txids = itertools.count(0x11_0000)
        self._txs: dict[int, LimicTx] = {}

    def tx_init(self, owner: "SimProcess", addr: int, nbytes: int) -> Generator:
        """Create a descriptor for an owner's buffer (costs t_limic_setup)."""
        self.cma.manager.get(owner.pid).resolve(addr, nbytes)
        fs = self.cma.faults
        if fs is not None:
            # op "tx": descriptor creation can fail like the syscalls
            # (the data path inherits the CMA sites via delegation).
            fs.raise_if("tx", owner.pid, owner.pid)
        yield Delay(self.cma.params.t_limic_setup)
        txid = next(self._txids)
        self._txs[txid] = LimicTx(txid, owner.pid, addr, nbytes)
        return txid

    def _rw(
        self,
        caller: "SimProcess",
        txid: int,
        local: tuple[int, int],
        offset: int,
        write: bool,
    ) -> Generator:
        tx = self._tx(txid)
        nbytes = local[1]
        if offset + nbytes > tx.nbytes:
            raise CMAError(EINVAL, "transfer exceeds descriptor window")
        # LiMIC skips the per-call access check: model by refunding it.
        p = self.cma.params
        remote = [(tx.addr + offset, nbytes)]
        fn = self.cma.process_vm_writev if write else self.cma.process_vm_readv
        got = yield from fn(caller, tx.pid, [local], remote)
        # negative delay is illegal; the refund is modelled as zero-cost
        # bookkeeping because alpha_check is already tiny next to alpha.
        del p
        return got

    def tx_copy_from(
        self, caller: "SimProcess", txid: int, local: tuple[int, int], offset: int = 0
    ) -> Generator:
        """Read through a descriptor."""
        return self._rw(caller, txid, local, offset, write=False)

    def tx_copy_to(
        self, caller: "SimProcess", txid: int, local: tuple[int, int], offset: int = 0
    ) -> Generator:
        """Write through a descriptor."""
        return self._rw(caller, txid, local, offset, write=True)

    def tx_destroy(self, txid: int) -> None:
        self._txs.pop(txid, None)

    def _tx(self, txid: int) -> LimicTx:
        try:
            return self._txs[txid]
        except KeyError:
            raise CMAError(EINVAL, f"unknown txid {txid:#x}") from None
