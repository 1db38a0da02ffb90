"""Simulated kernel: paged address spaces and kernel-assisted copy engines.

This package stands in for the Linux pieces the paper exercises:

* :mod:`repro.kernel.address_space` — per-process paged memory whose
  buffers hold 251-periodic provenance runs: transfers move run lists,
  not bytes, and collectives stay byte-exactly verifiable.
* :mod:`repro.kernel.pagelock` — the per-process mm (page-table) lock that
  ``get_user_pages`` takes once per page batch.  Its hold time inflates with
  contention (cache-line bouncing), and FIFO queueing on it is what makes
  One-to-all patterns degrade — the paper's central observation.
* :mod:`repro.kernel.cma` — ``process_vm_readv``/``writev`` semantics
  (iovec handling, permission check, partial-step triggering per Table III).
* :mod:`repro.kernel.knem` / :mod:`repro.kernel.limic` — cookie-based
  kernel-module variants, for the related-work comparison: same lock
  bottleneck, different setup overheads.
* :mod:`repro.kernel.xpmem` — mapped windows: one-time attach cost,
  per-page first-touch fault-in under the owner's mm lock, then pin-free
  steady-state copies that never contend.
"""

from repro.kernel.errors import (
    KernelError, CMAError, EFAULT, EINVAL, ENOENT, EPERM, ESRCH,
)
from repro.kernel.address_space import AddressSpace, AddressSpaceManager, Buffer
from repro.kernel.pagelock import MMLock
from repro.kernel.cma import CMAKernel, iovec_total
from repro.kernel.xpmem import XpmemKernel, XpmemSegment

__all__ = [
    "KernelError",
    "CMAError",
    "EFAULT",
    "EINVAL",
    "ENOENT",
    "EPERM",
    "ESRCH",
    "AddressSpace",
    "AddressSpaceManager",
    "Buffer",
    "MMLock",
    "CMAKernel",
    "iovec_total",
    "XpmemKernel",
    "XpmemSegment",
]
