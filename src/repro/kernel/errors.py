"""Kernel error model mirroring the errno values ``process_vm_readv`` uses."""

from __future__ import annotations

__all__ = [
    "KernelError", "CMAError",
    "EPERM", "ENOENT", "ESRCH", "EINVAL", "EFAULT",
]

EPERM = 1
ENOENT = 2
ESRCH = 3
EFAULT = 14
EINVAL = 22

_ERRNO_NAMES = {
    EPERM: "EPERM",
    ENOENT: "ENOENT",
    ESRCH: "ESRCH",
    EFAULT: "EFAULT",
    EINVAL: "EINVAL",
}


class KernelError(RuntimeError):
    """Base class for simulated-kernel failures."""


class CMAError(KernelError):
    """A failed ``process_vm_readv``/``writev`` call, carrying an errno."""

    def __init__(self, errno: int, message: str = ""):
        self.errno = errno
        name = _ERRNO_NAMES.get(errno, str(errno))
        super().__init__(f"[{name}] {message}" if message else f"[{name}]")
