"""Two-copy shared-memory transport and control-message collectives.

Shared memory is the *other* intra-node channel MPI libraries use: the
sender copies into a shared segment and the receiver copies out (two copies
total, but no syscall and no mm-lock contention).  In this reproduction it
plays three roles:

* **control plane** for the native CMA collectives — address exchange,
  ready/fin notifications (the paper: "shared memory or loopback based
  transfers are used" for the pointer-sized messages);
* **small-message collectives** (``sm_bcast``/``sm_gather``/... — the
  :math:`T^{sm}_{coll}` terms in the cost model);
* **SHMEM baselines** — the two-copy data path the paper compares against
  (Fig. 9, Fig. 18's small-message regime).
"""

from repro.shm.transport import ShmTransport, CHUNK_TAGS
from repro.shm.collectives import (
    sm_bcast,
    sm_gather,
    sm_allgather,
    sm_barrier,
)

__all__ = [
    "ShmTransport",
    "CHUNK_TAGS",
    "sm_bcast",
    "sm_gather",
    "sm_allgather",
    "sm_barrier",
]
