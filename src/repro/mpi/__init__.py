"""Mini-MPI over the simulated node.

Provides what the collective algorithms need and nothing more:

* :class:`~repro.mpi.communicator.Node` — one simulated machine: engine,
  address spaces, the CMA and mapped-window kernels, and the per-phase
  simulated time they keep (:meth:`~repro.mpi.communicator.Node.phase_times`).
* :class:`~repro.mpi.communicator.Comm` — ranks pinned to cores, the
  rank-to-PID table exchanged "at initialization" (as the paper's design
  does), buffer registration, and helpers to spawn per-rank work.
* :mod:`repro.mpi.pt2pt` — eager (shm) and rendezvous (RTS/CTS + CMA)
  point-to-point transfers; the baseline pt2pt-based collectives pay the
  control-message overheads the native designs eliminate.
* :mod:`repro.mpi.cluster` — several nodes on one clock plus an alpha-beta
  fabric (NIC serialization, matching-queue costs) for the multi-node
  experiments.
"""

from repro.mpi.communicator import Node, Comm, RankCtx
from repro.mpi.cluster import Cluster, net_recv, net_send
from repro.mpi.pt2pt import p2p_send, p2p_recv, RNDV_THRESHOLD

__all__ = [
    "Node",
    "Comm",
    "RankCtx",
    "Cluster",
    "net_send",
    "net_recv",
    "p2p_send",
    "p2p_recv",
    "RNDV_THRESHOLD",
]
