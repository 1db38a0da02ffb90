"""Execute one collective on a simulated node, verify it, time it.

This is the experiment workhorse: every figure/table bench ultimately calls
:func:`run_collective` with a :class:`CollectiveSpec` and reads latencies
off the :class:`CollectiveResult`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.core import patterns
from repro.core.common import Blocks
from repro.core.registry import get_algorithm
from repro.machine.arch import Architecture
from repro.mpi.communicator import Comm, Node

__all__ = [
    "CollectiveSpec",
    "CollectiveResult",
    "run_collective",
    "run_collective_pooled",
    "NodePool",
    "default_pool",
]


@dataclass
class CollectiveSpec:
    """One collective invocation to simulate.

    ``eta`` is the per-block message size in bytes — the paper's x-axis
    ("Message Size"): per receiver for Scatter/Gather, the full payload for
    Bcast, per contributed block for Allgather/Alltoall.
    """

    collective: str
    algorithm: str
    arch: Architecture
    procs: Optional[int] = None  # defaults to the arch's evaluation count
    eta: int = 4096
    root: int = 0
    in_place: bool = False
    params: dict = field(default_factory=dict)
    verify: bool = True  # move + check buffer contents (slower, thorough)
    #: per-rank block sizes for the V-variants: a vector for scatterv/
    #: gatherv, a p x p matrix for alltoallv; defaults to eta everywhere
    counts: Optional[list[int]] = None
    #: transport lane, resolved from the registry (never passed in).  An
    #: ``init=False`` field so :func:`repro.exec.keying.canonical` picks
    #: it up: cache keys and sweep group keys must separate lanes even
    #: when (collective, algorithm) strings alone would collide across
    #: future renames — and it gives group-key code one obvious handle.
    lane: str = field(init=False, default="cma")

    def __post_init__(self) -> None:
        try:
            self.lane = get_algorithm(self.collective, self.algorithm).lane
        except KeyError:
            # unknown algorithm: leave the default; resolution fails later
            # (at run time) with the registry's richer error message
            self.lane = "cma"
        if self.procs is None:
            self.procs = self.arch.default_procs
        if self.procs < 2:
            raise ValueError("collectives need at least 2 processes")
        if self.eta < 1:
            raise ValueError("eta must be >= 1 byte")
        if not (0 <= self.root < self.procs):
            raise ValueError(f"root {self.root} out of range for p={self.procs}")
        if self.in_place and self.collective == "allreduce":
            # patterns give allreduce no in-place form: every rank keeps
            # its operand apart from the result
            raise ValueError("allreduce has no in-place form")
        if self.collective in ("scatterv", "gatherv"):
            if self.counts is None:
                self.counts = [self.eta] * self.procs
            if len(self.counts) != self.procs:
                raise ValueError(
                    f"counts has {len(self.counts)} entries for p={self.procs}"
                )
            if any(c < 0 for c in self.counts):
                raise ValueError("counts must be non-negative")
        elif self.collective == "alltoallv":
            if self.counts is None:
                self.counts = [[self.eta] * self.procs] * self.procs
            if len(self.counts) != self.procs or any(
                len(row) != self.procs for row in self.counts
            ):
                raise ValueError("alltoallv needs a p x p counts matrix")
            if any(c < 0 for row in self.counts for c in row):
                raise ValueError("counts must be non-negative")
        elif self.counts is not None:
            raise ValueError(f"{self.collective} does not take counts")


@dataclass
class CollectiveResult:
    """Outcome of one simulated collective."""

    spec: CollectiveSpec
    latency_us: float  # completion time of the slowest rank
    per_rank_us: list[float]
    ctrl_messages: int  # control-plane traffic (RTS/CTS, tokens, ...)
    cma_reads: int
    cma_writes: int
    sim_events: int
    #: simulated µs per kernel phase, summed over ranks
    #: (:meth:`repro.mpi.communicator.Node.phase_times`)
    trace_by_phase: dict[str, float] = field(default_factory=dict)
    #: always 0: the runner sets none of these three.  Kept only because
    #: e2ebench's digest reads them and its refs hash them as 0.
    fallbacks: int = 0
    retries: int = 0
    faults_injected: int = 0
    #: mapped-window lane counters — all zero for non-xpmem algorithms
    xpmem_reads: int = 0
    xpmem_writes: int = 0
    xpmem_attaches: int = 0
    xpmem_page_faults: int = 0

    @property
    def mean_us(self) -> float:
        if not self.per_rank_us:
            raise ValueError(
                "mean_us is undefined: this CollectiveResult has no per-rank "
                "timings (per_rank_us is empty)"
            )
        return sum(self.per_rank_us) / len(self.per_rank_us)


def _validated_algorithm(spec: CollectiveSpec):
    """Resolve + validate the algorithm factory for ``spec``."""
    info = get_algorithm(spec.collective, spec.algorithm)
    err = info.check(spec.procs, spec.params)
    if err:
        raise ValueError(
            f"{spec.collective}/{spec.algorithm} invalid for p={spec.procs}: {err}"
        )
    return info.make(**spec.params)


def _execute(spec: CollectiveSpec, fn, node: Node, comm: Comm) -> CollectiveResult:
    """Run ``spec`` on an already-built (fresh or freshly-reset) node."""
    sendbufs, recvbufs = patterns.setup_buffers(comm, spec)

    procs = []
    # one layout per point: every rank reads the same prefix sums
    blocks = Blocks.of(spec)
    for rank in range(spec.procs):
        procs.append(
            comm.spawn_rank(
                rank,
                fn,
                root=spec.root,
                eta=spec.eta,
                sendbuf=sendbufs[rank],
                recvbuf=recvbufs[rank],
                in_place=spec.in_place,
                blocks=blocks,
            )
        )
    node.sim.run_all(procs)

    if spec.verify:
        patterns.verify_buffers(comm, spec, sendbufs, recvbufs)

    per_rank = [p.finish_time for p in procs]
    return CollectiveResult(
        spec=spec,
        latency_us=max(per_rank),
        per_rank_us=per_rank,
        ctrl_messages=comm.shm.ctrl_messages,
        cma_reads=node.cma.reads,
        cma_writes=node.cma.writes,
        sim_events=node.sim.events_processed,
        trace_by_phase=node.phase_times(),
        xpmem_reads=node.xpmem.reads,
        xpmem_writes=node.xpmem.writes,
        xpmem_attaches=node.xpmem.attaches,
        xpmem_page_faults=node.xpmem.page_faults,
    )


def run_collective(spec: CollectiveSpec) -> CollectiveResult:
    """Build a fresh node, run ``spec`` on every rank, verify, and time it.

    Raises :class:`~repro.core.patterns.VerificationError` if the bytes any
    rank ends up with violate MPI semantics (only when ``spec.verify``).
    """
    fn = _validated_algorithm(spec)
    node = Node(spec.arch, verify=spec.verify)
    comm = Comm(node, spec.procs)
    return _execute(spec, fn, node, comm)


class NodePool:
    """Warm (Node, Comm) pairs reused across consecutive sweep points.

    Keyed by ``(arch.name, procs, verify)`` with an identity-or-
    equality check on the stored :class:`Architecture` (presets return a
    fresh but value-equal instance per :func:`~repro.machine.get_arch`
    call; a *different* arch that happens to share a name rebuilds).

    The reset contract (see DESIGN.md §5) guarantees that a leased node is
    indistinguishable from a fresh one for simulation purposes — the
    engine's clock/sequence stream, every lock, mailbox and phase counter,
    and the address spaces (addresses restart at ``va_base``, no bytes kept)
    all restart exactly as constructed — so pooled and fresh
    execution produce bit-identical results
    (``tests/test_node_pool.py``).  A run that raises leaves arbitrary
    engine state behind, so the node is discarded, never re-pooled.
    """

    def __init__(self, max_entries: int = 4):
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, tuple[Architecture, Node, Comm]] = (
            OrderedDict()
        )
        self.leases = 0
        self.reuses = 0

    def node_for(
        self, arch: Architecture, procs: int, verify: bool
    ) -> tuple[Node, Comm]:
        """Lease a warm node+comm for ``(arch, procs)``, or build one.

        The entry is *removed* from the pool while leased, so a pool is
        safe to share across nested ``run_collective_pooled`` calls.
        """
        key = (arch.name, procs, verify)
        self.leases += 1
        entry = self._entries.pop(key, None)
        if entry is not None:
            pooled_arch, node, comm = entry
            if pooled_arch is arch or pooled_arch == arch:
                self.reuses += 1
                return node, comm
        node = Node(arch, verify=verify)
        comm = Comm(node, procs)
        return node, comm

    def release(self, arch: Architecture, node: Node, comm: Comm) -> None:
        """Reset a leased node and return it to the pool (LRU-evicting)."""
        node.reset()
        comm.reset()
        key = (arch.name, comm.size, node.verify)
        self._entries.pop(key, None)
        self._entries[key] = (arch, node, comm)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


#: module-level pool used when callers don't manage their own
_DEFAULT_POOL = NodePool()


def default_pool() -> NodePool:
    """This process's shared warm-node pool.

    Each sweep worker process has exactly one — the pool
    :func:`run_collective_pooled` falls back to — so a group of same-node
    points run back to back on one worker reuses one leased node.
    """
    return _DEFAULT_POOL


def run_collective_pooled(
    spec: CollectiveSpec, pool: Optional[NodePool] = None
) -> CollectiveResult:
    """:func:`run_collective` on a warm node from ``pool``.

    Bit-identical to :func:`run_collective` (enforced by the differential
    battery in ``tests/test_node_pool.py``) but skips Node/Comm
    construction and buffer allocation when the previous point used the
    same (arch, procs, verify).  On any failure the node is
    discarded instead of re-pooled, so a raising point cannot poison the
    next one.
    """
    if pool is None:
        pool = _DEFAULT_POOL
    fn = _validated_algorithm(spec)
    node, comm = pool.node_for(spec.arch, spec.procs, spec.verify)
    result = _execute(spec, fn, node, comm)
    pool.release(spec.arch, node, comm)
    return result
