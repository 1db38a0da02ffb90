"""Algorithm registry: collective name -> algorithm name -> factory.

A factory takes the algorithm's tuning parameters (``k`` for throttled /
k-nomial designs, ``j`` for ring strides) and returns the per-rank
generator the runner spawns.  ``validity`` predicates mark constraints the
tuner must respect (e.g. ring stride coprimality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core import allgather as _allgather
from repro.core import alltoall as _alltoall
from repro.core import bcast as _bcast
from repro.core import gather as _gather
from repro.core import p2p_colls as _p2p
from repro.core import reduce as _reduce
from repro.core import scatter as _scatter
from repro.core import xpmemcoll as _xp

__all__ = ["AlgorithmInfo", "ALGORITHMS", "get_algorithm", "algorithms_for"]


@dataclass(frozen=True)
class AlgorithmInfo:
    """One registered algorithm."""

    collective: str
    name: str
    factory: Callable[..., Callable]  # (**params) -> fn(ctx) generator
    tunable: tuple[str, ...] = ()
    #: (size, params) -> None or an error string
    validity: Optional[Callable[[int, dict], Optional[str]]] = None
    description: str = ""
    #: transport lane the data path rides: "cma" (process_vm_rw), "shm"
    #: (two-copy slab), "p2p" (rendezvous pt2pt), "xpmem" (mapped
    #: windows).  Part of sweep grouping and cache keys — two algorithms
    #: that differ only in lane must never share a cache entry.
    lane: str = "cma"

    def make(self, **params) -> Callable:
        return self.factory(**params)

    def check(self, size: int, params: dict) -> Optional[str]:
        if self.validity is None:
            return None
        return self.validity(size, params)


def _needs_k(lo: int):
    def check(size: int, params: dict) -> Optional[str]:
        k = params.get("k")
        if k is None:
            return "parameter k required"
        if not (lo <= k <= max(size - 1, lo)):
            return f"k={k} outside [{lo}, {size - 1}]"
        return None

    return check


def _knomial_k(size: int, params: dict) -> Optional[str]:
    # radix may exceed p (the tree degenerates to a flat fan-out), but must
    # be at least binary
    k = params.get("k")
    if k is None:
        return "parameter k required"
    if k < 2:
        return f"k-nomial radix k={k} must be >= 2"
    return None


def _ring_j(size: int, params: dict) -> Optional[str]:
    j = params.get("j", 1)
    if math.gcd(j, size) != 1:
        return f"gcd(j={j}, p={size}) != 1"
    return None


def _wrap(fn, **bound):
    def factory(**params):
        merged = {**bound, **params}

        def run(ctx):
            return fn(ctx, **merged)

        return run

    return factory


def _plain(fn):
    def factory(**params):
        if params:
            raise TypeError(f"{fn.__name__} takes no tuning parameters: {params}")
        return fn

    return factory


ALGORITHMS: dict[str, dict[str, AlgorithmInfo]] = {
    "scatter": {
        "parallel_read": AlgorithmInfo(
            "scatter",
            "parallel_read",
            _plain(_scatter.parallel_read),
            description="all non-roots read at once (k = p-1 special case)",
        ),
        "sequential_write": AlgorithmInfo(
            "scatter",
            "sequential_write",
            _plain(_scatter.sequential_write),
            description="root writes blocks one by one (k = 1 special case)",
        ),
        "throttled_read": AlgorithmInfo(
            "scatter",
            "throttled_read",
            _wrap(_scatter.throttled_read),
            tunable=("k",),
            validity=_needs_k(1),
            description="at most k concurrent readers (the proposed design)",
        ),
        "binomial_p2p": AlgorithmInfo(
            "scatter",
            "binomial_p2p",
            _wrap(_p2p.scatter_binomial_p2p, threshold=0),
            tunable=("threshold",),
            description="baseline: MPICH-style binomial tree over pt2pt",
            lane="p2p",
        ),
        "fanout_rndv": AlgorithmInfo(
            "scatter",
            "fanout_rndv",
            _plain(_p2p.scatter_fanout_rndv),
            description="baseline: contention-unaware rendezvous fan-out",
            lane="p2p",
        ),
        "xpmem_read": AlgorithmInfo(
            "scatter",
            "xpmem_read",
            _plain(_xp.scatter_xpmem_read),
            description="parallel read through the root's mapped window",
            lane="xpmem",
        ),
    },
    "gather": {
        "parallel_write": AlgorithmInfo(
            "gather", "parallel_write", _plain(_gather.parallel_write)
        ),
        "sequential_read": AlgorithmInfo(
            "gather", "sequential_read", _plain(_gather.sequential_read)
        ),
        "throttled_write": AlgorithmInfo(
            "gather",
            "throttled_write",
            _wrap(_gather.throttled_write),
            tunable=("k",),
            validity=_needs_k(1),
        ),
        "binomial_p2p": AlgorithmInfo(
            "gather",
            "binomial_p2p",
            _wrap(_p2p.gather_binomial_p2p, threshold=0),
            tunable=("threshold",),
            description="baseline: MPICH-style binomial tree over pt2pt",
            lane="p2p",
        ),
        "fanin_rndv": AlgorithmInfo(
            "gather",
            "fanin_rndv",
            _plain(_p2p.gather_fanin_rndv),
            description="baseline: root drains rendezvous receives serially",
            lane="p2p",
        ),
        "xpmem_write": AlgorithmInfo(
            "gather",
            "xpmem_write",
            _plain(_xp.gather_xpmem_write),
            description="parallel write through the root's mapped window",
            lane="xpmem",
        ),
    },
    "alltoall": {
        "pairwise": AlgorithmInfo(
            "alltoall",
            "pairwise",
            _plain(_alltoall.pairwise),
            description="native CMA collective (no RTS/CTS)",
        ),
        "pairwise_pt2pt": AlgorithmInfo(
            "alltoall",
            "pairwise_pt2pt",
            _plain(_alltoall.pairwise_pt2pt),
            description="same schedule over rendezvous pt2pt",
            lane="p2p",
        ),
        "pairwise_shm": AlgorithmInfo(
            "alltoall",
            "pairwise_shm",
            _plain(_alltoall.pairwise_shm),
            description="same schedule over two-copy shared memory",
            lane="shm",
        ),
        "bruck": AlgorithmInfo("alltoall", "bruck", _plain(_alltoall.bruck)),
        "xpmem_pairwise": AlgorithmInfo(
            "alltoall",
            "xpmem_pairwise",
            _plain(_xp.alltoall_xpmem_pairwise),
            description="same schedule through mapped windows",
            lane="xpmem",
        ),
    },
    "allgather": {
        "ring_source_read": AlgorithmInfo(
            "allgather", "ring_source_read", _plain(_allgather.ring_source_read)
        ),
        "ring_source_write": AlgorithmInfo(
            "allgather", "ring_source_write", _plain(_allgather.ring_source_write)
        ),
        "ring_neighbor": AlgorithmInfo(
            "allgather",
            "ring_neighbor",
            _wrap(_allgather.ring_neighbor, j=1),
            tunable=("j",),
            validity=_ring_j,
            description="stride-j ring; j picks intra- vs inter-socket hops",
        ),
        "recursive_doubling": AlgorithmInfo(
            "allgather", "recursive_doubling", _plain(_allgather.recursive_doubling)
        ),
        "bruck": AlgorithmInfo("allgather", "bruck", _plain(_allgather.bruck)),
        "ring_p2p": AlgorithmInfo(
            "allgather",
            "ring_p2p",
            _wrap(_p2p.allgather_ring_p2p, threshold=0),
            tunable=("threshold",),
            description="baseline: classic ring over pt2pt sendrecv",
            lane="p2p",
        ),
        "xpmem_ring": AlgorithmInfo(
            "allgather",
            "xpmem_ring",
            _plain(_xp.allgather_xpmem_ring),
            description="ring-source-read through mapped windows",
            lane="xpmem",
        ),
    },
    "bcast": {
        "direct_read": AlgorithmInfo(
            "bcast", "direct_read", _plain(_bcast.direct_read)
        ),
        "direct_write": AlgorithmInfo(
            "bcast", "direct_write", _plain(_bcast.direct_write)
        ),
        "knomial": AlgorithmInfo(
            "bcast",
            "knomial",
            _wrap(_bcast.knomial, k=4),
            tunable=("k",),
            validity=_knomial_k,
        ),
        "scatter_allgather": AlgorithmInfo(
            "bcast", "scatter_allgather", _plain(_bcast.scatter_allgather)
        ),
        "binomial_p2p": AlgorithmInfo(
            "bcast",
            "binomial_p2p",
            _wrap(_p2p.bcast_binomial_p2p, threshold=0),
            tunable=("threshold",),
            description="baseline: binomial tree over pt2pt",
            lane="p2p",
        ),
        "shm_slab": AlgorithmInfo(
            "bcast",
            "shm_slab",
            _plain(_bcast.shm_slab),
            description="two-copy shared-memory slab (small-message winner)",
            lane="shm",
        ),
        "xpmem_read": AlgorithmInfo(
            "bcast",
            "xpmem_read",
            _plain(_xp.bcast_xpmem_read),
            description="direct read through the root's mapped window",
            lane="xpmem",
        ),
        "chain": AlgorithmInfo(
            "bcast",
            "chain",
            _wrap(_bcast.chain, segsize=128 * 1024),
            tunable=("segsize",),
            description="segmented pipeline: contention-free, syscall-lean",
        ),
    },
    # extension collectives: the vector variants (variable block sizes) run
    # the plain designs over the spec's counts
    "scatterv": {
        "parallel_read": AlgorithmInfo(
            "scatterv", "parallel_read", _plain(_scatter.parallel_read)
        ),
        "sequential_write": AlgorithmInfo(
            "scatterv", "sequential_write", _plain(_scatter.sequential_write)
        ),
        "throttled_read": AlgorithmInfo(
            "scatterv",
            "throttled_read",
            _wrap(_scatter.throttled_read),
            tunable=("k",),
            validity=_needs_k(1),
        ),
    },
    "alltoallv": {
        "pairwise": AlgorithmInfo(
            "alltoallv",
            "pairwise",
            _plain(_alltoall.pairwise),
            description="contention-free pairwise exchange, p x p counts",
        ),
    },
    "gatherv": {
        "parallel_write": AlgorithmInfo(
            "gatherv", "parallel_write", _plain(_gather.parallel_write)
        ),
        "sequential_read": AlgorithmInfo(
            "gatherv", "sequential_read", _plain(_gather.sequential_read)
        ),
        "throttled_write": AlgorithmInfo(
            "gatherv",
            "throttled_write",
            _wrap(_gather.throttled_write),
            tunable=("k",),
            validity=_needs_k(1),
        ),
    },
    # extension collectives (the paper's future work): the reduction family
    "reduce": {
        "gather_throttled": AlgorithmInfo(
            "reduce",
            "gather_throttled",
            _wrap(_reduce.reduce_gather_throttled, k=8),
            tunable=("k",),
            validity=_needs_k(1),
            description="throttled fan-in staging + root-local combines",
        ),
        "binomial": AlgorithmInfo(
            "reduce",
            "binomial",
            _plain(_reduce.reduce_binomial),
            description="binomial tree: parallel combines, one reader/source",
        ),
        "ring_rs": AlgorithmInfo(
            "reduce",
            "ring_rs",
            _plain(_reduce.reduce_ring_rs),
            description="ring reduce-scatter + root chunk collection",
        ),
    },
    "allreduce": {
        "reduce_bcast": AlgorithmInfo(
            "allreduce",
            "reduce_bcast",
            _wrap(_reduce.allreduce_reduce_bcast, k=4),
            tunable=("k",),
            validity=_knomial_k,
            description="binomial reduce + k-nomial broadcast",
        ),
        "ring": AlgorithmInfo(
            "allreduce",
            "ring",
            _plain(_reduce.allreduce_ring),
            description="ring reduce-scatter + ring allgather (bandwidth-optimal)",
        ),
        "recursive_doubling": AlgorithmInfo(
            "allreduce",
            "recursive_doubling",
            _plain(_reduce.allreduce_recursive_doubling),
            description="lg p exchange-and-combine rounds (latency-optimal)",
        ),
    },
}


def get_algorithm(collective: str, name: str) -> AlgorithmInfo:
    try:
        return ALGORITHMS[collective][name]
    except KeyError:
        known = sorted(ALGORITHMS.get(collective, {}))
        raise KeyError(
            f"unknown algorithm {name!r} for {collective!r}; known: {known}"
        ) from None


def algorithms_for(collective: str) -> list[str]:
    if collective not in ALGORITHMS:
        raise KeyError(
            f"unknown collective {collective!r}; known: {sorted(ALGORITHMS)}"
        )
    return sorted(ALGORITHMS[collective])
