"""Closed-form cost model (paper Section II, IV, V formulas).

The model predicts the latency of every algorithm from the Table-IV
parameters: ``T = alpha + n*beta + l*gamma(c)*ceil(n/s)`` per kernel-assisted
transfer, plus the small shared-memory collective terms
:math:`T^{sm}_{coll}`.  It exists for three reasons:

1. **Model validation** (Fig. 12): predicted vs. simulated latency.
2. **Tuning**: the "Proposed" design picks the algorithm/throttle factor
   with the lowest predicted cost for (arch, collective, p, eta).
3. **Analysis**: quick sweeps without paying discrete-event simulation.

The formulas intentionally mirror the paper, including its modelling
simplifications (read and write bandwidths identical, copy time linear in
message size); small protocol costs the paper drops (completion tokens)
are likewise dropped here and show up only as modest validation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.machine.arch import Architecture
from repro.machine.params import ModelParams

__all__ = ["AnalyticModel", "predict"]


@dataclass
class AnalyticModel:
    """Cost predictor bound to one architecture."""

    arch: Architecture

    # -- small shared-memory terms ------------------------------------------------

    @property
    def p_(self) -> ModelParams:
        return self.arch.params

    def _hop(self) -> float:
        # one control message on the critical path: post overhead + latency
        return 1.5 * self.p_.t_ctrl

    def t_sm_bcast(self, p: int) -> float:
        return math.ceil(math.log2(max(p, 2))) * self._hop()

    def t_sm_gather(self, p: int) -> float:
        return math.ceil(math.log2(max(p, 2))) * self._hop()

    def t_sm_allgather(self, p: int) -> float:
        return self.t_sm_gather(p) + self.t_sm_bcast(p)

    def t_barrier(self, p: int) -> float:
        return math.ceil(math.log2(max(p, 2))) * self._hop()

    # -- transfer primitives ----------------------------------------------------------

    def cma(self, eta: int, c: float = 1.0, beta_factor: float = 1.0) -> float:
        """alpha + n*beta + l*gamma(c)*ceil(n/s)."""
        p = self.p_
        return (
            p.alpha
            + eta * p.beta * beta_factor
            + p.l_page * p.gamma(c) * p.pages(eta)
        )

    def memcpy(self, eta: int) -> float:
        return eta * self.p_.memcpy_beta

    def xpmem_fault_in(self, pages: int, c: float, p: int) -> float:
        """First-touch fault-in of ``pages`` window pages, ``c`` attachers.

        Unlike CMA pinning this acquires the owner's mm lock once per
        *page* (no batching), so the cache-line bounce is paid every page
        and the fitted gamma(c) — which amortises the bounce over
        ``pin_batch`` pages — does not apply.  Mechanistic form instead:
        the ``c`` attachers FIFO round-robin through c*pages one-page
        holds, each inflated by the bounce of the *live* waiter count —
        a full queue (c-1 waiters) for the first pages-1 rounds, then a
        decaying tail (c-1, c-2, ..., 0) as attachers finish their last
        page and leave.
        """
        pp = self.p_
        if c <= 1:
            return pages * pp.l_page
        topo = self.arch.topology
        if topo.sockets == 1:
            kappa = pp.kappa_intra
        else:
            # fraction of the non-root attachers sharing the root's socket
            same = sum(
                1 for r in range(1, p) if topo.socket_of(r) == topo.socket_of(0)
            )
            frac = same / max(p - 1, 1)
            kappa = frac * pp.kappa_intra + (1.0 - frac) * pp.kappa_inter
        full = (pages - 1) * c * (1.0 + kappa * (c - 1.0))
        tail = c + kappa * c * (c - 1.0) / 2.0
        return pp.l_page * (full + tail)

    def xpmem_cold(
        self,
        window_pages: int,
        eta: int,
        c: float = 1.0,
        beta_factor: float = 1.0,
        p: int = 1,
    ) -> float:
        """One cold mapped-window transfer: attach + fault-in + copy.

        The attach map cost scales with the *window* (it builds page-table
        entries for the whole exported region), while fault-in — the only
        part that touches the owner's mm lock, hence the only contended
        part — scales with the pages actually copied.  The copy itself is
        pin-free: no alpha, no lock.
        """
        pp = self.p_
        return (
            pp.t_xpmem_attach
            + window_pages * pp.t_xpmem_page
            + self.xpmem_fault_in(pp.pages(eta), c, p)
            + self.xpmem_copy(eta, beta_factor)
        )

    def xpmem_copy(self, eta: int, beta_factor: float = 1.0) -> float:
        """One warm (steady-state) mapped-window copy: pin-free."""
        p = self.p_
        return p.t_xpmem_copy + eta * p.beta * beta_factor

    def shm_copy2(self, eta: int) -> float:
        """Two-copy shared-memory transfer of eta bytes (chunked)."""
        p = self.p_
        chunks = max(1, math.ceil(eta / p.shm_chunk))
        return 2 * (eta * p.shm_beta + chunks * p.shm_chunk_overhead)

    def rndv_overhead(self) -> float:
        """RTS + CTS + FIN on the critical path."""
        return 3 * self._hop()

    # -- socket-aware copy factors (the simulator's inter_socket_beta) ---------

    def span_factor(self, p: int, root: int = 0) -> float:
        """Copy slowdown when concurrent peers of ``root`` gate completion:
        once the job spans sockets, the slowest (cross-socket) transfer
        paces every wave."""
        topo = self.arch.topology
        rs = topo.socket_of(root)
        crosses = any(topo.socket_of(r) != rs for r in range(p))
        return self.p_.inter_socket_beta if crosses else 1.0

    def mix_factor(self, p: int) -> float:
        """Average copy slowdown when every rank talks to every other rank
        (ring/pairwise schedules): weighted by the cross-socket fraction."""
        topo = self.arch.topology
        if topo.sockets == 1:
            return 1.0
        same = sum(
            1 for r in range(1, p) if topo.socket_of(r) == topo.socket_of(0)
        )
        inter_frac = 1.0 - same / max(p - 1, 1)
        return 1.0 + inter_frac * (self.p_.inter_socket_beta - 1.0)

    # -- scatter (Section IV-A) ----------------------------------------------------

    def scatter_parallel_read(self, p: int, eta: int) -> float:
        return (
            self.t_sm_bcast(p)
            + self.cma(eta, c=p - 1, beta_factor=self.span_factor(p))
            + self.t_sm_gather(p)
        )

    def scatter_sequential_write(self, p: int, eta: int, in_place=False) -> float:
        return (
            (0.0 if in_place else self.memcpy(eta))
            + self.t_sm_gather(p)
            + (p - 1) * self.cma(eta, c=1, beta_factor=self.mix_factor(p))
            + self.t_sm_bcast(p)
        )

    def scatter_throttled(self, p: int, eta: int, k: int) -> float:
        waves = math.ceil((p - 1) / k)
        return self.t_sm_bcast(p) + waves * self.cma(
            eta, c=k, beta_factor=self.span_factor(p)
        )

    def scatter_xpmem(self, p: int, eta: int) -> float:
        """Parallel read through the root's window: every reader attaches
        the whole p-block window cold and faults its own block's pages in
        a p-1-deep convoy on the root's mm lock (Huang et al.'s regime:
        map cost up front, pin-free copy after)."""
        pp = self.p_
        return (
            self.t_sm_bcast(p)
            + pp.t_xpmem_make
            + self.xpmem_cold(
                pp.pages(p * eta), eta, c=p - 1,
                beta_factor=self.span_factor(p), p=p,
            )
            + self.t_sm_gather(p)
        )

    # -- gather (Section IV-B): mirror images --------------------------------------

    def gather_parallel_write(self, p: int, eta: int) -> float:
        return self.scatter_parallel_read(p, eta)

    def gather_sequential_read(self, p: int, eta: int, in_place=False) -> float:
        return self.scatter_sequential_write(p, eta, in_place)

    def gather_throttled(self, p: int, eta: int, k: int) -> float:
        return self.scatter_throttled(p, eta, k)

    def gather_xpmem(self, p: int, eta: int) -> float:
        return self.scatter_xpmem(p, eta)

    # -- alltoall (Section IV-C) -----------------------------------------------------

    def alltoall_pairwise(self, p: int, eta: int) -> float:
        return (
            self.t_sm_allgather(p)
            + self.memcpy(eta)
            + (p - 1) * self.cma(eta, c=1, beta_factor=self.mix_factor(p))
            + self.t_barrier(p)
        )

    def alltoall_pairwise_pt2pt(self, p: int, eta: int) -> float:
        return self.alltoall_pairwise(p, eta) + (p - 1) * self.rndv_overhead()

    def alltoall_pairwise_shm(self, p: int, eta: int) -> float:
        return (
            self.memcpy(eta)
            + (p - 1) * (self.shm_copy2(eta) + self._hop())
        )

    def alltoall_xpmem(self, p: int, eta: int) -> float:
        """Pairwise over windows: p-1 cold attaches of whole p-block
        windows (the dominant cost at scale), each followed by a
        single-block fault-in and pin-free copy, contention-free."""
        pp = self.p_
        f = self.mix_factor(p)
        return (
            self.t_sm_allgather(p)
            + pp.t_xpmem_make
            + self.memcpy(eta)
            + (p - 1) * self.xpmem_cold(
                pp.pages(p * eta), eta, c=1, beta_factor=f
            )
            + self.t_barrier(p)
        )

    def alltoall_bruck(self, p: int, eta: int) -> float:
        steps = math.ceil(math.log2(p)) if p > 1 else 0
        per_step = p // 2 * eta
        t = 2 * self.memcpy(p * eta)  # initial + final rotations
        for _ in range(steps):
            t += self.t_barrier(p) + self.cma(per_step, c=1)
            t += self.memcpy((p - p // 2) * eta)  # blocks kept local
        return t

    # -- allgather (Section V-A) -------------------------------------------------------

    def allgather_ring_source(self, p: int, eta: int, in_place=False) -> float:
        return (
            (0.0 if in_place else self.memcpy(eta))
            + self.t_sm_allgather(p)
            + (p - 1) * self.cma(eta, c=1, beta_factor=self.mix_factor(p))
            + self.t_barrier(p)
        )

    def allgather_ring_neighbor(self, p: int, eta: int, j: int = 1) -> float:
        """Stride-j ring: token per step plus the inter-socket beta penalty
        on the fraction of neighbour links that cross sockets."""
        topo = self.arch.topology
        pairs = [(r, (r - j) % p) for r in range(p)]
        inter = 1.0 - topo.intra_socket_fraction(pairs)
        factor = 1.0 + inter * (self.p_.inter_socket_beta - 1.0)
        return (
            self.memcpy(eta)
            + self.t_sm_allgather(p)
            + (p - 1) * (self.cma(eta, c=1, beta_factor=factor) + self._hop())
        )

    def allgather_xpmem_ring(self, p: int, eta: int) -> float:
        """Ring-source-read over windows: one-block windows, so the p-1
        cold attaches are cheap and every copy is pin-free — the lane's
        best case (no syscall alpha on any of the p-1 steps)."""
        pp = self.p_
        return (
            self.memcpy(eta)
            + pp.t_xpmem_make
            + self.t_sm_allgather(p)
            + (p - 1) * self.xpmem_cold(
                pp.pages(eta), eta, c=1, beta_factor=self.mix_factor(p)
            )
            + self.t_barrier(p)
        )

    def allgather_recursive_doubling(self, p: int, eta: int) -> float:
        m = 1 << (p.bit_length() - 1)
        if m > p:
            m >>= 1
        steps = m.bit_length() - 1
        pp = self.p_
        t = (
            self.memcpy(eta)
            + self.t_sm_allgather(p)
            + steps * pp.alpha
            + (m - 1) * (eta * pp.beta + pp.l_page * pp.pages(eta))
        )
        if m != p:
            # fold in one block, pull out the whole result
            t += self.cma(eta, c=1) + self.cma(p * eta, c=1) + 2 * self._hop()
        return t

    def allgather_bruck(self, p: int, eta: int) -> float:
        steps = math.ceil(math.log2(p)) if p > 1 else 0
        pp = self.p_
        return (
            self.memcpy(eta)
            + self.t_sm_allgather(p)
            + steps * (pp.alpha + 2 * self._hop())
            + (p - 1) * (eta * pp.beta + pp.l_page * pp.pages(eta))
            + self.memcpy(p * eta)  # final rotation
            + self.t_barrier(p)
        )

    # -- bcast (Section V-B) ---------------------------------------------------------------

    def bcast_direct_read(self, p: int, eta: int) -> float:
        return (
            self.t_sm_bcast(p)
            + self.cma(eta, c=p - 1, beta_factor=self.span_factor(p))
            + self.t_sm_gather(p)
        )

    def bcast_direct_write(self, p: int, eta: int) -> float:
        return (
            self.t_sm_gather(p)
            + (p - 1) * self.cma(eta, c=1, beta_factor=self.mix_factor(p))
            + self.t_sm_bcast(p)
        )

    def bcast_xpmem(self, p: int, eta: int) -> float:
        """Direct read through the root's window: the window is one
        payload, so map + fault-in both scale with pages(eta) and all
        p-1 readers fault every page themselves (fault tracking is per
        attacher), convoying on the root's mm lock."""
        pp = self.p_
        return (
            self.t_sm_bcast(p)
            + pp.t_xpmem_make
            + self.xpmem_cold(
                pp.pages(eta), eta, c=p - 1,
                beta_factor=self.span_factor(p), p=p,
            )
            + self.t_sm_gather(p)
        )

    def bcast_knomial(self, p: int, eta: int, k: int) -> float:
        levels = math.ceil(math.log(p, k)) if p > 1 else 0
        # <= k-1 concurrent readers per source; two tokens per level
        return self.t_sm_allgather(p) + levels * (
            self.cma(eta, c=min(k - 1, p - 1), beta_factor=self.mix_factor(p))
            + 2 * self._hop()
        )

    def bcast_scatter_allgather(self, p: int, eta: int) -> float:
        chunk = math.ceil(eta / p)
        f = self.mix_factor(p)
        scatter = (p - 1) * self.cma(chunk, c=1, beta_factor=f)
        allgather = (p - 1) * self.cma(chunk, c=1, beta_factor=f)
        return (
            self.t_sm_allgather(p) + scatter + allgather + 2 * self.t_barrier(p)
        )

    # -- reduction family (extension: paper's future work) ------------------------

    def combine(self, eta: int) -> float:
        return eta * self.p_.reduce_beta

    def reduce_gather_throttled(self, p: int, eta: int, k: int) -> float:
        waves = math.ceil((p - 1) / k)
        return (
            self.t_sm_bcast(p)
            + waves * self.cma(eta, c=k, beta_factor=self.span_factor(p))
            + (p - 1) * self.combine(eta)  # root combines serially
        )

    def reduce_binomial(self, p: int, eta: int) -> float:
        levels = math.ceil(math.log2(max(p, 2)))
        return self.t_sm_allgather(p) + levels * (
            self.cma(eta, c=1, beta_factor=self.mix_factor(p))
            + self.combine(eta)
            + 2 * self._hop()
        )

    def _ring_reduce_scatter(self, p: int, eta: int) -> float:
        chunk = math.ceil(eta / p)
        return (
            self.memcpy(eta)
            + self.t_sm_allgather(p)
            + (p - 1)
            * (self.cma(chunk, c=1, beta_factor=self.mix_factor(p))
               + self.combine(chunk) + self._hop())
        )

    def reduce_ring_rs(self, p: int, eta: int) -> float:
        chunk = math.ceil(eta / p)
        collect = (p - 1) * (self.cma(chunk, c=1) + 2 * self._hop())
        return self._ring_reduce_scatter(p, eta) + collect

    def allreduce_reduce_bcast(self, p: int, eta: int, k: int = 4) -> float:
        return self.reduce_binomial(p, eta) + self.bcast_knomial(p, eta, k)

    def allreduce_ring(self, p: int, eta: int) -> float:
        chunk = math.ceil(eta / p)
        allgather = (p - 1) * self.cma(chunk, c=1, beta_factor=self.mix_factor(p))
        return (
            self._ring_reduce_scatter(p, eta) + allgather + 2 * self.t_barrier(p)
        )

    def allreduce_recursive_doubling(self, p: int, eta: int) -> float:
        m = 1 << (p.bit_length() - 1)
        if m > p:
            m >>= 1
        steps = m.bit_length() - 1
        t = self.memcpy(eta) + self.t_sm_allgather(p) + steps * (
            self.cma(eta, c=1, beta_factor=self.mix_factor(p))
            + self.combine(eta)
            + self.memcpy(eta)  # double-buffer generation copy
            + 4 * self._hop()
        )
        if m != p:
            t += 2 * self.cma(eta, c=1) + self.combine(eta) + 4 * self._hop()
        return t

    # -- shm / pt2pt baseline designs (Section VII comparisons) ----------------------

    def bcast_chain(self, p: int, eta: int, segsize: int = 128 * 1024) -> float:
        """Segmented pipeline: fill time + (nseg-1) steady-state segments."""
        nseg = max(1, math.ceil(eta / segsize))
        seg = min(segsize, eta)
        per_seg = (
            self.cma(seg, c=1, beta_factor=self.mix_factor(p)) + self._hop()
        )
        return self.t_sm_allgather(p) + (nseg + p - 2) * per_seg

    def bcast_shm_slab(self, p: int, eta: int) -> float:
        """Slab broadcast: pipelined copy-in + concurrent copy-out, two
        copies per byte, cache knee past shm_cache_bytes."""
        pp = self.p_
        factor = pp.shm_large_factor if eta > pp.shm_cache_bytes else 1.0
        beta = pp.shm_beta * factor
        chunks = max(1, math.ceil(eta / pp.shm_chunk))
        # reader lags the root by one chunk; both stream at beta
        return (
            eta * beta
            + min(eta, pp.shm_chunk) * beta
            + 2 * chunks * pp.shm_chunk_overhead
            + self._hop()
        )

    def bcast_binomial_p2p(self, p: int, eta: int, shm: bool) -> float:
        steps = math.ceil(math.log2(max(p, 2)))
        per = self.shm_copy2(eta) if shm else self.cma(eta, c=1) + self.rndv_overhead()
        return steps * (per + self._hop())

    def scatter_binomial_p2p(self, p: int, eta: int, shm: bool) -> float:
        # root pushes (p-1) blocks total, halved per level, store-and-forward
        total_bytes = 0
        mask = 1 << (max(p - 1, 1).bit_length() - 1)
        t = self.memcpy(p * eta)  # staging reorder at the root
        while mask >= 1:
            sub = min(mask, p - mask) if mask < p else 0
            if sub > 0:
                n = sub * eta
                t += self.shm_copy2(n) if shm else self.cma(n, c=1) + self.rndv_overhead()
                total_bytes += n
            mask >>= 1
        return t

    def gather_binomial_p2p(self, p: int, eta: int, shm: bool) -> float:
        return self.scatter_binomial_p2p(p, eta, shm) + self.memcpy(p * eta)

    def scatter_fanout_rndv(self, p: int, eta: int) -> float:
        # root RTSes everyone; p-1 concurrent reads (contention-unaware)
        return (p - 1) * self._hop() + self.cma(eta, c=p - 1) + self._hop()

    def gather_fanin_rndv(self, p: int, eta: int) -> float:
        # root drains p-1 rendezvous receives back to back
        return (p - 1) * (2 * self._hop() + self.cma(eta, c=1)) + self.memcpy(eta)

    def allgather_ring_p2p(self, p: int, eta: int, shm: bool) -> float:
        per = self.shm_copy2(eta) if shm else self.cma(eta, c=1) + self.rndv_overhead()
        return self.memcpy(eta) + (p - 1) * per

    # -- dispatch ------------------------------------------------------------------

    def predict(
        self, collective: str, algorithm: str, p: int, eta: int, **params
    ) -> float:
        """Predict latency (us) by registry-style names."""
        try:
            return _PREDICT_DISPATCH[(collective, algorithm)](self, p, eta, params)
        except KeyError:
            # either an unknown (collective, algorithm) pair or a missing
            # required tuning parameter — both mean "no model here"
            raise KeyError(f"no model for {collective}/{algorithm}") from None


#: (collective, algorithm) -> bound cost form.  Built once at import: the
#: tuner's candidate pricing calls ``predict`` for every candidate, so the
#: dispatch must not be rebuilt (32 closures plus a dict) per call.
_PREDICT_DISPATCH: dict[tuple[str, str], Callable] = {
    ("scatter", "parallel_read"): lambda m, p, eta, prm: m.scatter_parallel_read(p, eta),
    ("scatter", "sequential_write"): lambda m, p, eta, prm: m.scatter_sequential_write(p, eta),
    ("scatter", "throttled_read"): lambda m, p, eta, prm: m.scatter_throttled(p, eta, prm["k"]),
    ("scatter", "xpmem_read"): lambda m, p, eta, prm: m.scatter_xpmem(p, eta),
    ("gather", "parallel_write"): lambda m, p, eta, prm: m.gather_parallel_write(p, eta),
    ("gather", "sequential_read"): lambda m, p, eta, prm: m.gather_sequential_read(p, eta),
    ("gather", "throttled_write"): lambda m, p, eta, prm: m.gather_throttled(p, eta, prm["k"]),
    ("gather", "xpmem_write"): lambda m, p, eta, prm: m.gather_xpmem(p, eta),
    ("alltoall", "pairwise"): lambda m, p, eta, prm: m.alltoall_pairwise(p, eta),
    ("alltoall", "pairwise_pt2pt"): lambda m, p, eta, prm: m.alltoall_pairwise_pt2pt(p, eta),
    ("alltoall", "pairwise_shm"): lambda m, p, eta, prm: m.alltoall_pairwise_shm(p, eta),
    ("alltoall", "bruck"): lambda m, p, eta, prm: m.alltoall_bruck(p, eta),
    ("alltoall", "xpmem_pairwise"): lambda m, p, eta, prm: m.alltoall_xpmem(p, eta),
    ("allgather", "ring_source_read"): lambda m, p, eta, prm: m.allgather_ring_source(p, eta),
    ("allgather", "ring_source_write"): lambda m, p, eta, prm: m.allgather_ring_source(p, eta),
    ("allgather", "ring_neighbor"): lambda m, p, eta, prm: m.allgather_ring_neighbor(p, eta, prm.get("j", 1)),
    ("allgather", "recursive_doubling"): lambda m, p, eta, prm: m.allgather_recursive_doubling(p, eta),
    ("allgather", "bruck"): lambda m, p, eta, prm: m.allgather_bruck(p, eta),
    ("allgather", "xpmem_ring"): lambda m, p, eta, prm: m.allgather_xpmem_ring(p, eta),
    ("bcast", "direct_read"): lambda m, p, eta, prm: m.bcast_direct_read(p, eta),
    ("bcast", "direct_write"): lambda m, p, eta, prm: m.bcast_direct_write(p, eta),
    ("bcast", "knomial"): lambda m, p, eta, prm: m.bcast_knomial(p, eta, prm.get("k", 4)),
    ("bcast", "scatter_allgather"): lambda m, p, eta, prm: m.bcast_scatter_allgather(p, eta),
    ("bcast", "xpmem_read"): lambda m, p, eta, prm: m.bcast_xpmem(p, eta),
    ("bcast", "shm_slab"): lambda m, p, eta, prm: m.bcast_shm_slab(p, eta),
    ("bcast", "chain"): lambda m, p, eta, prm: m.bcast_chain(p, eta, prm.get("segsize", 128 * 1024)),
    ("reduce", "gather_throttled"): lambda m, p, eta, prm: m.reduce_gather_throttled(p, eta, prm.get("k", 8)),
    ("reduce", "binomial"): lambda m, p, eta, prm: m.reduce_binomial(p, eta),
    ("reduce", "ring_rs"): lambda m, p, eta, prm: m.reduce_ring_rs(p, eta),
    ("allreduce", "reduce_bcast"): lambda m, p, eta, prm: m.allreduce_reduce_bcast(p, eta, prm.get("k", 4)),
    ("allreduce", "ring"): lambda m, p, eta, prm: m.allreduce_ring(p, eta),
    ("allreduce", "recursive_doubling"): lambda m, p, eta, prm: m.allreduce_recursive_doubling(p, eta),
}


def predict(
    arch: Architecture, collective: str, algorithm: str, p: int, eta: int, **params
) -> float:
    """Module-level convenience wrapper."""
    return AnalyticModel(arch).predict(collective, algorithm, p, eta, **params)
