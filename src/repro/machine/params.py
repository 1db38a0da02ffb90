"""Cost-model parameters (the paper's Table II notation, Table IV values).

All times are microseconds, all sizes bytes.  The analytic model and the
simulated kernel share one :class:`ModelParams` instance per architecture:

* ``alpha`` (= syscall entry + permission check), ``beta`` (copy time per
  byte), ``l`` (lock+pin one page, uncontended) and ``page_size`` are the
  Table IV columns.
* ``kappa_intra`` / ``kappa_inter`` are *mechanistic* inputs to the
  simulated mm lock: each lock acquisition pays a cache-line migration
  cost of ``l_page * (kappa_intra*(c_same-1) + kappa_inter*c_other)``
  where ``c_same`` / ``c_other`` count contenders on the holder's socket /
  the other socket.  FIFO queueing on top of that inflated hold time is
  what *produces* the super-linear contention factor gamma(c); gamma is
  then fitted from simulated measurements (``repro.core.fitting``) exactly
  as the paper fits it from real ones (Fig. 5).
* ``gamma_*`` coefficients are the fitted polynomial the *analytic* model
  uses: ``gamma(c) = 1 + g1*(c-1) + g2*(c-1)^2 (+ spill term)``.  Presets
  carry values consistent with Table IV; ``core.fitting`` can refit them
  from the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["ModelParams"]

_GBPS_TO_US_PER_BYTE = 1.0 / 1000.0  # 1 GB/s == 1000 bytes/us


@dataclass
class ModelParams:
    """Per-architecture calibration constants.  Times in us, sizes in bytes."""

    # --- CMA transfer (Table IV) ---
    alpha_syscall: float  # syscall entry/exit cost (T1 in Table III)
    alpha_check: float  # permission/access check (T2 - T1)
    beta_gbps: float  # single-copy bandwidth, GB/s
    l_page: float  # lock+pin one page, no contention
    page_size: int  # s
    pin_batch: int = 16  # pages pinned per mm-lock acquisition

    # --- mm-lock bounce (mechanistic; drives emergent gamma) ---
    # per-acquisition line-migration cost, in units of l_page per contender
    kappa_intra: float = 0.80
    kappa_inter: float = 2.40

    # --- cross-socket copy penalty (QPI/X-bus hop): beta multiplier ---
    inter_socket_beta: float = 1.0

    # --- fitted contention factor gamma(c) (analytic model input) ---
    gamma_g1: float = 1.0  # linear term on (c-1)
    gamma_g2: float = 0.05  # quadratic term on (c-1)^2
    gamma_spill: float = 0.0  # extra quadratic term past one socket
    spill_point: int = 10 ** 9  # concurrency where readers spill sockets

    # --- shared-memory path ---
    t_ctrl: float = 0.35  # one small control message (addr, ready, fin)
    shm_gbps: float = 3.0  # shm copy bandwidth (each of the two copies)
    shm_chunk: int = 8192  # pipeline chunk for large shm transfers
    shm_chunk_overhead: float = 0.08  # per-chunk bookkeeping
    #: payload size beyond which the shm slab stops being cache-resident
    #: and its copies run at DRAM cost (Section VII-F's ~2 MB Broadwell knee)
    shm_cache_bytes: int = 1 << 20
    shm_large_factor: float = 2.0  # copy slowdown once cache-busting
    #: unread (each shm transfer owns its ring); kept because e2ebench's
    #: point keys hash repr(params), so dropping it moves every ref
    shm_segment_slots: int = 64

    # --- plain memcpy (root copying its own block) ---
    memcpy_gbps: float = 6.0

    # --- reduction combine throughput (extension: Reduce/Allreduce) ---
    reduce_gbps: float = 4.0

    # --- kernel-module variants (KNEM / LiMIC related-work models) ---
    t_cookie: float = 2.0  # KNEM region-declaration cost
    t_limic_setup: float = 0.8

    # --- XPMEM-style mapped windows ---
    t_xpmem_make: float = 1.2  # owner export (segid creation), per region
    t_xpmem_attach: float = 0.9  # fixed attach/lookup cost per call
    t_xpmem_page: float = 0.02  # map-table setup per window page (cold)
    t_xpmem_copy: float = 0.05  # fixed per-copy cost, steady state

    # --- inter-node network (multi-node experiments, Fig 17) ---
    alpha_net: float = 1.8  # per-message network latency
    net_gbps: float = 10.0  # ~100 Gb/s EDR IB / Omni-Path
    t_match: float = 0.15  # root-side matching cost per queued message

    # -- derived -------------------------------------------------------------

    @property
    def alpha(self) -> float:
        """Total startup cost per CMA call (Table II's alpha)."""
        return self.alpha_syscall + self.alpha_check

    @property
    def beta(self) -> float:
        """Copy time per byte (us/B)."""
        return _GBPS_TO_US_PER_BYTE / self.beta_gbps

    @property
    def shm_beta(self) -> float:
        return _GBPS_TO_US_PER_BYTE / self.shm_gbps

    @property
    def memcpy_beta(self) -> float:
        return _GBPS_TO_US_PER_BYTE / self.memcpy_gbps

    @property
    def reduce_beta(self) -> float:
        """Time per byte to combine two operands (us/B)."""
        return _GBPS_TO_US_PER_BYTE / self.reduce_gbps

    @property
    def net_beta(self) -> float:
        return _GBPS_TO_US_PER_BYTE / self.net_gbps

    # -- model pieces ---------------------------------------------------------

    def pages(self, nbytes: int) -> int:
        """ceil(n / s): pages touched by an n-byte transfer."""
        if nbytes <= 0:
            return 0
        return -(-nbytes // self.page_size)

    def gamma(self, c: float) -> float:
        """Fitted contention factor with ``c`` concurrent readers/writers.

        ``c <= 1`` means no contention (gamma == 1).  Past ``spill_point``
        contenders the extra inter-socket term kicks in (Fig. 5(b)/(c)).
        """
        if c <= 1:
            return 1.0
        x = c - 1.0
        g = 1.0 + self.gamma_g1 * x + self.gamma_g2 * x * x
        over = c - self.spill_point
        if over > 0:
            g += self.gamma_spill * over * over
        return g

    def lock_pin_time(self, nbytes: int, concurrency: float = 1.0) -> float:
        """Analytic lock+pin cost: l * gamma(c) * ceil(n/s)."""
        return self.l_page * self.gamma(concurrency) * self.pages(nbytes)

    def cma_time(self, nbytes: int, concurrency: float = 1.0) -> float:
        """Analytic cost of one CMA transfer: alpha + n*beta + l*gamma*ceil(n/s)."""
        return self.alpha + nbytes * self.beta + self.lock_pin_time(
            nbytes, concurrency
        )

    def with_updates(self, **kw) -> "ModelParams":
        """Functional update (used when fitting overwrites gamma terms)."""
        return replace(self, **kw)
