"""Algorithm selection: the paper's "Proposed" design.

"Our design selects the appropriate CMA algorithm for a given collective
based on the architecture and message size" (Section VII) — plus, on
Broadwell, falling back to shared memory for Bcast below ~2 MB where the
p-vs-p+1 copy-count argument favours it (Section VII-F).

Selection is model-driven: the :class:`~repro.core.model.AnalyticModel`
prices every candidate (algorithm x tuning parameter) and the tuner picks
the cheapest valid one.  That makes the throttle factor an *output* of the
fitted contention factor, not a magic constant — the ablation bench checks
the model's pick against exhaustive simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.core.model import AnalyticModel
from repro.core.registry import get_algorithm
from repro.core.runner import CollectiveSpec, CollectiveResult, run_collective
from repro.machine.arch import Architecture

__all__ = ["Tuner", "Choice", "apply_gamma"]


def apply_gamma(arch: Architecture, fit) -> Architecture:
    """A copy of ``arch`` whose model prices contention with ``fit``.

    ``fit`` is a :class:`~repro.core.fitting.GammaFit` (duck-typed: g1/g2/
    spill/knee).  Used by :meth:`Tuner.calibrated`.
    """
    from dataclasses import replace as _replace

    params = arch.params.with_updates(
        gamma_g1=fit.g1,
        gamma_g2=fit.g2,
        gamma_spill=fit.spill,
        spill_point=fit.knee,
    )
    return _replace(arch, params=params)


@dataclass(frozen=True)
class Choice:
    """The tuner's pick for one (collective, p, eta) point."""

    algorithm: str
    params: tuple  # sorted (key, value) pairs — hashable for caching
    predicted_us: float

    @property
    def params_dict(self) -> dict:
        return dict(self.params)

    def describe(self) -> str:
        extra = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.algorithm}({extra})" if extra else self.algorithm


class Tuner:
    """Model-driven algorithm selection for one architecture.

    ``choose`` memoises per instance behind a *bounded* LRU
    (:attr:`CHOOSE_CACHE_SIZE` entries).  The memo used to be a
    ``functools.lru_cache`` on the method itself, which keys on ``self``:
    one shared class-level cache that pinned every tuner ever constructed
    (and its architecture tables) for the life of the process — under
    sweep-scale query mixes that grows without limit.  The per-instance
    cache dies with the tuner, and its hit/miss counters are exposed via
    :meth:`choose_cache_stats`.
    """

    #: per-instance ``choose`` memo bound
    CHOOSE_CACHE_SIZE = 4096

    def __init__(self, arch: Architecture):
        self.arch = arch
        self.model = AnalyticModel(arch)
        self._choose_cached = lru_cache(maxsize=self.CHOOSE_CACHE_SIZE)(
            self._choose_fresh
        )

    def choose_cache_stats(self) -> dict:
        """Hit/miss/size counters of the bounded ``choose`` memo."""
        info = self._choose_cached.cache_info()
        return {
            "hits": info.hits,
            "misses": info.misses,
            "size": info.currsize,
            "maxsize": info.maxsize,
        }

    @classmethod
    def calibrated(cls, arch: Architecture) -> "Tuner":
        """Build a tuner whose model uses *fitted* parameters.

        Runs the Table-III/Fig-5 measurement pipeline on the simulated
        machine and replaces the preset gamma polynomial (and alpha/l/beta)
        with the fitted values, so the tuner prices candidates with the
        same contention behaviour the simulator actually exhibits.
        """
        from repro.core.fitting import fit_architecture

        fitted = fit_architecture(arch)
        return cls(apply_gamma(arch, fitted.gamma))

    # -- candidate enumeration ---------------------------------------------------

    def candidates(self, collective: str, p: int) -> list[tuple[str, dict]]:
        ks = [k for k in self.arch.throttle_candidates if k <= max(p - 1, 1)]
        if collective == "scatter":
            out = [("parallel_read", {}), ("sequential_write", {})]
            out += [("throttled_read", {"k": k}) for k in ks]
            out.append(("xpmem_read", {}))
            return out
        if collective == "gather":
            out = [("parallel_write", {}), ("sequential_read", {})]
            out += [("throttled_write", {"k": k}) for k in ks]
            out.append(("xpmem_write", {}))
            return out
        if collective == "alltoall":
            return [("pairwise", {}), ("bruck", {}), ("xpmem_pairwise", {})]
        if collective == "allgather":
            out = [
                ("ring_source_read", {}),
                ("ring_neighbor", {"j": 1}),
                ("recursive_doubling", {}),
                ("bruck", {}),
                ("xpmem_ring", {}),
            ]
            return out
        if collective == "bcast":
            out = [
                ("direct_read", {}),
                ("direct_write", {}),
                ("scatter_allgather", {}),
                ("xpmem_read", {}),
            ]
            out += [("knomial", {"k": k}) for k in (2, 4, 8) if k <= p]
            out += [
                ("chain", {"segsize": seg})
                for seg in (64 * 1024, 256 * 1024)
            ]
            # the shared-memory fallback (Section VII-F: shm wins small)
            out.append(("shm_slab", {}))
            return out
        if collective == "reduce":
            out = [("binomial", {}), ("ring_rs", {})]
            out += [("gather_throttled", {"k": k}) for k in ks]
            return out
        if collective == "allreduce":
            return [
                ("reduce_bcast", {"k": 4}),
                ("ring", {}),
                ("recursive_doubling", {}),
            ]
        raise KeyError(f"unknown collective {collective!r}")

    # -- selection ------------------------------------------------------------------

    def choose(self, collective: str, eta: int, p: Optional[int] = None) -> Choice:
        p = p or self.arch.default_procs
        return self._choose_cached(collective, eta, p)

    def _choose_fresh(self, collective: str, eta: int, p: int) -> Choice:
        best: Optional[Choice] = None
        for alg, params in self.candidates(collective, p):
            info = get_algorithm(collective, alg)
            if info.check(p, params):
                continue  # invalid at this p (e.g. gcd constraint)
            cost = self._predict(collective, alg, p, eta, params)
            if cost is None:
                continue
            choice = Choice(alg, tuple(sorted(params.items())), cost)
            if best is None or cost < best.predicted_us:
                best = choice
        assert best is not None, f"no valid candidate for {collective} p={p}"
        return best

    def _predict(
        self, collective: str, alg: str, p: int, eta: int, params: dict
    ) -> Optional[float]:
        try:
            return self.model.predict(collective, alg, p, eta, **params)
        except KeyError:
            return None

    # -- execution ------------------------------------------------------------------

    def spec(
        self,
        collective: str,
        eta: int,
        procs: Optional[int] = None,
        root: int = 0,
        verify: bool = False,
    ) -> CollectiveSpec:
        p = procs or self.arch.default_procs
        choice = self.choose(collective, eta, p)
        return CollectiveSpec(
            collective=collective,
            algorithm=choice.algorithm,
            arch=self.arch,
            procs=p,
            eta=eta,
            root=root,
            params=choice.params_dict,
            verify=verify,
        )

    def run(
        self,
        collective: str,
        eta: int,
        procs: Optional[int] = None,
        verify: bool = False,
    ) -> CollectiveResult:
        """Run the tuned ("Proposed") design at one point."""
        return run_collective(self.spec(collective, eta, procs, verify=verify))

    def best_throttle(self, collective: str, eta: int, p: Optional[int] = None) -> int:
        """The model-optimal throttle factor (ablation reference point)."""
        p = p or self.arch.default_procs
        if collective == "scatter":
            costs = {
                k: self.model.scatter_throttled(p, eta, k)
                for k in range(1, p)
            }
        elif collective == "gather":
            costs = {
                k: self.model.gather_throttled(p, eta, k) for k in range(1, p)
            }
        else:
            raise KeyError("throttling applies to scatter/gather")
        return min(costs, key=costs.get)
