"""Tests for the tuner (the "Proposed" design) and the baseline libraries."""

import pytest

from repro.core.baselines import LIBRARY_NAMES, library
from repro.core.p2p_colls import FORCE_EAGER, FORCE_RNDV
from repro.core.runner import CollectiveSpec, run_collective
from repro.core.tuning import Tuner
from repro.machine import get_arch, make_generic

COLLECTIVES = ("scatter", "gather", "bcast", "allgather", "alltoall")


def small_arch():
    return make_generic(sockets=1, cores_per_socket=10, default_procs=10)


class TestP2PCollectives:
    """The baseline building blocks must satisfy full MPI semantics too."""

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 12])
    @pytest.mark.parametrize("threshold", [FORCE_EAGER, FORCE_RNDV])
    @pytest.mark.parametrize(
        "coll,alg",
        [
            ("bcast", "binomial_p2p"),
            ("scatter", "binomial_p2p"),
            ("gather", "binomial_p2p"),
            ("allgather", "ring_p2p"),
        ],
    )
    def test_p2p_trees_verify(self, p, threshold, coll, alg):
        spec = CollectiveSpec(
            coll,
            alg,
            make_generic(sockets=1, cores_per_socket=max(p, 2)),
            procs=p,
            eta=6000,
            params={"threshold": threshold},
        )
        run_collective(spec)

    @pytest.mark.parametrize("p", [2, 4, 7, 9])
    @pytest.mark.parametrize(
        "coll,alg", [("scatter", "fanout_rndv"), ("gather", "fanin_rndv")]
    )
    def test_rndv_fanout_fanin_verify(self, p, coll, alg):
        spec = CollectiveSpec(
            coll,
            alg,
            make_generic(sockets=1, cores_per_socket=max(p, 2)),
            procs=p,
            eta=50_000,
        )
        run_collective(spec)

    @pytest.mark.parametrize("root", [1, 4])
    def test_p2p_trees_nonzero_root(self, root):
        for coll, alg in [
            ("bcast", "binomial_p2p"),
            ("scatter", "binomial_p2p"),
            ("gather", "binomial_p2p"),
        ]:
            spec = CollectiveSpec(
                coll,
                alg,
                small_arch(),
                procs=7,
                eta=3000,
                root=root,
                params={"threshold": FORCE_RNDV},
            )
            run_collective(spec)

    def test_shm_slab_bcast_verifies(self):
        for p, eta in [(2, 100), (8, 50_000), (13, 4096)]:
            spec = CollectiveSpec(
                "bcast",
                "shm_slab",
                make_generic(sockets=1, cores_per_socket=max(p, 2)),
                procs=p,
                eta=eta,
                root=1 % p,
            )
            run_collective(spec)

    def test_fanout_hits_contention_wall(self):
        """The contention-unaware baseline really does contend."""
        arch = get_arch("knl")
        fan = run_collective(
            CollectiveSpec(
                "scatter", "fanout_rndv", arch, procs=32, eta=256 * 1024,
                verify=False,
            )
        )
        thr = run_collective(
            CollectiveSpec(
                "scatter",
                "throttled_read",
                get_arch("knl"),
                procs=32,
                eta=256 * 1024,
                params={"k": 8},
                verify=False,
            )
        )
        assert fan.latency_us > 2 * thr.latency_us


class TestLibraries:
    def test_registry(self):
        assert set(LIBRARY_NAMES) == {"mvapich2", "intelmpi", "openmpi"}
        with pytest.raises(KeyError):
            library("mpich1")

    @pytest.mark.parametrize("lib", LIBRARY_NAMES)
    @pytest.mark.parametrize("coll", COLLECTIVES)
    def test_selection_rules_cover_all_sizes(self, lib, coll):
        model = library(lib)
        for eta in (1024, 16 * 1024, 1 << 20, 8 << 20):
            alg, params = model.select(coll, eta, 16)
            assert isinstance(alg, str) and isinstance(params, dict)

    @pytest.mark.parametrize("lib", LIBRARY_NAMES)
    @pytest.mark.parametrize("coll", COLLECTIVES)
    def test_libraries_produce_correct_collectives(self, lib, coll):
        """Baselines are real algorithms: they must verify too."""
        res = library(lib).run(
            coll, small_arch(), eta=40_000, procs=8, verify=True
        )
        assert res.latency_us > 0

    def test_ctrl_factor_changes_arch_copy(self):
        om = library("openmpi")
        arch = get_arch("knl")
        tuned = om.tuned_arch(arch)
        assert tuned.params.t_ctrl == pytest.approx(arch.params.t_ctrl * 1.2)
        assert arch.params.t_ctrl == get_arch("knl").params.t_ctrl  # untouched


class TestTuner:
    @pytest.fixture(scope="class")
    def knl_tuner(self):
        return Tuner(get_arch("knl"))

    @pytest.mark.parametrize("coll", COLLECTIVES)
    def test_choices_are_valid_algorithms(self, knl_tuner, coll):
        for eta in (1024, 64 * 1024, 1 << 20, 4 << 20):
            choice = knl_tuner.choose(coll, eta, 64)
            spec = knl_tuner.spec(coll, eta, 64)
            assert spec.algorithm == choice.algorithm

    def test_scatter_picks_throttled_for_large(self, knl_tuner):
        choice = knl_tuner.choose("scatter", 1 << 20, 64)
        assert choice.algorithm == "throttled_read"
        assert 2 <= choice.params_dict["k"] <= 16

    def test_bcast_picks_a_contention_free_design_large_knl(self, knl_tuner):
        choice = knl_tuner.choose("bcast", 8 << 20, 64)
        assert choice.algorithm in ("scatter_allgather", "knomial", "chain")

    def test_bcast_picks_shm_small_on_broadwell(self):
        tuner = Tuner(get_arch("broadwell"))
        small = tuner.choose("bcast", 64 * 1024, 28)
        large = tuner.choose("bcast", 8 << 20, 28)
        assert small.algorithm == "shm_slab"
        assert large.algorithm != "shm_slab"

    def test_power8_throttle_around_one_socket(self):
        tuner = Tuner(get_arch("power8"))
        choice = tuner.choose("scatter", 1 << 20, 160)
        assert choice.algorithm == "throttled_write" or choice.algorithm == "throttled_read"
        assert choice.params_dict["k"] == 10

    def test_alltoall_bruck_only_for_tiny(self, knl_tuner):
        assert knl_tuner.choose("alltoall", 1 << 20, 64).algorithm == "pairwise"

    def test_allgather_respects_validity(self):
        # p where recursive doubling is non-power-of-two: still returns
        # something runnable
        tuner = Tuner(get_arch("broadwell"))
        choice = tuner.choose("allgather", 256 * 1024, 28)
        spec = tuner.spec("allgather", 256 * 1024, 28)
        run_collective(
            CollectiveSpec(
                spec.collective,
                spec.algorithm,
                make_generic(sockets=2, cores_per_socket=4),
                procs=8,
                eta=2000,
                params=spec.params,
            )
        )
        assert choice.predicted_us > 0

    def test_choice_caching(self, knl_tuner):
        a = knl_tuner.choose("scatter", 65536, 64)
        b = knl_tuner.choose("scatter", 65536, 64)
        assert a is b  # lru-cached

    def test_tuned_run_verifies(self):
        tuner = Tuner(small_arch())
        res = tuner.run("gather", 30_000, procs=10, verify=True)
        assert res.latency_us > 0

    def test_best_throttle_matches_choice_region(self, knl_tuner):
        k = knl_tuner.best_throttle("scatter", 1 << 20, 64)
        assert 2 <= k <= 16
        with pytest.raises(KeyError):
            knl_tuner.best_throttle("bcast", 1024, 64)

    def test_calibrated_tuner_runs(self):
        tuner = Tuner.calibrated(small_arch())
        choice = tuner.choose("scatter", 1 << 20, 10)
        assert choice.predicted_us > 0

    def test_describe(self, knl_tuner):
        c = knl_tuner.choose("scatter", 1 << 20, 64)
        assert "k=" in c.describe()


class TestTunerMemo:
    """``choose`` memoises per tuner behind a bounded LRU."""

    def test_identity_caching_and_counters(self):
        t = Tuner(get_arch("knl"))
        a = t.choose("bcast", 4096, 8)
        b = t.choose("bcast", 4096, 8)
        assert a is b
        stats = t.choose_cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["maxsize"] == Tuner.CHOOSE_CACHE_SIZE

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(Tuner, "CHOOSE_CACHE_SIZE", 4)
        t = Tuner(get_arch("knl"))
        for eta in (1, 2, 3, 4, 5, 6):
            t.choose("bcast", eta, 8)
        stats = t.choose_cache_stats()
        assert stats["maxsize"] == 4
        assert stats["size"] <= 4
        assert stats["misses"] == 6
        # eta=1 was evicted by the later four: re-choosing misses again
        t.choose("bcast", 1, 8)
        assert t.choose_cache_stats()["misses"] == 7


class TestProposedBeatsBaselines:
    """Table VI's headline, in miniature: the tuned design wins."""

    @pytest.mark.parametrize("coll", ["scatter", "gather"])
    def test_personalized_collectives_win_big(self, coll):
        arch_name = "knl"
        tuner = Tuner.calibrated(get_arch(arch_name))
        eta, p = 256 * 1024, 32
        ours = tuner.run(coll, eta, p).latency_us
        for lib in LIBRARY_NAMES:
            theirs = library(lib).run(coll, get_arch(arch_name), eta, p).latency_us
            assert theirs > 1.5 * ours, lib

    def test_alltoall_wins_medium(self):
        tuner = Tuner.calibrated(get_arch("knl"))
        eta, p = 64 * 1024, 16
        ours = tuner.run("alltoall", eta, p).latency_us
        for lib in LIBRARY_NAMES:
            theirs = library(lib).run("alltoall", get_arch("knl"), eta, p).latency_us
            assert theirs > ours, lib
