"""Tests for the vector collectives (Scatterv/Gatherv/Alltoallv) extension."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runner import CollectiveSpec, run_collective
from repro.core.common import displacements
from repro.machine import make_generic


def run(coll, alg, counts, root=0, in_place=False, **params):
    p = len(counts)
    spec = CollectiveSpec(
        coll,
        alg,
        make_generic(sockets=1, cores_per_socket=max(p, 2)),
        procs=p,
        root=root,
        in_place=in_place,
        params=params,
        counts=list(counts),
    )
    return run_collective(spec)


def outputs(res):
    """Every output field of a CollectiveResult (all but its spec)."""
    return {f.name: getattr(res, f.name) for f in fields(res) if f.name != "spec"}


SCATTERV_ALGS = [("parallel_read", {}), ("sequential_write", {}), ("throttled_read", {"k": 2})]
GATHERV_ALGS = [("parallel_write", {}), ("sequential_read", {}), ("throttled_write", {"k": 2})]


class TestDisplacements:
    def test_prefix_sums(self):
        assert displacements([3, 0, 5]) == [0, 3, 3]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            displacements([1, -2])


class TestScatterv:
    @pytest.mark.parametrize("alg,params", SCATTERV_ALGS)
    def test_uneven_blocks(self, alg, params):
        run("scatterv", alg, [100, 5000, 1, 9000, 0, 250], **params)

    @pytest.mark.parametrize("alg,params", SCATTERV_ALGS)
    def test_nonzero_root(self, alg, params):
        run("scatterv", alg, [10, 20, 30, 40, 50], root=3, **params)

    @pytest.mark.parametrize("alg,params", SCATTERV_ALGS)
    def test_zero_blocks_skip_transfer(self, alg, params):
        res = run("scatterv", alg, [0, 4096, 0, 4096], **params)
        assert res.cma_reads + res.cma_writes == 2

    def test_in_place_root(self):
        run("scatterv", "throttled_read", [100, 200, 300], in_place=True, k=1)

    def test_equal_counts_match_scatter(self):
        """With equal counts, scatterv is plain scatter, output for output."""
        p, eta = 8, 50_000
        v = run("scatterv", "throttled_read", [eta] * p, k=3)
        s = run_collective(
            CollectiveSpec(
                "scatter", "throttled_read",
                make_generic(sockets=1, cores_per_socket=8),
                procs=p, eta=eta, params={"k": 3},
            )
        )
        assert outputs(v) == outputs(s)

    def test_imbalance_straggles_waves(self):
        """One huge block makes its wave straggle: total latency tracks the
        largest block, not the average block size."""
        p = 9
        tiny = [8 * 1024] * p
        skewed = [8 * 1024] * (p - 1) + [512 * 1024]
        t_tiny = run("scatterv", "throttled_read", tiny, k=2).latency_us
        t_skew = run("scatterv", "throttled_read", skewed, k=2).latency_us
        assert t_skew > 3 * t_tiny


class TestGatherv:
    @pytest.mark.parametrize("alg,params", GATHERV_ALGS)
    def test_uneven_blocks(self, alg, params):
        run("gatherv", alg, [4096, 0, 123, 50_000, 7], **params)

    @pytest.mark.parametrize("alg,params", GATHERV_ALGS)
    def test_nonzero_root(self, alg, params):
        run("gatherv", alg, [10, 0, 30, 999], root=2, **params)

    def test_in_place_root(self):
        run("gatherv", "sequential_read", [500, 600, 700], in_place=True)

    def test_equal_counts_match_gather(self):
        """With equal counts, gatherv is plain gather, output for output."""
        p, eta = 8, 50_000
        v = run("gatherv", "throttled_write", [eta] * p, k=3)
        g = run_collective(
            CollectiveSpec(
                "gather", "throttled_write",
                make_generic(sockets=1, cores_per_socket=8),
                procs=p, eta=eta, params={"k": 3},
            )
        )
        assert outputs(v) == outputs(g)


class TestSpecValidation:
    def test_counts_length_checked(self):
        with pytest.raises(ValueError, match="counts"):
            CollectiveSpec(
                "scatterv", "parallel_read", make_generic(), procs=4,
                counts=[1, 2, 3],
            )

    def test_counts_rejected_for_plain_collectives(self):
        with pytest.raises(ValueError):
            CollectiveSpec(
                "scatter", "parallel_read", make_generic(), procs=4,
                counts=[1, 2, 3, 4],
            )

    def test_counts_default_to_eta(self):
        spec = CollectiveSpec(
            "gatherv", "sequential_read", make_generic(), procs=4, eta=77
        )
        assert spec.counts == [77] * 4

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CollectiveSpec(
                "gatherv", "sequential_read", make_generic(), procs=2,
                counts=[5, -1],
            )


@settings(max_examples=30, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=20_000), min_size=2, max_size=10),
    root=st.integers(min_value=0, max_value=9),
    which=st.integers(min_value=0, max_value=2),
)
def test_property_vcollectives_any_counts(counts, root, which):
    root %= len(counts)
    s_alg, s_params = SCATTERV_ALGS[which]
    g_alg, g_params = GATHERV_ALGS[which]
    if "k" in s_params:
        clamp = {"k": min(2, len(counts) - 1)}
        s_params, g_params = clamp, clamp
    run("scatterv", s_alg, counts, root=root, **s_params)
    run("gatherv", g_alg, counts, root=root, **g_params)


class TestAlltoallv:
    def test_uneven_matrix(self):
        counts = [
            [0, 100, 5000, 1],
            [2048, 0, 0, 300],
            [7, 7, 7, 7],
            [0, 0, 0, 0],
        ]
        spec = CollectiveSpec(
            "alltoallv", "pairwise",
            make_generic(sockets=1, cores_per_socket=4),
            procs=4, counts=counts,
        )
        run_collective(spec)

    def test_equal_matrix_matches_alltoall(self):
        p, eta = 8, 20_000
        matrix = [[eta] * p for _ in range(p)]
        spec_v = CollectiveSpec(
            "alltoallv", "pairwise",
            make_generic(sockets=1, cores_per_socket=p),
            procs=p, counts=matrix,
        )
        spec_p = CollectiveSpec(
            "alltoall", "pairwise",
            make_generic(sockets=1, cores_per_socket=p),
            procs=p, eta=eta,
        )
        # the same generator over the same layout
        assert outputs(run_collective(spec_v)) == outputs(run_collective(spec_p))

    def test_matrix_shape_validated(self):
        with pytest.raises(ValueError, match="p x p"):
            CollectiveSpec(
                "alltoallv", "pairwise", make_generic(), procs=3,
                counts=[[1, 2], [3, 4]],
            )

    def test_default_matrix_from_eta(self):
        spec = CollectiveSpec(
            "alltoallv", "pairwise", make_generic(), procs=3, eta=5
        )
        assert spec.counts == [[5, 5, 5]] * 3


@settings(max_examples=20, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_property_alltoallv_random_matrices(p, seed):
    import random

    rng = random.Random(seed)
    matrix = [[rng.randrange(0, 5000) for _ in range(p)] for _ in range(p)]
    spec = CollectiveSpec(
        "alltoallv", "pairwise",
        make_generic(sockets=1, cores_per_socket=max(p, 2)),
        procs=p, counts=matrix,
    )
    run_collective(spec)
