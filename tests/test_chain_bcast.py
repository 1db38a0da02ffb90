"""Tests for the segmented pipeline (chain) broadcast extension."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runner import CollectiveSpec, run_collective
from repro.machine import get_arch, make_generic


def run(p=6, eta=4000, segsize=1024, root=0, verify=True):
    spec = CollectiveSpec(
        "bcast",
        "chain",
        make_generic(sockets=1, cores_per_socket=max(p, 2)),
        procs=p,
        eta=eta,
        root=root,
        params={"segsize": segsize},
        verify=verify,
    )
    return run_collective(spec)


class TestChain:
    @pytest.mark.parametrize("p", [2, 3, 5, 8, 13])
    def test_verifies(self, p):
        run(p=p)

    @pytest.mark.parametrize("segsize", [1, 100, 4000, 100_000])
    def test_segment_sizes(self, segsize):
        run(p=5, eta=4000, segsize=segsize)

    @pytest.mark.parametrize("root", [1, 4])
    def test_nonzero_root(self, root):
        run(p=6, root=root)

    def test_invalid_segsize(self):
        with pytest.raises(ValueError):
            run(segsize=0)

    def test_pipelining_beats_unsegmented_chain(self):
        """Small segments fill the pipeline; one giant segment serializes
        the whole chain."""
        p, eta = 12, 1 << 20
        piped = run(p=p, eta=eta, segsize=128 * 1024, verify=False).latency_us
        serial = run(p=p, eta=eta, segsize=1 << 20, verify=False).latency_us
        assert piped < 0.6 * serial

    def test_contention_free(self):
        """Exactly one reader per source: the chain never queues on a lock."""
        spec = CollectiveSpec(
            "bcast", "chain",
            make_generic(sockets=1, cores_per_socket=8),
            procs=8, eta=256 * 1024, params={"segsize": 32 * 1024},
            verify=False,
        )
        res = run_collective(spec)
        assert "lock" not in res.trace_by_phase
        assert res.trace_by_phase["pin"] > 0

    def test_competitive_with_scatter_allgather_large(self):
        p, eta = 16, 4 << 20
        chain = CollectiveSpec(
            "bcast", "chain", get_arch("knl"), procs=p, eta=eta,
            params={"segsize": 256 * 1024}, verify=False,
        )
        sa = CollectiveSpec(
            "bcast", "scatter_allgather", get_arch("knl"), procs=p, eta=eta,
            verify=False,
        )
        t_chain = run_collective(chain).latency_us
        t_sa = run_collective(sa).latency_us
        assert t_chain < 1.3 * t_sa


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=12),
    eta=st.integers(min_value=1, max_value=50_000),
    segsize=st.integers(min_value=1, max_value=60_000),
    root=st.integers(min_value=0, max_value=11),
)
def test_property_chain_any_shape(p, eta, segsize, root):
    run(p=p, eta=eta, segsize=segsize, root=root % p)
