"""An unverified run's buffers are address ranges only.

A :class:`repro.kernel.address_space.Buffer` holds runs, not bytes, and
is allocated as one zero run; every content access in the kernel and MPI
layers is gated on ``node.verify``.  Together they promise that a
timing-only point never writes a run, let alone a byte.  This battery runs
every registered (collective, algorithm) on every preset architecture with
``verify=False``, fresh and pooled (cold and warm), and checks that promise
buffer by buffer, alongside pooled == fresh.  A verified run, in turn,
writes runs but materializes no byte array: fill, transfer and verify are
all run algebra.
"""

import pytest

from repro.core.registry import ALGORITHMS
from repro.core.runner import (
    CollectiveSpec,
    NodePool,
    run_collective,
    run_collective_pooled,
)
from repro.kernel import address_space
from repro.kernel.address_space import AddressSpace
from repro.machine import ARCH_NAMES, get_arch

PROCS = 4
#: below and above the pt2pt eager/rendezvous threshold
ETAS = (1024, 65536)
#: values for the tunables the registry requires
_TUNABLES = {"k": 2, "j": 1, "segsize": 4096}


def _cases():
    for coll, algs in sorted(ALGORITHMS.items()):
        for name, info in sorted(algs.items()):
            params = {t: _TUNABLES[t] for t in info.tunable if t in _TUNABLES}
            assert info.check(PROCS, params) is None, (coll, name)
            yield coll, name, params


CASES = list(_cases())


@pytest.fixture
def allocated(monkeypatch):
    """Every buffer any address space hands out while the test runs."""
    bufs = []
    real = AddressSpace.allocate

    def recording(self, nbytes, name="buf"):
        buf = real(self, nbytes, name)
        bufs.append(buf)
        return buf

    monkeypatch.setattr(AddressSpace, "allocate", recording)
    return bufs


@pytest.fixture
def materialized(monkeypatch):
    """A count of every byte array materialized from runs."""
    calls = []
    for name in ("materialize", "_bytes"):
        real = getattr(address_space, name)

        def counting(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(address_space, name, counting)
    return calls


def _written(bufs):
    return [b for b in bufs if b.runs() != [(0, b.nbytes, ())]]


@pytest.mark.parametrize("arch_name", ARCH_NAMES)
def test_unverified_runs_never_materialize_a_buffer(
    arch_name, allocated, materialized
):
    arch = get_arch(arch_name)
    pool = NodePool()
    for coll, name, params in CASES:
        for eta in ETAS:
            spec = CollectiveSpec(
                coll, name, arch, procs=PROCS, eta=eta, params=params,
                verify=False,
            )
            allocated.clear()
            fresh = run_collective(spec)
            cold = run_collective_pooled(spec, pool)
            warm = run_collective_pooled(spec, pool)
            assert allocated, (coll, name, eta)
            assert not _written(allocated), (coll, name, eta)
            assert not materialized, (coll, name, eta)
            assert cold == fresh, (coll, name, eta)
            assert warm == fresh, (coll, name, eta)
    assert pool.reuses >= len(CASES) * len(ETAS)


def test_verified_runs_write_runs_not_bytes(allocated, materialized):
    """The probe is not vacuous: a verified run writes runs (every buffer
    it checks), over CMA, shm and reductions, and still materializes no
    byte array."""
    for coll, name in (
        ("scatter", "parallel_read"),
        ("alltoall", "pairwise_pt2pt"),
        ("allreduce", "ring"),
    ):
        allocated.clear()
        spec = CollectiveSpec(coll, name, get_arch("knl"), procs=PROCS, eta=1024)
        run_collective(spec)
        assert len(_written(allocated)) == len(allocated), coll
    assert not materialized
