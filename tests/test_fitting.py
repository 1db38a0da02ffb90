"""Tests for the Table III / Table IV / Fig 5 parameter-fitting pipeline."""

import pytest

from repro.core import fitting
from repro.machine import get_arch, make_generic


@pytest.fixture(scope="module")
def small_arch():
    return make_generic(sockets=1, cores_per_socket=17, default_procs=17)


class TestStepTimings:
    def test_ordering_t1_to_t4(self, small_arch):
        s = fitting.measure_steps(small_arch, pages=8)
        assert s.t1_syscall < s.t2_check < s.t3_lock_pin < s.t4_copy

    def test_t1_is_syscall_cost(self, small_arch):
        s = fitting.measure_steps(small_arch, pages=8)
        assert s.t1_syscall == pytest.approx(small_arch.params.alpha_syscall)

    def test_unknown_step_rejected(self, small_arch):
        from repro.bench import microbench

        with pytest.raises(KeyError):
            microbench.step_timing(small_arch, "teleport")


class TestBaseParams:
    def test_recovers_ground_truth(self, small_arch):
        base = fitting.derive_base_params(small_arch)
        p = small_arch.params
        assert base.alpha == pytest.approx(p.alpha, rel=0.01)
        assert base.l_page == pytest.approx(p.l_page, rel=0.01)
        assert base.beta == pytest.approx(p.beta, rel=0.01)

    def test_recovers_all_paper_arches(self):
        for name in ("knl", "broadwell", "power8"):
            arch = get_arch(name)
            base = fitting.derive_base_params(arch)
            assert base.alpha == pytest.approx(arch.params.alpha, rel=0.01), name
            assert base.page_size == arch.params.page_size

    def test_beta_gbps_roundtrip(self, small_arch):
        base = fitting.derive_base_params(small_arch)
        assert base.beta_gbps == pytest.approx(small_arch.params.beta_gbps, rel=0.01)


class TestGammaMeasurement:
    def test_gamma_one_at_single_reader(self, small_arch):
        samples = fitting.measure_gamma(
            small_arch, page_counts=(16,), reader_counts=(1,)
        )
        assert samples[0].gamma == pytest.approx(1.0)

    def test_gamma_grows_with_readers(self, small_arch):
        samples = fitting.measure_gamma(
            small_arch, page_counts=(32,), reader_counts=(1, 4, 16)
        )
        g = {s.readers: s.gamma for s in samples}
        assert g[4] > g[1]
        assert g[16] > 2 * g[4]

    def test_gamma_roughly_independent_of_pages(self, small_arch):
        """The paper's observation: gamma depends on concurrency, not on
        how many pages are being locked."""
        samples = fitting.measure_gamma(
            small_arch, page_counts=(32, 96), reader_counts=(8,)
        )
        g = [s.gamma for s in samples]
        assert g[0] == pytest.approx(g[1], rel=0.35)


class TestGammaFit:
    def test_fit_recovers_synthetic_polynomial(self):
        truth = fitting.GammaFit(g1=1.5, g2=0.08)
        samples = [
            fitting.GammaSample(pages=10, readers=c, gamma=truth(c))
            for c in (1, 2, 4, 8, 16, 32, 64)
        ]
        fit = fitting.fit_gamma(samples)
        assert fit.g1 == pytest.approx(1.5, abs=0.05)
        assert fit.g2 == pytest.approx(0.08, abs=0.01)
        assert fit.residual < 1e-6

    def test_fit_with_knee_recovers_spill(self):
        truth = fitting.GammaFit(g1=0.8, g2=0.03, spill=0.2, knee=14)
        samples = [
            fitting.GammaSample(pages=10, readers=c, gamma=truth(c))
            for c in (1, 2, 4, 8, 12, 14, 16, 20, 28)
        ]
        fit = fitting.fit_gamma(samples, knee=14)
        assert fit.spill == pytest.approx(0.2, abs=0.02)

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            fitting.fit_gamma([])

    def test_gamma_fit_callable_clamps_below_one_reader(self):
        fit = fitting.GammaFit(g1=2.0, g2=0.5)
        assert fit(0.5) == 1.0
        assert fit(1) == 1.0


class TestFullPipeline:
    def test_fit_architecture_produces_superlinear_gamma(self, small_arch):
        fa = fitting.fit_architecture(
            small_arch, page_counts=(16, 48), reader_counts=(1, 2, 4, 8, 16)
        )
        # super-linear: quadratic term present
        assert fa.gamma.g2 > 0.005
        assert fa.gamma(16) > fa.gamma(8) > fa.gamma(2) >= 1.0

    def test_two_socket_fit_uses_knee(self):
        arch = make_generic(sockets=2, cores_per_socket=8, default_procs=16)
        fa = fitting.fit_architecture(
            arch, page_counts=(16,), reader_counts=(1, 2, 4, 8, 12, 15)
        )
        assert fa.gamma.knee == 8

    def test_uncached_fit_runs_once_per_process(self, small_arch, monkeypatch):
        """With no result cache active the fit is memoised in-process:
        the pipeline runs once per key, and every caller gets its own
        copy, so mutating one result cannot leak into the next."""
        monkeypatch.setattr(fitting, "_FITS", {})
        real = fitting._fit_architecture_fresh
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fitting, "_fit_architecture_fresh", counting)
        axes = dict(page_counts=(16,), reader_counts=(1, 4, 8))
        first = fitting.fit_architecture(small_arch, **axes)
        first.samples.clear()
        first.arch_name = "mutated"
        second = fitting.fit_architecture(small_arch, **axes)
        assert len(calls) == 1
        assert second.arch_name == small_arch.name and second.samples
        assert second == fitting.fit_architecture(small_arch, **axes)
        fitting.fit_architecture(small_arch, page_counts=(16,), reader_counts=(1, 4))
        assert len(calls) == 2

    def test_table_row_formatting(self, small_arch):
        fa = fitting.fit_architecture(
            small_arch, page_counts=(16,), reader_counts=(1, 4, 8)
        )
        row = fa.as_table_row()
        assert set(row) == {"alpha", "beta", "l", "s", "gamma(c)"}
        assert "us" in row["alpha"]
        assert "GBps" in row["beta"]
