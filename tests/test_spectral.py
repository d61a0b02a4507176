import contextlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromacode import spectral
from chromacode.errors import NoConvergence, TooLarge, ZeroDegree, ZeroVector
from chromacode.graphs import (
    Signing,
    build_from_edges,
    complete_graph,
    cycle_graph,
    random_regular_bipartite,
    search_low_lambda_signing,
    tensor_power,
    two_lift,
)
from chromacode.spectral import (
    cheeger_check,
    full_spectrum,
    lambda2,
    lambda_min,
    normalized_adjacency,
    rayleigh_quotient,
)


def cycle_oracle(n):
    """Closed-form circulant spectrum of C_n (normalized by d=2), descending."""
    return sorted((math.cos(2 * math.pi * k / n) for k in range(n)), reverse=True)


class TestFullSpectrum:
    def test_k4(self):
        spec = full_spectrum(complete_graph(4))
        assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-9)
        for lam in spec.eigenvalues[1:]:
            assert lam == pytest.approx(-1 / 3, abs=1e-9)

    def test_c5_circulant_oracle(self):
        spec = full_spectrum(cycle_graph(5))
        for got, want in zip(spec.eigenvalues, cycle_oracle(5)):
            assert got == pytest.approx(want, abs=1e-9)

    def test_tensor_is_kronecker_of_kq(self):
        # eigenvalues of K_3^{x2} are all pairwise products of {1, -1/2, -1/2}
        spec = full_spectrum(tensor_power(3, 2))
        want = sorted(
            (a * b for a in (1, -0.5, -0.5) for b in (1, -0.5, -0.5)), reverse=True
        )
        for got, expect in zip(spec.eigenvalues, want):
            assert got == pytest.approx(expect, abs=1e-9)

    def test_residual_and_trace(self, fixture_graphs):
        for G in fixture_graphs.values():
            if G.d == 0:
                continue
            spec = full_spectrum(G)
            assert spec.residual < 1e-8
            assert abs(sum(spec.eigenvalues)) < 1e-8 * G.n
            assert list(spec.eigenvalues) == sorted(spec.eigenvalues, reverse=True)
            assert all(-1 - 1e-9 <= x <= 1 + 1e-9 for x in spec.eigenvalues)

    def test_zero_degree(self):
        with pytest.raises(ZeroDegree):
            full_spectrum(build_from_edges(3, []))

    def test_too_large(self):
        with pytest.raises(TooLarge):
            full_spectrum(cycle_graph(spectral.DENSE_CAP + 1))


class TestLambda2:
    def test_paper_values(self):
        assert lambda2(tensor_power(3, 2)) == pytest.approx(0.25, abs=1e-9)
        assert lambda2(complete_graph(4)) == pytest.approx(-1 / 3, abs=1e-9)

    def test_disconnected_is_one(self, fixture_graphs):
        assert lambda2(fixture_graphs["twin_triangles"]) == 1.0

    def test_zero_degree_marker(self):
        assert lambda2(build_from_edges(4, [])) == 1.0

    @settings(max_examples=8, deadline=None)
    @given(
        half=st.integers(spectral.LANCZOS_MIN_N // 2 + 1, 300),
        d=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_iterative_matches_dense(self, half, d, seed):
        # above the cutoff both values come from Lanczos
        G = random_regular_bipartite(half, d, seed)
        spec = full_spectrum(G)
        assert lambda2(G) == pytest.approx(spec.lambda2, abs=1e-9)
        assert lambda_min(G) == pytest.approx(spec.lambda_min, abs=1e-9)
        assert lambda2(G) == lambda2(G)
        assert lambda_min(G) == lambda_min(G)

    def test_no_convergence(self, monkeypatch):
        monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 5)
        n = spectral.LANCZOS_MIN_N + 1
        with pytest.raises(NoConvergence, match=rf"n={n} after 5 steps"):
            lambda2(cycle_graph(n))

    @pytest.mark.parametrize("n", [1001, 2001, 3001])
    def test_restarted_cycle(self, n):
        # a gap of order 1/n^2: one basis is not enough, so the solver has to
        # restart, and C3001 needs about 4,000 steps (a restart from the top
        # Ritz vector alone hit the step cap there)
        G = cycle_graph(n)
        assert lambda2(G) == pytest.approx(math.cos(2 * math.pi / n), abs=1e-9)
        assert lambda_min(G) == pytest.approx(math.cos((n - 1) * math.pi / n), abs=1e-9)

    def test_no_scipy_import(self):
        # the sparse path runs on numpy alone; loading scipy.sparse.linalg costs
        # about 0.3 s and 19 MB of peak RSS
        src = str(Path(spectral.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "from chromacode.graphs import random_regular_bipartite\n"
            "from chromacode.spectral import lambda2, lambda_min\n"
            "G = random_regular_bipartite(1000, 4, seed=0)\n"
            "assert G.n > 256 and lambda2(G) < 1 and lambda_min(G) < 0\n"
            "assert 'scipy' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestLambdaMin:
    def test_k4(self):
        assert lambda_min(complete_graph(4)) == pytest.approx(-1 / 3, abs=1e-9)

    def test_bipartite_is_minus_one(self, fixture_graphs):
        assert lambda_min(fixture_graphs["K33"]) == pytest.approx(-1.0, abs=1e-9)

    def test_c5_circulant(self):
        assert lambda_min(cycle_graph(5)) == pytest.approx(
            math.cos(4 * math.pi / 5), abs=1e-9
        )

    def test_disconnected_above_cutoff(self):
        # C201 + C203: lambda2 keeps the disconnected convention; lambda_min
        # runs the iteration over both components and must return the smaller
        # one's value, -cos(pi/203), not C201's -cos(pi/201)
        edges = [(i, (i + 1) % 201) for i in range(201)]
        edges += [(201 + i, 201 + (i + 1) % 203) for i in range(203)]
        two = build_from_edges(404, edges)
        assert two.n > spectral.LANCZOS_MIN_N
        assert lambda2(two) == 1.0
        assert lambda_min(two) == pytest.approx(-math.cos(math.pi / 203), abs=1e-9)

    def test_iterative_matches_dense(self):
        # non-bipartite graphs above the cutoff, where lambda_min > -1
        for G in (complete_graph(400), tensor_power(3, 6), cycle_graph(301)):
            assert G.n > spectral.LANCZOS_MIN_N
            spec = full_spectrum(G)
            assert lambda_min(G) == pytest.approx(spec.lambda_min, abs=1e-9), G.n
            assert lambda2(G) == pytest.approx(spec.lambda2, abs=1e-9), G.n


class TestRayleigh:
    def test_all_ones(self, fixture_graphs):
        G = fixture_graphs["petersen"]
        assert rayleigh_quotient(G, np.ones(G.n)) == pytest.approx(1.0)

    def test_k4_second_eigenvector(self):
        assert rayleigh_quotient(complete_graph(4), [3, -1, -1, -1]) == pytest.approx(
            -1 / 3
        )

    def test_bipartite_sign_vector(self, fixture_graphs):
        G = fixture_graphs["K33"]
        x = [1 if G.part_labels[v] == 0 else -1 for v in range(G.n)]
        assert rayleigh_quotient(G, x) == pytest.approx(-1.0)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            rayleigh_quotient(complete_graph(4), [0, 0, 0, 0])

    def test_bounded_by_lambda2(self, fixture_graphs):
        rng = np.random.default_rng(7)
        for G in fixture_graphs.values():
            if G.d == 0:
                continue
            lam2 = lambda2(G)
            for _ in range(200):
                x = rng.standard_normal(G.n)
                x -= x.mean()
                if np.linalg.norm(x) == 0:
                    continue
                assert rayleigh_quotient(G, x) <= lam2 + 1e-8


class TestCheeger:
    def test_k4(self):
        res = cheeger_check(complete_graph(4))
        assert res.lower == pytest.approx(2.0, abs=1e-9)
        assert res.h == pytest.approx(2.0)
        assert res.upper == pytest.approx(3 * math.sqrt(8 / 3), abs=1e-9)
        assert res.ok

    def test_c6(self):
        res = cheeger_check(cycle_graph(6))
        assert res.lower == pytest.approx(0.5, abs=1e-9)
        assert res.h == pytest.approx(2 / 3)
        assert res.upper == pytest.approx(2.0, abs=1e-9)
        assert res.ok

    def test_disconnected(self, fixture_graphs):
        res = cheeger_check(fixture_graphs["twin_triangles"])
        assert res.h == 0.0 and res.lower == pytest.approx(0.0) and res.ok

    def test_whole_fixture_suite(self, fixture_graphs):
        for name, G in fixture_graphs.items():
            if G.d == 0:
                continue
            assert cheeger_check(G).ok, name


class TestLiftSpectrum:
    def test_containment(self, fixture_graphs):
        # the lift's eigenvalue multiset contains the base graph's
        for name in ("C5", "K4", "tensor32", "prism"):
            G = fixture_graphs[name]
            L = two_lift(G, Signing.random(G, seed=21))
            base = list(full_spectrum(G).eigenvalues)
            lifted = list(full_spectrum(L).eigenvalues)
            for lam in base:
                match = min(range(len(lifted)), key=lambda i: abs(lifted[i] - lam))
                assert abs(lifted[match] - lam) < 1e-8
                lifted.pop(match)

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(("C5", "K4", "prism", "petersen", "tensor32")),
        data=st.data(),
    )
    def test_lift_is_base_union_signed(self, fixture_graphs, name, data):
        # Bilu-Linial: spec(two_lift(G, s)) = spec(A) U spec(A_s)
        G = fixture_graphs[name]
        signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=G.m, max_size=G.m))
        s = Signing(G.edges(), tuple(signs))
        lifted = sorted(full_spectrum(two_lift(G, s)).eigenvalues)
        union = sorted([
            *np.linalg.eigvalsh(normalized_adjacency(G)),
            *np.linalg.eigvalsh(normalized_adjacency(G, s.signs)),
        ])
        assert np.max(np.abs(np.array(lifted) - union)) < 1e-9


class TestOneBlasThread:
    @pytest.fixture
    def get(self):
        """The OpenBLAS thread count getter, with the count set to 2 meanwhile."""
        calls = spectral._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy is not linked to OpenBLAS")
        get, put = calls
        before = get()
        put(2)
        try:
            if get() != 2:
                pytest.skip("OpenBLAS would not take 2 threads")
            yield get
        finally:
            put(before)

    def test_restored_after_exit(self, get):
        with spectral._one_blas_thread():
            assert get() == 1
        assert get() == 2

    def test_restored_after_no_convergence(self, get, monkeypatch):
        monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 5)
        G = cycle_graph(spectral.LANCZOS_MIN_N + 1)
        with pytest.raises(NoConvergence):
            lambda2(G)
        assert get() == 2
        with pytest.raises(NoConvergence):
            with spectral._one_blas_thread():
                lambda2(G)
        assert get() == 2

    def test_nesting(self, get):
        with spectral._one_blas_thread():
            with spectral._one_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == 2

    def test_noop_without_openblas(self, get, monkeypatch):
        monkeypatch.setattr(spectral, "_openblas_thread_calls", lambda: None)
        with spectral._one_blas_thread():
            assert get() == 2

    def test_lookup_without_proc(self, monkeypatch):
        def no_proc(*args, **kwargs):
            raise FileNotFoundError("/proc/self/maps")

        monkeypatch.setattr(spectral, "open", no_proc, raising=False)
        assert spectral._openblas_thread_calls.__wrapped__() is None

    def test_same_values_without_scope(self, monkeypatch):
        G = random_regular_bipartite(1000, 25, seed=0)
        T = tensor_power(3, 2)

        def values():
            return lambda2(G), lambda_min(G), search_low_lambda_signing(T, restarts=5, seed=2)

        scoped = values()
        monkeypatch.setattr(spectral, "_one_blas_thread", contextlib.nullcontext)
        assert values() == scoped
