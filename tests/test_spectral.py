import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromacode import graphs, spectral
from chromacode.errors import NoConvergence, PreconditionFail, TooLarge
from chromacode.graphs import (
    build_from_edges,
    complete_graph,
    cycle_graph,
    random_regular_bipartite,
    tensor_power,
    two_lift,
)
from chromacode.spectral import full_spectrum, lambda2, normalized_adjacency
from lemmas import cheeger_holds, rayleigh


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
        with pytest.raises(PreconditionFail, match="d=0 convention"):
            full_spectrum(build_from_edges(3, []))

    def test_too_large(self):
        with pytest.raises(TooLarge):
            full_spectrum(cycle_graph(spectral.DENSE_CAP + 1))


def labelled_cycle(n):
    """C_n for even n, with the part labels that make lambda2 run on B B^T / d^2."""
    return build_from_edges(n, [(i, (i + 1) % n) for i in range(n)],
                            part_labels=[i % 2 for i in range(n)])


def matching_complement(h):
    """K_{h,h} minus a perfect matching, labelled: lambda2 = 1/(h-1), h-1 times."""
    edges = [(i, h + j) for i in range(h) for j in range(h) if i != j]
    return build_from_edges(2 * h, edges, part_labels=[0] * h + [1] * h)


def assert_same_as_unlabelled(G, lam, digits=True):
    """lambda2 of the same edges without part labels, on the general operator,
    agrees to 1e-12 (and, with ``digits``, in its .10g string)."""
    plain = lambda2(build_from_edges(G.n, G.edges()))
    assert abs(lam - plain) <= 1e-12, (G.n, lam, plain)
    if digits:
        assert f"{lam:.10g}" == f"{plain:.10g}"


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
        # above the cutoff the value comes from Lanczos
        G = random_regular_bipartite(half, d, seed)
        spec = full_spectrum(G)
        lam = lambda2(G)
        assert lam == pytest.approx(spec.lambda2, abs=1e-9)
        assert lam == lambda2(G)
        # a .10g string may straddle a rounding boundary on a drawn graph
        assert_same_as_unlabelled(G, lam, digits=False)

    def test_non_bipartite_above_cutoff(self):
        for G in (complete_graph(400), tensor_power(3, 6), cycle_graph(301)):
            assert G.n > spectral.LANCZOS_MIN_N
            spec = full_spectrum(G)
            assert lambda2(G) == pytest.approx(spec.lambda2, abs=1e-9), G.n

    def test_disconnected_above_cutoff(self):
        # C201 + C203: the iteration never runs on a disconnected graph
        edges = [(i, (i + 1) % 201) for i in range(201)]
        edges += [(201 + i, 201 + (i + 1) % 203) for i in range(203)]
        two = build_from_edges(404, edges)
        assert two.n > spectral.LANCZOS_MIN_N
        assert lambda2(two) == 1.0
        # C202 + C204 with part labels: the bipartite operator never runs either
        edges = [(i, (i + 1) % 202) for i in range(202)]
        edges += [(202 + i, 202 + (i + 1) % 204) for i in range(204)]
        labelled = build_from_edges(406, edges, part_labels=[i % 2 for i in range(406)])
        assert lambda2(labelled) == 1.0

    def test_no_convergence(self, monkeypatch):
        monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 5)
        n = spectral.LANCZOS_MIN_N + 1
        with pytest.raises(NoConvergence, match=rf"n={n} after 5 steps"):
            lambda2(cycle_graph(n))
        # the bipartite operator runs on n/2 entries but names the graph's n
        with pytest.raises(NoConvergence, match=rf"n={n + 1} after 5 steps"):
            lambda2(labelled_cycle(n + 1))

    @pytest.mark.parametrize("n", [1001, 2001, 3001, 1002, 3002])
    def test_restarted_cycle(self, n):
        # a gap of order 1/n^2: one basis is not enough, so the solver has to
        # restart, and C3001 needs about 4,000 steps (a restart from the top
        # Ritz vector alone hit the step cap there); the even cycles carry
        # part labels, so they restart on the squared operator
        G = cycle_graph(n) if n % 2 else labelled_cycle(n)
        lam = lambda2(G)
        assert lam == pytest.approx(math.cos(2 * math.pi / n), abs=1e-9)
        if G.part_labels is not None:
            assert_same_as_unlabelled(G, lam)

    def test_matching_complement(self):
        # B B^T / d^2 is 1/(h-1)^2 times the identity on 1^perp: the iteration
        # breaks down after one step
        h = 130
        G = matching_complement(h)
        assert G.n > spectral.LANCZOS_MIN_N
        lam = lambda2(G)
        assert lam == pytest.approx(1 / (h - 1), abs=1e-9)
        assert_same_as_unlabelled(G, lam)

    def test_no_scipy_import(self):
        # the sparse path runs on numpy alone; loading scipy.sparse.linalg costs
        # about 0.3 s and 19 MB of peak RSS
        src = str(Path(spectral.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "from chromacode.graphs import random_regular_bipartite\n"
            "from chromacode.spectral import lambda2\n"
            "G = random_regular_bipartite(1000, 4, seed=0)\n"
            "assert G.n > 256 and lambda2(G) < 1\n"
            "assert 'scipy' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestLambdaMin:
    """``Spectrum.lambda_min``, the smallest eigenvalue ``spectrum`` reports."""

    def test_k4(self):
        assert full_spectrum(complete_graph(4)).lambda_min == pytest.approx(-1 / 3, abs=1e-9)

    def test_bipartite_is_minus_one(self, fixture_graphs):
        assert full_spectrum(fixture_graphs["K33"]).lambda_min == pytest.approx(-1.0, abs=1e-9)

    def test_c5_circulant(self):
        assert full_spectrum(cycle_graph(5)).lambda_min == pytest.approx(
            math.cos(4 * math.pi / 5), abs=1e-9
        )


class TestRayleigh:
    def test_all_ones(self, fixture_graphs):
        G = fixture_graphs["petersen"]
        assert rayleigh(G, np.ones(G.n)) == pytest.approx(1.0)

    def test_k4_second_eigenvector(self):
        assert rayleigh(complete_graph(4), np.array([3, -1, -1, -1])) == pytest.approx(-1 / 3)

    def test_bipartite_sign_vector(self, fixture_graphs):
        G = fixture_graphs["K33"]
        assert rayleigh(G, 1 - 2 * G.part_labels) == pytest.approx(-1.0)

    def test_bounded_by_lambda2(self, fixture_graphs):
        rng = np.random.default_rng(7)
        for G in fixture_graphs.values():
            lam2 = lambda2(G)
            for _ in range(200):
                x = rng.standard_normal(G.n)
                x -= x.mean()
                assert rayleigh(G, x) <= lam2 + 1e-8


class TestCheeger:
    def test_k4(self):
        # h = 2 between d (1 - lambda2) / 2 = 2 and d sqrt(2 (1 - lambda2)) = sqrt(24)
        assert cheeger_holds(complete_graph(4), -1 / 3)

    def test_c6(self):
        assert cheeger_holds(cycle_graph(6), 0.5)  # 1/2 <= 2/3 <= 2

    def test_disconnected(self, fixture_graphs):
        assert cheeger_holds(fixture_graphs["twin_triangles"], 1.0)  # 0 <= 0 <= 0

    def test_whole_fixture_suite(self, fixture_graphs):
        for name, G in fixture_graphs.items():
            assert cheeger_holds(G, lambda2(G)), name


class TestLiftSpectrum:
    def test_containment(self, fixture_graphs):
        # the lift's eigenvalue multiset contains the base graph's
        for name in ("C5", "K4", "tensor32", "prism"):
            G = fixture_graphs[name]
            L = two_lift(G, np.random.default_rng(21).choice((-1, 1), size=G.m))
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
        s = np.array(signs)
        lifted = sorted(full_spectrum(two_lift(G, s)).eigenvalues)
        union = sorted([
            *np.linalg.eigvalsh(normalized_adjacency(G)),
            *np.linalg.eigvalsh(normalized_adjacency(G, s)),
        ])
        assert np.max(np.abs(np.array(lifted) - union)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_flip_bounds(self, fixture_graphs, data):
        # the signing search's two lower bounds on the top eigenvalue of A_s with
        # edge e flipped: the 2x2 compression onto A_s's top two eigenvectors
        # (graphs._flip_bounds), and theta2(A_s) by interlacing
        connected = [G for G in fixture_graphs.values() if G.d >= 2 and spectral.is_connected(G)]
        G = data.draw(st.one_of(
            st.sampled_from(connected),
            st.builds(random_regular_bipartite, st.integers(3, 12), st.integers(2, 3),
                      st.integers(0, 2**16)).filter(spectral.is_connected),
        ))
        s = np.array(data.draw(st.lists(st.sampled_from((-1, 1)), min_size=G.m, max_size=G.m)))
        A = normalized_adjacency(G, s)
        u, v = G.edge_arrays()
        bounds = graphs._flip_bounds(A[None], u, v)[0]
        theta2 = np.linalg.eigvalsh(A)[-2]
        for e in range(G.m):
            flipped = A.copy()
            flipped[u[e], v[e]] = flipped[v[e], u[e]] = -A[u[e], v[e]]
            top = np.linalg.eigvalsh(flipped)[-1]
            assert bounds[e] <= top + 1e-12
            assert top >= theta2 - 1e-12
            assert bounds[e] >= theta2 - 1e-12


# prints the thread count of the OpenBLAS the process loaded, or None
OPENBLAS_THREADS = """
import ctypes, json, os

def openblas_threads():
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None
"""

# the results the thread count could move, as text: lambda2 through the
# bipartite Lanczos, the signing search's 9-decimal ties, a product OpenBLAS
# may thread ((3 * 200)^2 * 12 multiply-adds) and the README sweep's CSV
SAME_BITS = """
import contextlib, io, json, sys
import numpy as np
from chromacode import cli, colorings
from chromacode.graphs import random_regular_bipartite, search_low_lambda_signing, tensor_power
from chromacode.spectral import lambda2

signs, lam = search_low_lambda_signing(tensor_power(3, 2), restarts=5, seed=2)
rows = np.random.default_rng(0).integers(0, 3, size=(200, 12))
out = {
    "threads": openblas_threads(),
    "lambda2": repr(lambda2(random_regular_bipartite(1000, 25, seed=0))),
    "signing": [signs.tolist(), repr(lam)],
    "distances": colorings._distance_matrix(rows, 3).tolist(),
    "csv": [],
}
for config in sys.argv[1:]:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert cli.main(["regime-map", "--config", config]) == 0
    out["csv"].append(text.getvalue())
print(json.dumps(out))
"""


def run_fresh(code: str, threads: str | None, *args) -> dict:
    """Run ``code`` after OPENBLAS_THREADS in a new interpreter, with
    OPENBLAS_NUM_THREADS set to ``threads`` (None: unset), and read the JSON
    object it prints. Inside pytest numpy is already loaded, so the thread
    default of ``import chromacode`` shows only in a fresh process."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(spectral.__file__).resolve().parents[1])
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", OPENBLAS_THREADS + code, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportThreadDefault:
    """``import chromacode`` defaults OPENBLAS_NUM_THREADS to 1 before numpy loads."""

    IMPORT = (
        "import chromacode, numpy\n"
        "print(json.dumps([os.environ['OPENBLAS_NUM_THREADS'], openblas_threads()]))\n"
    )

    def test_unset_gives_one_thread(self):
        env_value, threads = run_fresh(self.IMPORT, None)
        assert env_value == "1"
        if threads is None:
            pytest.skip("numpy is not linked to OpenBLAS")
        assert threads == 1

    def test_caller_value_kept(self):
        env_value, threads = run_fresh(self.IMPORT, "2")
        assert env_value == "2"
        if threads is None:
            pytest.skip("numpy is not linked to OpenBLAS")
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("OpenBLAS runs at most one thread per CPU")
        assert threads == 2

    def test_same_bits_on_one_and_two_threads(self, tmp_path):
        raw = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "regime_map.json")
                         .read_text())
        configs = []
        for seed in (3, 7, 11):
            configs.append(tmp_path / f"readme_seed{seed}.json")
            configs[-1].write_text(json.dumps({**raw, "seed": seed}))
        one = run_fresh(SAME_BITS, "1", *configs)
        two = run_fresh(SAME_BITS, "2", *configs)
        assert one.pop("threads") in (1, None)
        if two.pop("threads") != 2:
            pytest.skip("OpenBLAS would not run two threads")
        assert one == two
        assert len(one["csv"]) == 3 and all(csv.count("\n") == 10 for csv in one["csv"])


def test_import_empties_the_young_generations():
    # so the first command after the import does not walk the import's objects
    assert run_fresh("import chromacode, gc\nprint(json.dumps(gc.get_count()[1]))\n", None) == 0


def reference_is_connected(G) -> bool:
    """Plain-Python breadth-first search from vertex 0."""
    adjacency = G.adjacency.tolist()
    seen = {0}
    queue = [0]
    for v in queue:
        for u in adjacency[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == G.n


@st.composite
def regular_unions(draw):
    """Disjoint unions of 1-3 random d-regular bipartite graphs (d = 0 gives
    isolated vertices), with the vertex ids shuffled."""
    d = draw(st.integers(0, 3))
    halves = draw(st.lists(st.integers(max(d, 1), 6), min_size=1, max_size=3))
    edges, n = [], 0
    for k, half in enumerate(halves):
        part = random_regular_bipartite(half, d, seed=(draw(st.integers(0, 99)), k))
        edges += [(u + n, v + n) for u, v in part.edges()]
        n += part.n
    relabel = draw(st.permutations(range(n)))
    return build_from_edges(n, [(relabel[u], relabel[v]) for u, v in edges])


class TestIsConnected:
    @settings(max_examples=80, deadline=None)
    @given(regular_unions())
    def test_matches_python_bfs(self, G):
        assert spectral.is_connected(G) == reference_is_connected(G)

    @pytest.mark.parametrize(
        "G,want",
        [(build_from_edges(1, []), True), (build_from_edges(3, []), False),
         (cycle_graph(7), True), (build_from_edges(6, [(0, 1), (1, 2), (0, 2),
                                                       (3, 4), (4, 5), (3, 5)]), False)],
        ids=["n1", "three-isolated", "C7", "two-triangles"],
    )
    def test_examples(self, G, want):
        assert spectral.is_connected(G) is want
