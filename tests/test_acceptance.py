"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from chromacode import colorings as col
from chromacode.codes import exact_max_packing
from chromacode.colorings import (
    coordinate_colorings,
    enumerate_proper,
    layered_bipartite_pair,
    lift_coloring,
    sample_bipartite_biased,
    sample_gadget_coloring,
)
from chromacode.graphs import (
    Signing,
    complete_graph,
    cycle_graph,
    gadget_expand,
    random_regular_bipartite,
    subset_measures,
    tensor_power,
    two_lift,
)
from chromacode.regimes import (
    COUNTEREXAMPLE,
    SweepConfig,
    SweepFamily,
    independent_size_bound,
    regime_map_sweep,
    sigma_profile,
    unique_regime_certificate,
)
from chromacode.spectral import cheeger_check, full_spectrum, lambda2, rayleigh_quotient


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_spectral_exactness():
    t0 = time.monotonic()
    ok = True
    vals = {}
    for N in (2, 3):
        lam = lambda2(tensor_power(3, N))
        vals[f"tensor(3,{N})"] = lam
        ok &= abs(lam - 0.25) <= 1e-9
    for q in range(3, 7):
        lam = lambda2(complete_graph(q))
        vals[f"K{q}"] = lam
        ok &= abs(lam - (-1 / (q - 1))) <= 1e-9
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    report(1, ok, f"lambda2 values {vals}, {elapsed:.2f}s")


def test_criterion_2_distance_formulas():
    t0 = time.monotonic()
    ok = True
    details = []
    for q in (3, 4):
        for N in (2, 3):
            X = coordinate_colorings(q, N)
            d, _ = col.distance(X[0], X[1])
            want = (q - 1) * q ** (N - 1)
            ok &= d == want
            details.append(f"coord q={q} N={N}: {d}={want}")
    for q in (3, 4, 5):
        G = random_regular_bipartite((q - 1) * 5, 3, seed=(20, q))
        X, Y = layered_bipartite_pair(G, q)
        d, _ = col.distance(X, Y)
        want = G.n - G.n // (q - 1)  # (1 - 1/(q-1)) |V|
        ok &= d == want
        details.append(f"layered q={q}: {d}={want}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    report(2, ok, f"{'; '.join(details)}, {elapsed:.2f}s")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(303)
    mismatches = 0
    total = 0
    for q in (3, 4, 5, 6):
        G = random_regular_bipartite(30, 4, seed=(30, q))
        for trial in range(1000):
            tau = float(rng.random() * 0.6)
            X = sample_bipartite_biased(G, q, tau, seed=(31, q, trial, 0))
            Y = sample_bipartite_biased(G, q, tau, seed=(31, q, trial, 1))
            X = X.relabeled(tuple(rng.permutation(q).tolist()))
            Y = Y.relabeled(tuple(rng.permutation(q).tolist()))
            M = col.agreement_matrix(X, Y)
            db, _ = col._brute_max(M)
            da, _ = col._assignment_max(M)
            total += 1
            if db != da:
                mismatches += 1
    report(3, mismatches == 0, f"{total} pairs, {mismatches} mismatches")


def test_criterion_4_gadget_construction():
    G = gadget_expand(complete_graph(4))
    lam = lambda2(G)
    ok = (G.n, G.d) == (40, 3) and lam <= 1 - 1e-4
    violations = 0
    for seed in range(10_000):
        X = sample_gadget_coloring(G, 3, seed)
        if not col.is_proper(G, X)[0]:
            violations += 1
    ok &= violations == 0
    report(4, ok, f"n={G.n} d={G.d} lambda2={lam:.6f}, {violations} improper / 10^4 seeds")


def test_criterion_5_lift_invariants():
    T = tensor_power(3, 2)
    base_spec = full_spectrum(T).eigenvalues
    coords = coordinate_colorings(3, 2, T)
    ok = True
    for trial in range(20):
        L = two_lift(T, Signing.random(T, seed=(500, trial)))
        ok &= (L.n, L.d) == (18, 4)
        lifted_spec = list(full_spectrum(L).eigenvalues)
        for lam in base_spec:
            idx = min(range(len(lifted_spec)), key=lambda i: abs(lifted_spec[i] - lam))
            ok &= abs(lifted_spec[idx] - lam) < 1e-8
            lifted_spec.pop(idx)
        LX = [lift_coloring(X, L) for X in coords]
        for A, B in combinations(LX, 2):
            ok &= col.distance(A, B)[0] == 12
    report(5, ok, "20 signings: 4-regular on 18, containment 1e-8, lifted distance 12")


def test_criterion_6_exact_f_oracle():
    t0 = time.monotonic()
    c5_colorings = enumerate_proper(cycle_graph(5), 3)
    k3_colorings = enumerate_proper(complete_graph(3), 3)
    # chromatic polynomial cross-checks: (q-1)^n + (-1)^n (q-1), and q! on K_q
    ok = len(c5_colorings) == 2**5 - 2 == 30
    ok &= len(k3_colorings) == 6
    size_c5, _ = exact_max_packing(cycle_graph(5), 3, Fraction(1, 5))
    size_k3, _ = exact_max_packing(complete_graph(3), 3, Fraction(1, 3))
    ok &= size_c5 == 5 and size_k3 == 1
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    report(6, ok, f"f(C5,1/5)={size_c5}, f(K3,1/3)={size_k3}, {elapsed:.2f}s")


def test_criterion_7_certificate_boundary():
    certified = unique_regime_certificate(3, Fraction(2, 3), Fraction(1, 4) - Fraction(1, 100))
    boundary = unique_regime_certificate(3, Fraction(2, 3), Fraction(1, 4))
    low_delta = unique_regime_certificate(3, Fraction(1, 2), Fraction(1, 100))
    ok = certified.certified and not boundary.certified and not low_delta.certified
    config = SweepConfig(
        q=3,
        delta_grid=(Fraction(1, 2),),
        lambda_grid=(Fraction(2, 5),),
        families=(SweepFamily("layered-pair", {"d": 25, "m": 500}),),
        seed=7,
    )
    (row,) = list(regime_map_sweep(config))
    lam2 = row.evidence.get("lambda2", 1.0)
    ok &= row.classification == COUNTEREXAMPLE
    ok &= lam2 <= 0.4
    ok &= row.evidence.get("min_dist") == 1000 and row.evidence.get("n") == 2000
    report(
        7,
        ok,
        f"certified at 1/4-1/100: {certified.certified}; at 1/4: {boundary.certified}; "
        f"at (1/2,1/100): {low_delta.certified}; sweep: {row.classification} "
        f"lambda2={lam2:.4f} min_dist={row.evidence.get('min_dist')}",
    )


def test_criterion_8_sampler_concentration():
    t0 = time.monotonic()
    q, d = 3, 4
    tau = 1.0 / (8 * d * d)
    G = random_regular_bipartite(2000, d, seed=800)
    n = G.n
    dists = []
    for i in range(200):
        X = sample_bipartite_biased(G, q, tau, seed=(801, i, 0))
        Y = sample_bipartite_biased(G, q, tau, seed=(801, i, 1))
        dists.append(col.distance(X, Y)[0])
    dists = np.array(dists)
    frac = float((dists >= n / 4).mean())
    mean = float(dists.mean())
    mean_floor = (0.25 + 1.0 / (64 * d * d)) * n
    elapsed = time.monotonic() - t0
    quantile_ok = frac >= 0.95
    mean_ok = mean > mean_floor
    ok = quantile_ok and mean_ok and elapsed < 120.0
    report(
        8,
        ok,
        f"{frac:.1%} of pairs >= {n // 4} (need >=95%), mean {mean:.1f} "
        f"(need > {mean_floor:.2f}), {elapsed:.1f}s",
    )


def test_criterion_9_structural_inequalities(fixture_graphs):
    rng = np.random.default_rng(909)
    checks = 0
    ok = True
    pair_sources = {
        "triangle": 3, "K4": 4, "K5": 5, "K33": 3, "C5": 3, "C6": 3, "C7": 3,
        "prism": 3, "petersen": 3, "tensor32": 3, "twin_triangles": 3,
    }
    for name, G in fixture_graphs.items():
        lam2 = lambda2(G)
        # Rayleigh quotients of mean-free vectors never exceed lambda2
        for _ in range(1000):
            x = rng.standard_normal(G.n)
            x -= x.mean()
            ok &= rayleigh_quotient(G, x) <= lam2 + 1e-8
            checks += 1
        # degree conservation and the independent-size bound on random subsets
        for _ in range(100):
            size = int(rng.integers(0, G.n + 1))
            A = list(rng.choice(G.n, size=size, replace=False))
            comp = [v for v in range(G.n) if v not in set(A)]
            meas = subset_measures(G, A, comp)
            ok &= 2 * meas.inner_edges + meas.cross_edges == G.d * meas.size
            checks += 1
        for _ in range(1000):
            size = int(rng.integers(0, G.n + 1))
            A = rng.choice(G.n, size=size, replace=False)
            ok &= independent_size_bound(G, A)[2]
            checks += 1
        ok &= cheeger_check(G).ok
        checks += 1
        # sigma-profile inequality on sampled proper pairs
        if name == "rb16":
            pairs = [
                (
                    sample_bipartite_biased(G, 3, 0.2, seed=(910, t, 0)),
                    sample_bipartite_biased(G, 3, 0.2, seed=(910, t, 1)),
                )
                for t in range(3)
            ]
        else:
            q = pair_sources[name]
            cols = enumerate_proper(G, q)
            idx = rng.integers(0, len(cols), size=(3, 2))
            pairs = [(cols[i], cols[j]) for i, j in idx]
        for X, Y in pairs:
            prof = sigma_profile(G, X, Y, lam=lam2)  # raises on violation
            checks += 2 * len(prof.sigmas) + 2
    ok &= checks >= 10_000
    report(9, ok, f"{checks} assertions over {len(fixture_graphs)} graphs, all held")


def test_criterion_10_monotonicity(fixture_graphs):
    cases = {
        "C5": cycle_graph(5),
        "C7": cycle_graph(7),
        "prism": fixture_graphs["prism"],
    }
    violations = 0
    detail = []
    for name, G in cases.items():
        deltas = [Fraction(k, G.n) for k in range(G.n + 1) if Fraction(k, G.n) < Fraction(2, 3)]
        deltas.append(Fraction(2, 3))
        sizes = [exact_max_packing(G, 3, delta)[0] for delta in deltas]
        for a, b in zip(sizes, sizes[1:]):
            if b > a:
                violations += 1
        detail.append(f"{name}: {sizes}")
    report(10, violations == 0, f"{'; '.join(detail)}; {violations} violations")
