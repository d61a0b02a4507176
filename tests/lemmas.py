"""The structural inequalities of regular graphs that the paper's regime
results rest on, computed from the package's primitives for criterion 9 and
the unit tests. Each check returns whether its inequality holds, so a test
can assert it and also feed it a wrong input on which it must fail."""
import math

import numpy as np

from chromacode.colorings import _all_perms, distance


def subset_counts(G, A):
    """(|A|, |E(A)|, |E(A, V - A)|) for a set A of vertex ids."""
    inside = np.zeros(G.n, dtype=bool)
    inside[list(A)] = True
    u, v = G.edge_arrays()
    inner, cross = (inside[u] & inside[v]).sum(), (inside[u] != inside[v]).sum()
    return int(inside.sum()), int(inner), int(cross)


def degree_conserved(G, A):
    """2 |E(A)| + |E(A, V - A)| = d |A|: every vertex of A has d edge ends."""
    size, inner, cross = subset_counts(G, A)
    return 2 * inner + cross == G.d * size


def size_bound_holds(G, A):
    """w(A) <= (1 + e(A)) / 2, in integers: 2 |A| m <= n (m + |E(A)|)."""
    size, inner, _ = subset_counts(G, A)
    return 2 * size * G.m <= G.n * (G.m + inner)


def rayleigh(G, x):
    """<x, A x> / <x, x> for the normalized adjacency A."""
    u, v = G.edge_arrays()
    return 2.0 * float(x[u] @ x[v]) / G.d / float(x @ x)


def edge_expansion(G):
    """Exact h(G) = min over 0 < |S| <= n/2 of |E(S, V - S)| / |S|, over every
    proper non-empty subset S (a set and its complement cut the same edges)."""
    S = (np.arange(1, 2**G.n - 1)[:, None] >> np.arange(G.n) & 1).astype(bool)
    size = S.sum(axis=1)
    u, v = G.edge_arrays()
    return float(((S[:, u] != S[:, v]).sum(axis=1) / np.minimum(size, G.n - size)).min())


def cheeger_holds(G, lam2):
    """d (1 - lambda2) / 2 <= h(G) <= d sqrt(2 (1 - lambda2)), each side with
    1e-9 slack for rounding."""
    gap, h = max(0.0, 1.0 - lam2), edge_expansion(G)
    return G.d * gap / 2 <= h + 1e-9 and h <= G.d * math.sqrt(2 * gap) + 1e-9


def overlap_cut_holds(X, Y, lam2):
    """On every overlap set V_sigma = {v : X(v) = sigma(Y(v))} of two colorings
    of a graph G, the spectral cut inequality e(V_sigma, V - V_sigma) >=
    2 (1 - lambda2)(w - w^2) with 1e-9 slack; the q shifts (sigma + i) mod q
    of each sigma tile V; and d(X, Y) = n (1 - max_sigma w(V_sigma))."""
    G = X.graph
    u, v = G.edge_arrays()
    sizes, ok = {}, True
    for sigma in _all_perms(X.q):
        inside = X.colors == sigma[Y.colors]
        w = inside.sum() / G.n
        ok &= (inside[u] != inside[v]).sum() / G.m >= 2 * (1 - lam2) * (w - w * w) - 1e-9
        sizes[tuple(sigma.tolist())] = int(inside.sum())
    ok &= all(sum(sizes[tuple((c + i) % X.q for c in s)] for i in range(X.q)) == G.n
              for s in sizes)
    return bool(ok) and distance(X, Y)[0] == G.n - max(sizes.values())
