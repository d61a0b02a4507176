"""Normalized-adjacency spectra: every eigenvalue densely, or lambda2 alone.

full_spectrum is the dense LAPACK solver (all eigenpairs plus a residual) up
to DENSE_CAP vertices; only the ``spectrum`` command needs it, and its
``Spectrum.lambda_min`` is the one smallest eigenvalue the package reports.
lambda2, the one eigenvalue the paper's expansion condition reads, comes from
the dense eigenvalues alone up to LANCZOS_MIN_N vertices and above that from
a numpy Lanczos iteration whose only access to the graph is products with
neighbor arrays, so it needs nothing beyond numpy. On a graph with part
labels (bipartite, with biadjacency B) it runs on the half-size operator
B B^T / d^2 over part 0 and returns the square root of its top eigenvalue
theta, stopping once that operator's residual is at most
LANCZOS_TOL * sqrt(2 theta): the residual of the matching eigenpair of A,
so the error bound is the one of the unlabelled path. Disconnected graphs and
0-regular graphs report lambda2 = 1 by convention.
None of this work sets a BLAS thread count: ``import chromacode`` defaults
OPENBLAS_NUM_THREADS to 1 for the whole process, since on these small dense
solves and O(n) products a second thread only costs CPU time. Set the
variable before the import to run them on OpenBLAS's pool.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, PreconditionFail, TooLarge
from .graphs import RegularGraph

DENSE_CAP = 4096
LANCZOS_MIN_N = 256
LANCZOS_TOL = 1e-10  # residual bound on the returned Ritz value
LANCZOS_BASIS = 32  # Lanczos vectors held at once
LANCZOS_KEEP = 16  # Ritz vectors kept across a thick restart
LANCZOS_CHECK = 16  # steps between convergence checks
LANCZOS_MAX_STEPS = 50_000  # matrix-vector products before NoConvergence


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of the normalized adjacency, descending, with the residual."""

    eigenvalues: tuple[float, ...]
    residual: float

    @property
    def lambda2(self) -> float:
        return self.eigenvalues[1]

    @property
    def lambda_min(self) -> float:
        return self.eigenvalues[-1]


def normalized_adjacency(G: RegularGraph, signs=None) -> np.ndarray:
    """Dense normalized adjacency: 1/d on edges, 0 elsewhere.

    With ``signs`` (+1/-1 per edge, in canonical edge order) it is the signed
    matrix A_s instead: sign/d on each edge.
    """
    if G.d == 0:
        raise PreconditionFail("0-regular graph has no normalized adjacency")
    A = np.zeros((G.n, G.n))
    u, v = G.edge_arrays()
    w = 1.0 / G.d if signs is None else np.asarray(signs) / G.d
    A[u, v] = w
    A[v, u] = w
    return A


def is_connected(G: RegularGraph) -> bool:
    """Breadth-first search from vertex 0, one frontier array per level."""
    seen = np.zeros(G.n, dtype=bool)
    reached = np.zeros(G.n, dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        reached[G.adjacency[frontier]] = True
        frontier = np.flatnonzero(reached & ~seen)
        seen[frontier] = True
    return bool(seen.all())


def full_spectrum(G: RegularGraph) -> Spectrum:
    """All n eigenvalues via the dense symmetric solver, plus the max residual
    |A x - lambda x|_inf over the reported eigenpairs."""
    if G.d == 0:
        raise PreconditionFail("use lambda2() for the d=0 convention")
    if G.n > DENSE_CAP:
        raise TooLarge(f"n={G.n} exceeds dense cap {DENSE_CAP}")
    A = normalized_adjacency(G)
    vals, vecs = np.linalg.eigh(A)
    vals = vals[::-1]
    # negative-stride views fall off the BLAS fast path in the matmul below
    vecs = np.ascontiguousarray(vecs[:, ::-1])
    residual = float(np.max(np.abs(A @ vecs - vecs * vals)))
    return Spectrum(tuple(float(x) for x in vals), residual)


def _neighbor_sum(v: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Sum of v over each vertex's neighbors, given the (d, n) neighbor rows.

    Reducing the gathered rows along axis 0 adds them one row after another,
    so the bits equal those of a loop over the rows.
    """
    return np.add.reduce(v[columns], axis=0)


def lambda2(G: RegularGraph) -> float:
    """Second-largest normalized eigenvalue (with multiplicity).

    Returns exactly 1.0 for 0-regular or disconnected graphs. Up to
    LANCZOS_MIN_N vertices the value is read off the dense eigenvalues (no
    eigenvectors). Above it, ``_lanczos_top`` finds the top eigenvalue of an
    operator on the complement of the all-ones vector from its products alone.

    An unlabelled graph runs it on A x = (sum of x over each vertex's
    neighbors) / d, whose top eigenvalue there is lambda2 itself, and stops
    once the Ritz residual |A y - theta y| is at most LANCZOS_TOL, which by
    Bauer-Fike also bounds the error of theta.

    A graph with part labels is bipartite (``build_from_edges`` checked that
    every edge crosses), so with B the part-0 x part-1 biadjacency matrix its
    spectrum is +-sigma_i(B)/d (Golub and Kahan 1965). The iteration then
    runs on M = B B^T / d^2 over part 0, two neighbor sums through part-local
    neighbor arrays, and lambda2 = sqrt(theta) for M's top eigenvalue theta
    on 1^perp. A unit Ritz pair (theta, y) of M gives the unit vector
    u = (y, B^T y / (d sqrt(theta))) / sqrt(2) with |A u - sqrt(theta) u| =
    |M y - theta y| / sqrt(2 theta), so stopping once M's residual is at most
    LANCZOS_TOL * sqrt(2 theta) gives the same Bauer-Fike bound on lambda2.
    The vectors are half as long, -1 leaves the spectrum and squaring widens
    lambda2's gap against the spread, so the iteration also needs about half
    the steps.
    """
    if G.d == 0 or not is_connected(G):
        return 1.0
    if G.n <= LANCZOS_MIN_N:
        return float(np.linalg.eigvalsh(normalized_adjacency(G))[-2])  # ascending
    if G.part_labels is None:
        columns = np.ascontiguousarray(G.adjacency.T)  # row i: the i-th neighbor of every vertex

        def adjacency(v):
            w = _neighbor_sum(v, columns)
            w *= 1.0 / G.d
            return w

        return _lanczos_top(adjacency, G.n, G.n, lambda theta: LANCZOS_TOL)
    # both parts hold n/2 vertices of a connected d-regular bipartite graph;
    # local[v] is v's index within its part, and row i of each array is the
    # part-local i-th neighbor of every vertex of that part
    left, right = G.parts
    local = np.empty(G.n, dtype=np.int64)
    local[left] = local[right] = np.arange(G.n // 2)
    down = np.ascontiguousarray(local[G.adjacency[left]].T)
    up = np.ascontiguousarray(local[G.adjacency[right]].T)
    scale = 1.0 / (G.d * G.d)

    def square(y):  # B B^T y / d^2
        w = _neighbor_sum(_neighbor_sum(y, up), down)
        w *= scale
        return w

    theta = _lanczos_top(square, G.n // 2, G.n,
                         lambda theta: LANCZOS_TOL * math.sqrt(2.0 * max(theta, 0.0)))
    return math.sqrt(max(theta, 0.0))


def _lanczos_top(apply, size: int, n: int, tol) -> float:
    """Top eigenvalue, with multiplicity, of a symmetric operator on the
    complement of the all-ones vector of length ``size``.

    ``apply(v)`` returns the product of the operator with v as a new array;
    the operator must map the all-ones vector to a multiple of itself.
    Thick-restart Lanczos with full reorthogonalization (Paige 1972; Wu and
    Simon 2000): every vector is projected onto 1^perp. Every LANCZOS_CHECK
    steps, and whenever the LANCZOS_BASIS rows are full, the top eigenpair
    (theta, s) of the projected matrix T is taken; theta is returned once the
    residual beta_j |s_j| is at most ``tol(theta)``, or at once on a
    breakdown (an invariant subspace). A full basis keeps its top
    LANCZOS_KEEP Ritz vectors, T becomes their Ritz values bordered by their
    residual couplings, and the iteration goes on from the residual
    direction, so small spectral gaps (long cycles) still converge.
    LANCZOS_MAX_STEPS products without convergence raise NoConvergence
    naming the graph's n and the last residual. The start vector comes from a
    constant seed, so the result depends only on the operator.
    """
    m, k = LANCZOS_BASIS, LANCZOS_KEEP
    V = np.empty((m, size))
    T = np.zeros((m, m))
    x = np.random.default_rng(0xC0DE).standard_normal(size)
    x -= x.mean()
    V[0] = x / np.linalg.norm(x)
    j = steps = 0
    while True:
        v = V[j]
        w = apply(v)
        w -= np.add.reduce(w) / size  # w.mean() without its wrapper
        steps += 1
        T[j, j] = v @ w
        basis = V[: j + 1]
        for _ in range(2):  # classical Gram-Schmidt, twice
            w -= (basis @ w) @ basis
        b = math.sqrt(w @ w)  # np.linalg.norm(w) without its wrapper
        full = j + 1 == m
        if b <= LANCZOS_TOL or full or steps % LANCZOS_CHECK == 0 \
                or steps >= LANCZOS_MAX_STEPS:
            theta, S = np.linalg.eigh(T[: j + 1, : j + 1])
            residual = b * abs(S[-1, -1])
            if b <= LANCZOS_TOL or residual <= tol(theta[-1]):
                return float(theta[-1])
            if steps >= LANCZOS_MAX_STEPS:
                raise NoConvergence(
                    f"Lanczos did not converge on n={n} after "
                    f"{steps} steps (residual {residual:.3g})"
                )
            if full:  # thick restart (Wu-Simon) from the top k Ritz pairs
                for c in range(0, size, 4096):  # in place, no k x size temporary
                    V[:k, c : c + 4096] = S[:, -k:].T @ V[:, c : c + 4096]
                T[:] = 0.0
                T[:k, :k] = np.diag(theta[-k:])
                T[k, :k] = T[:k, k] = b * S[-1, -k:]
                np.divide(w, b, out=V[k])
                j = k
                continue
        T[j, j + 1] = T[j + 1, j] = b
        np.divide(w, b, out=V[j + 1])
        j += 1
