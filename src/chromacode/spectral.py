"""Normalized-adjacency spectra, Rayleigh quotients, and the Cheeger sandwich.

full_spectrum is the dense LAPACK solver (all eigenpairs plus a residual) up
to DENSE_CAP vertices; only the ``spectrum`` command needs it. lambda2 and
lambda_min read the dense eigenvalues alone up to LANCZOS_MIN_N vertices and
use sparse Lanczos (scipy's ARPACK eigsh) above that.
Disconnected graphs and 0-regular graphs report lambda2 = 1 by convention.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs
from .errors import NoConvergence, TooLarge, ZeroDegree, ZeroVector
from .graphs import RegularGraph

DENSE_CAP = 4096
LANCZOS_MIN_N = 256


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
        raise ZeroDegree("0-regular graph has no normalized adjacency")
    A = np.zeros((G.n, G.n))
    u, v = G.edge_arrays()
    w = 1.0 / G.d if signs is None else np.asarray(signs) / G.d
    A[u, v] = w
    A[v, u] = w
    return A


def is_connected(G: RegularGraph) -> bool:
    """Breadth-first search from vertex 0, one frontier array per level."""
    seen = np.zeros(G.n, dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        reached = G.adjacency[frontier].ravel()
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
    return bool(seen.all())


def full_spectrum(G: RegularGraph) -> Spectrum:
    """All n eigenvalues via the dense symmetric solver, plus the max residual
    |A x - lambda x|_inf over the reported eigenpairs."""
    if G.d == 0:
        raise ZeroDegree("use lambda2() for the d=0 convention")
    if G.n > DENSE_CAP:
        raise TooLarge(f"n={G.n} exceeds dense cap {DENSE_CAP}")
    A = normalized_adjacency(G)
    vals, vecs = np.linalg.eigh(A)
    vals = vals[::-1]
    # negative-stride views fall off the BLAS fast path in the matmul below
    vecs = np.ascontiguousarray(vecs[:, ::-1])
    residual = float(np.max(np.abs(A @ vecs - vecs * vals)))
    return Spectrum(tuple(float(x) for x in vals), residual)


def _extreme_eigenvalue(G: RegularGraph, which: str) -> float:
    """lambda2 (``which="LA"``) or lambda_min (``"SA"``) of a graph with d >= 1.

    Up to LANCZOS_MIN_N vertices the value is read off the dense eigenvalues
    (no eigenvectors); above it, ARPACK's implicitly restarted Lanczos runs on
    the sparse normalized adjacency from a start vector fixed by a constant
    seed, so the result depends only on G.
    """
    if G.n <= LANCZOS_MIN_N:
        vals = np.linalg.eigvalsh(normalized_adjacency(G))  # ascending
        return float(vals[-2] if which == "LA" else vals[0])
    # imported here, not at module level: scipy.sparse takes about 0.25 s to load
    # and graphs at or below the cutoff never need it
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    u, v = G.edge_arrays()
    A = csr_matrix(
        (np.full(2 * len(u), 1.0 / G.d), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(G.n, G.n),
    )
    v0 = np.random.default_rng(0xC0DE).standard_normal(G.n)
    try:
        # the two largest are 1 and lambda2; the smallest alone is lambda_min
        vals = eigsh(A, k=2 if which == "LA" else 1, which=which, v0=v0,
                     return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise NoConvergence(f"Lanczos ({which}) did not converge on n={G.n}") from exc
    return float(np.min(vals))


def lambda2(G: RegularGraph) -> float:
    """Second-largest normalized eigenvalue (with multiplicity).

    Returns exactly 1.0 for 0-regular or disconnected graphs.
    """
    if G.d == 0:
        return 1.0
    if not is_connected(G):
        return 1.0
    return _extreme_eigenvalue(G, "LA")


def lambda_min(G: RegularGraph) -> float:
    """Smallest normalized eigenvalue."""
    if G.d == 0:
        raise ZeroDegree("lambda_min undefined for 0-regular graphs")
    return _extreme_eigenvalue(G, "SA")


def rayleigh_quotient(G: RegularGraph, x) -> float:
    """<x, Ax> / <x, x> for the normalized adjacency."""
    if G.d == 0:
        raise ZeroDegree("Rayleigh quotient undefined for 0-regular graphs")
    vec = np.asarray(x, dtype=float)
    if vec.shape != (G.n,):
        raise ValueError(f"vector length {vec.shape} does not match n={G.n}")
    denom = float(vec @ vec)
    if denom == 0.0:
        raise ZeroVector("Rayleigh quotient of the zero vector")
    u, v = G.edge_arrays()
    num = 2.0 * float(vec[u] @ vec[v]) / G.d
    return num / denom


@dataclass(frozen=True)
class CheegerResult:
    lower: float
    h: float
    upper: float
    ok: bool


def cheeger_check(G: RegularGraph, tol: float = 1e-9) -> CheegerResult:
    """Exact h(G) against the spectral sandwich d(1-l2)/2 <= h <= d sqrt(2(1-l2))."""
    h, _ = graphs.edge_expansion_exact(G)
    lam2 = lambda2(G)
    gap = max(0.0, 1.0 - lam2)
    lower = G.d * gap / 2.0
    upper = G.d * (2.0 * gap) ** 0.5
    ok = (lower <= h + tol) and (h <= upper + tol)
    return CheegerResult(lower, h, upper, ok)
