"""Normalized-adjacency spectra, Rayleigh quotients, and the Cheeger sandwich.

full_spectrum is the dense LAPACK solver (all eigenpairs plus a residual) up
to DENSE_CAP vertices; only the ``spectrum`` command needs it. lambda2 and
lambda_min read the dense eigenvalues alone up to LANCZOS_MIN_N vertices and
above that run a numpy Lanczos iteration whose only access to the graph is
the product with the neighbor array, so it needs nothing beyond numpy.
Disconnected graphs and 0-regular graphs report lambda2 = 1 by convention.
The small dense solves (the eigenvalues up to LANCZOS_MIN_N, the projected
Lanczos eigenproblem and the thick-restart rotation) run on one OpenBLAS
thread: on them a second thread only costs CPU time.
"""
from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import graphs
from .errors import NoConvergence, TooLarge, ZeroDegree, ZeroVector
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


@functools.cache
def _openblas_thread_calls():
    """The (get, set) thread-count functions of the OpenBLAS numpy loaded, or
    None when there is none (MKL, Accelerate, no /proc)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    # numpy's own build first: scipy's wheel ships a 32-bit-int OpenBLAS too
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
        for lib in libs:
            try:
                handle = ctypes.CDLL(lib)
            except OSError:
                continue
            get = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread and put the previous count back.

    Does nothing without OpenBLAS, or when the count already is 1 (so an
    inner scope leaves an outer one alone).
    """
    calls = _openblas_thread_calls()
    before = calls[0]() if calls is not None else 1
    if before == 1:
        yield
        return
    calls[1](1)
    try:
        yield
    finally:
        calls[1](before)


def _extreme_eigenvalue(G: RegularGraph, which: str) -> float:
    """lambda2 (``which="LA"``) or lambda_min (``"SA"``) of a graph with d >= 1.

    Up to LANCZOS_MIN_N vertices the value is read off the dense eigenvalues
    (no eigenvectors). Above it, a thick-restart Lanczos iteration with full
    reorthogonalization (Paige 1972; Wu and Simon 2000) finds the top
    eigenvalue of sA, s = +1 for "LA" and -1 for "SA", from the product
    A x = (sum of x over each vertex's neighbors) / d alone. For "LA" every
    vector is projected onto the complement of the all-ones vector, so the top
    Ritz value there is lambda2 itself, with multiplicity (lambda2 has ruled
    out disconnected graphs). Every LANCZOS_CHECK steps, and whenever the
    LANCZOS_BASIS rows are full, the top eigenpair (theta, y) of the projected
    matrix T is taken; theta is returned once the residual
    |A y - theta y| = beta_j |y_j| is at most LANCZOS_TOL, which by
    Bauer-Fike also bounds the error of theta, or at once on a breakdown (an
    invariant subspace). A full basis keeps its top LANCZOS_KEEP Ritz
    vectors, T becomes their Ritz values bordered by their residual
    couplings, and the iteration goes on from the residual direction, so
    small spectral gaps (long cycles) still converge. LANCZOS_MAX_STEPS
    products without convergence raise NoConvergence with the last residual.
    The start vector comes from a constant seed, so the result depends only
    on G.
    """
    if G.n <= LANCZOS_MIN_N:
        A = normalized_adjacency(G)
        with _one_blas_thread():
            vals = np.linalg.eigvalsh(A)  # ascending
        return float(vals[-2] if which == "LA" else vals[0])
    columns = G.adjacency.T  # row i holds the i-th neighbor of every vertex
    sign = 1.0 if which == "LA" else -1.0
    deflate = which == "LA"
    m, k = LANCZOS_BASIS, LANCZOS_KEEP
    V = np.empty((m, G.n))
    T = np.zeros((m, m))
    x = np.random.default_rng(0xC0DE).standard_normal(G.n)
    if deflate:
        x -= x.mean()
    V[0] = x / np.linalg.norm(x)
    j = steps = 0
    while True:
        v = V[j]
        w = v[columns[0]]
        for col in columns[1:]:
            w += v[col]
        w *= sign / G.d
        if deflate:
            w -= w.mean()
        steps += 1
        T[j, j] = v @ w
        basis = V[: j + 1]
        for _ in range(2):  # classical Gram-Schmidt, twice
            w -= (basis @ w) @ basis
        b = float(np.linalg.norm(w))
        full = j + 1 == m
        if b <= LANCZOS_TOL or full or steps % LANCZOS_CHECK == 0 \
                or steps >= LANCZOS_MAX_STEPS:
            with _one_blas_thread():  # LAPACK wakes the pool above 25 rows
                theta, S = np.linalg.eigh(T[: j + 1, : j + 1])
            residual = b * abs(S[-1, -1])
            if b <= LANCZOS_TOL or residual <= LANCZOS_TOL:
                return sign * float(theta[-1])
            if steps >= LANCZOS_MAX_STEPS:
                raise NoConvergence(
                    f"Lanczos ({which}) did not converge on n={G.n} after "
                    f"{steps} steps (residual {residual:.3g})"
                )
            if full:  # thick restart (Wu-Simon) from the top k Ritz pairs
                with _one_blas_thread():
                    for c in range(0, G.n, 4096):  # in place, no k x n temporary
                        V[:k, c : c + 4096] = S[:, -k:].T @ V[:, c : c + 4096]
                T[:] = 0.0
                T[:k, :k] = np.diag(theta[-k:])
                T[k, :k] = T[:k, k] = b * S[-1, -k:]
                V[k] = w / b
                j = k
                continue
        T[j, j + 1] = T[j + 1, j] = b
        V[j + 1] = w / b
        j += 1


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


def cheeger_check(G: RegularGraph) -> CheegerResult:
    """Exact h(G) against the spectral sandwich d(1-l2)/2 <= h <= d sqrt(2(1-l2)),
    each side with 1e-9 slack for float rounding."""
    h, _ = graphs.edge_expansion_exact(G)
    lam2 = lambda2(G)
    gap = max(0.0, 1.0 - lam2)
    lower = G.d * gap / 2.0
    upper = G.d * (2.0 * gap) ** 0.5
    ok = (lower <= h + 1e-9) and (h <= upper + 1e-9)
    return CheegerResult(lower, h, upper, ok)
