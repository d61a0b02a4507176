"""chromacode: sphere packing of proper q-colorings on spectral expanders.

Core objects: RegularGraph, Coloring, CodeSet, Spectrum, RegimePoint.
Submodules follow the pipeline: graphs -> spectral -> colorings -> codes ->
regimes, with a CLI on top.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless the environment
already sets it. The package's BLAS work is short dense solves and O(n)
products, on which a second OpenBLAS thread spins for CPU time and saves no
wall time. The default reaches numpy only if the package is imported
before numpy, as the CLI is; to use OpenBLAS's thread pool, set
``OPENBLAS_NUM_THREADS`` before the import.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .codes import CodeSet, distance_threshold, exact_max_packing, greedy_pack
from .colorings import Coloring, distance, enumerate_proper, is_proper
from .graphs import (
    RegularGraph,
    build_from_edges,
    complete_graph,
    cycle_graph,
    gadget_expand,
    random_regular_bipartite,
    tensor_power,
    two_lift,
)
from .regimes import RegimePoint, unique_regime_certificate
from .spectral import Spectrum, full_spectrum, lambda2, rayleigh_quotient

__all__ = [
    "CodeSet",
    "Coloring",
    "RegimePoint",
    "RegularGraph",
    "Spectrum",
    "build_from_edges",
    "complete_graph",
    "cycle_graph",
    "distance",
    "distance_threshold",
    "enumerate_proper",
    "exact_max_packing",
    "full_spectrum",
    "gadget_expand",
    "greedy_pack",
    "is_proper",
    "lambda2",
    "random_regular_bipartite",
    "rayleigh_quotient",
    "tensor_power",
    "two_lift",
    "unique_regime_certificate",
]

__version__ = "0.1.0"
