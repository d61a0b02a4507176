"""chromacode: sphere packing of proper q-colorings on spectral expanders.

Core objects: RegularGraph, Coloring, CodeSet, Spectrum, RegimePoint.
Submodules follow the pipeline: graphs -> spectral -> colorings -> codes ->
regimes, with a CLI on top.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless the environment
already sets it. The package's BLAS work is short dense solves and O(n)
products. There a second OpenBLAS thread saves no wall time on small work
(``lambda2`` at n = 2,000, d = 25: about 6 ms on one thread; on two, 6 ms
at about twice the CPU, or 48 ms in some processes), and on large work buys
about a fifth of the wall time for about 1.6 times the CPU (``lambda2`` of
``random_regular_bipartite(50000, 4)``: 0.99-1.08 s on one thread, 0.77-0.89
s wall and 1.53-1.77 s CPU on two; 2-vCPU Xeon). The default reaches numpy
only if the package is imported before numpy, as the CLI is; to use
OpenBLAS's thread pool, set ``OPENBLAS_NUM_THREADS`` before the import.

The import ends with ``gc.collect(1)``. The modules it loads, numpy's
included, leave about 3,400 objects in the collector's young generations,
one gen-0 collection short of a gen-1 collection that walks them. Without
the collect, that walk (about 1 ms) falls inside whichever code runs next,
at a point that moves with the number of objects the modules create: the
``exact_f`` benchmark body took 3.0 or 4.1 ms depending on it (2-vCPU
Xeon). The collect does it once, at import, in under a millisecond.
"""

import gc
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
from .spectral import Spectrum, full_spectrum, lambda2

gc.collect(1)

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
    "tensor_power",
    "two_lift",
    "unique_regime_certificate",
]

__version__ = "0.1.0"
