import numpy as np
import pytest

from chromacode import codes, graphs


@pytest.fixture(autouse=True)
def fresh_oracle_tables():
    """Start every test without the exact oracle's cached per-graph table,
    so no result depends on a table that an earlier test left behind."""
    codes._oracle_table.cache_clear()


def gadget_blocks(H):
    """(x, y, x-side part, y-side part) of every gadget of ``gadget_expand(H)``,
    by the construction rule: the block on H's k-th canonical edge xy is
    u, u2, u3, v, v2, v3 = H.n + 6k + (0..5), with u joined to x and v to y."""
    return [(x, y, [b, b + 1, b + 2], [b + 3, b + 4, b + 5])
            for b, (x, y) in zip(range(H.n, H.n + 6 * H.m, 6), H.edges())]


def edgeless(n):
    """The graph on n vertices and no edges (n = 0 too): a graph for
    colorings whose edges do not matter."""
    return graphs.RegularGraph(n, 0, np.zeros((n, 0)))


def declared_regular():
    """A triangle and a vertex on no edge, declared 2-regular: vertex 3's row
    names 0 and 1, but ``edge_arrays`` reads each edge from its lower end's
    row, where 3 is missing. ``RegularGraph`` does not check rows agree."""
    return graphs.RegularGraph(4, 2, np.array([[1, 2], [0, 2], [0, 1], [0, 1]]))


def triangle():
    return graphs.cycle_graph(3)


def k4():
    return graphs.complete_graph(4)


def k5():
    return graphs.complete_graph(5)


def k33():
    return graphs.build_from_edges(
        6,
        [(i, 3 + j) for i in range(3) for j in range(3)],
        part_labels=[0, 0, 0, 1, 1, 1],
    )


def prism():
    # two triangles joined by a perfect matching (circular ladder CL_3)
    return graphs.build_from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )


def petersen():
    return graphs.build_from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
         (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
    )


def twin_triangles():
    return graphs.build_from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )


@pytest.fixture(scope="session")
def fixture_graphs():
    """The standing zoo: name -> graph, all small enough for exhaustive checks."""
    return {
        "triangle": triangle(),
        "K4": k4(),
        "K5": k5(),
        "K33": k33(),
        "C5": graphs.cycle_graph(5),
        "C6": graphs.cycle_graph(6),
        "C7": graphs.cycle_graph(7),
        "prism": prism(),
        "petersen": petersen(),
        "tensor32": graphs.tensor_power(3, 2),
        "twin_triangles": twin_triangles(),
        "rb16": graphs.random_regular_bipartite(8, 3, seed=100),
    }
