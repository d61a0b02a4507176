"""Exact square assignment solver (Hungarian / shortest augmenting path).

Works on Python integers throughout so optimal values are exact no matter how
the caller scales the weights.
"""
from __future__ import annotations

import math
from typing import Sequence

from .errors import PreconditionFail

_INF = math.inf  # above every reduced cost; Python compares it with ints exactly


def min_cost_assignment(cost: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Minimum-cost perfect assignment of a square integer matrix.

    Returns (total cost, col assigned to each row). O(n^3) potentials method.
    """
    n = len(cost)
    if any(len(row) != n for row in cost):
        raise PreconditionFail("cost matrix must be square")
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = row matched to column j (1-indexed; 0 = free)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [_INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = _INF
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    row_to_col = [0] * n
    for j in range(1, n + 1):
        row_to_col[p[j] - 1] = j - 1
    total = sum(cost[i][row_to_col[i]] for i in range(n))
    return total, row_to_col

