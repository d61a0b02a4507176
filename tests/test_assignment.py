from itertools import permutations

import numpy as np

from chromacode.assignment import min_cost_assignment


def brute_min(cost):
    n = len(cost)
    return min(sum(cost[i][p[i]] for i in range(n)) for p in permutations(range(n)))


def test_min_cost_matches_brute_force():
    rng = np.random.default_rng(1)
    for trial in range(300):
        n = int(rng.integers(1, 7))
        cost = rng.integers(-50, 50, size=(n, n)).tolist()
        total, cols = min_cost_assignment(cost)
        assert sorted(cols) == list(range(n))
        assert total == sum(cost[i][cols[i]] for i in range(n))
        assert total == brute_min(cost)


def test_exact_on_huge_integers():
    # costs beyond float precision must stay exact
    big = 10**20
    cost = [[-big - 1, -big], [-big, -big - 1]]
    total, cols = min_cost_assignment(cost)
    assert cols == [0, 1]
    assert total == -2 * big - 2
