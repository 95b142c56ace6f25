"""The elimination kernels of ``linalg`` against independent oracles: the
Bareiss determinant against the Leibniz permutation sum, and the sparse
rank against the pivots of the dense ``Fraction`` echelon."""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

from orbitcalc import linalg


def leibniz(m):
    """sum over permutations p of sign(p) prod_i m[i][p(i)], the sign read
    from the count of inversions."""
    n = len(m)
    return sum(
        (-1) ** sum(p[i] > p[j] for i, j in combinations(range(n), 2)) * prod(m[i][p[i]] for i in range(n))
        for p in permutations(range(n))
    )


def random_entry(rng):
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))


def test_det_matches_the_permutation_sum():
    rng = random.Random("linalg-det")
    singular = swapped = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        m = [[random_entry(rng) for _ in range(n)] for _ in range(n)]
        shape = rng.random()
        if n > 1 and shape < 0.2:
            m[-1] = list(m[0])  # a repeated row
        elif n > 1 and shape < 0.4:
            m[0][0] = Fraction(0)  # the first pivot needs a row swap
        expected = leibniz(m)
        value = linalg.det(m)
        assert value == expected
        assert type(value) is int or value.denominator != 1
        singular += expected == 0
        swapped += m[0][0] == 0 and expected != 0
    assert singular > 30 and swapped > 30
    assert linalg.det([]) == 1
    assert linalg.det([[0, 1], [1, 0]]) == -1
    assert linalg.det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert linalg.det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1


def test_rank_matches_the_dense_echelon():
    rng = random.Random("linalg-rank")
    for _ in range(300):
        rows, width = rng.randint(0, 6), rng.randint(1, 6)
        m = [[random_entry(rng) for _ in range(width)] for _ in range(rows)]
        for i in range(rows):
            shape = rng.random()
            if shape < 0.15:
                m[i] = [Fraction(0)] * width
            elif i and shape < 0.3:
                m[i] = list(m[rng.randrange(i)])
            elif i and shape < 0.45:
                k = random_entry(rng)
                m[i] = [a + k * b for a, b in zip(m[i - 1], m[rng.randrange(i)])]
        ncols = rng.randint(0, width)
        expected = len(linalg.echelon(m, ncols)[1])
        assert linalg.rank(m, ncols) == expected
    assert linalg.rank([], 3) == 0
    assert linalg.rank([[Fraction(0)] * 3] * 2, 3) == 0
    assert linalg.rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(2)]], 2) == 1
