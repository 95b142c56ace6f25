"""Independent oracle for the ``elimination`` workload: recompute each rung's
relation ideal from the computed generators with sympy and compare reduced
grevlex bases.

    PYTHONPATH=src python3 -m pytest perfbench/oracle_check.py

The file name keeps it out of the repository's default test collection: it
runs the benchmark's rungs, which take tens of seconds.  sympy is a
development tool only; the checks skip when it is absent.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

sympy = pytest.importorskip("sympy")


def _to_sympy(p, symbols):
    total = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(symbols, exps):
            term *= s**e
        total += term
    return sympy.expand(total)


def _monic(exprs, symbols):
    """sympy clears denominators; compare bases up to the scalar factor."""
    return {sympy.Poly(g, *symbols, domain="QQ").monic().as_expr() for g in exprs}


def _oracle_relations(sigma, n):
    """Reduced grevlex basis of the kernel of y_j -> sigma_j, by lex
    elimination of x from <y_j - sigma_j(x)> (F5B; plain Buchberger takes
    minutes on Z3/R^3)."""
    xs = sympy.symbols(f"x1:{n + 1}")
    ys = sympy.symbols(f"y1:{len(sigma) + 1}")
    tagged = [y - _to_sympy(s, xs) for y, s in zip(ys, sigma)]
    lex = sympy.groebner(tagged, *xs, *ys, order="lex", method="f5b")
    kept = [g for g in lex.exprs if not g.free_symbols & set(xs)]
    if not kept:
        return set()
    return _monic(sympy.groebner(kept, *ys, order="grevlex").exprs, ys)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("rung", [name for name, _ in workloads.ELIMINATION_LADDER])
def test_relations_match_sympy(rung, seed):
    gens = dict(workloads.seeded_ladder(workloads.ELIMINATION_LADDER, seed))[rung]
    hilbert, ideal = workloads.elimination_chain(gens, workloads.stages(None, rung))
    ys = sympy.symbols(f"y1:{len(hilbert.sigma) + 1}")
    ours = _monic([_to_sympy(g, ys) for g in ideal.basis.generators], ys)
    assert ours == _oracle_relations(hilbert.sigma, hilbert.ring.nvars)
