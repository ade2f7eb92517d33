"""Sparse polynomials with rational coefficients.

A polynomial is a dict mapping exponent tuples to nonzero Fractions.
Only the handful of operations the graded linear algebra needs.
"""

from __future__ import annotations

from fractions import Fraction

from .monomial import Monomial


def p_mono(exps):
    return {tuple(exps): Fraction(1)}


def p_of_monomial(m):
    return p_mono(m.exps)


def p_linear(n, indices):
    """Sum of variables x_i for i in indices (0-based)."""
    out = {}
    for i in indices:
        e = [0] * n
        e[i] = 1
        out[tuple(e)] = Fraction(1)
    return out


def p_degree(a):
    """Common total degree if homogeneous, else None; zero gives None."""
    degs = {sum(m) for m in a}
    return degs.pop() if len(degs) == 1 else None


def p_in_ideal(a, ideal):
    """Every monomial of a lies in the (monomial) ideal."""
    return all(ideal.contains(Monomial(m)) for m in a)
