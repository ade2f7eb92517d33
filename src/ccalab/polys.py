"""Sparse polynomials with rational coefficients.

A polynomial is a dict mapping exponent tuples to nonzero Fractions.
Only the handful of operations the graded linear algebra needs.
"""

from __future__ import annotations

from fractions import Fraction

from .monomial import Monomial


def p_mono(exps, coeff=1):
    c = Fraction(coeff)
    return {tuple(exps): c} if c else {}


def p_of_monomial(m, coeff=1):
    return p_mono(m.exps, coeff)


def p_linear(n, indices, coeffs=None):
    """Sum of variables x_i for i in indices (0-based), with optional coeffs."""
    out = {}
    for k, i in enumerate(indices):
        e = [0] * n
        e[i] = 1
        c = Fraction(1 if coeffs is None else coeffs[k])
        if c:
            out[tuple(e)] = c
    return out


def p_degree(a):
    """Common total degree if homogeneous, else None; zero gives None."""
    degs = {sum(m) for m in a}
    return degs.pop() if len(degs) == 1 else None


def p_in_ideal(a, ideal):
    """Every monomial of a lies in the (monomial) ideal."""
    return all(ideal.contains(Monomial(m)) for m in a)
