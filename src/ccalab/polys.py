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


def p_sub(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, Fraction(0)) - c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def p_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(key, Fraction(0)) + ca * cb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def p_is_zero(a):
    return not a


def p_degree(a):
    """Common total degree if homogeneous, else None; zero gives None."""
    degs = {sum(m) for m in a}
    return degs.pop() if len(degs) == 1 else None


def p_in_ideal(a, ideal):
    """Every monomial of a lies in the (monomial) ideal."""
    return all(ideal.contains(Monomial(m)) for m in a)


def p_format(a, ctx):
    if not a:
        return "0"
    parts = []
    for m in sorted(a):
        c = a[m]
        mono = Monomial(m).format(ctx)
        if c == 1:
            parts.append(mono)
        elif mono == "1":
            parts.append(str(c))
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts)


def p_from_json(data):
    """Sparse coefficient map: [{"exps": [...], "coeff": "p/q"}, ...]."""
    out = {}
    for term in data:
        c = Fraction(str(term["coeff"]))
        if c:
            out[tuple(int(e) for e in term["exps"])] = c
    return out


def p_to_json(a):
    return [
        {"exps": list(m), "coeff": str(c)} for m, c in sorted(a.items())
    ]
