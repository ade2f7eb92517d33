"""Numerical semigroups and truncated power-series subalgebras.

Power series are replaced by truncations k[t]/(t^N) with an explicit
certified window [0, N - margin): all reported invariants (value
semigroup, conductor exponent, socle dimensions) are statements about
that window, and stabilization of the valuation pattern is what
certifies them.  Defaults N = 40, margin = 10; both configurable.

>>> semigroup_invariants(NumericalSemigroup((3, 4)))["conductor"]
6
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .errors import PrecisionError
from .linalg import QQ, Subspace, preimage
from .report import VerificationReport

DEFAULT_PRECISION = 40
DEFAULT_MARGIN = 10
MAX_TABLE = 1 << 20


def _extend_sieve(table, gens, length):
    """Extend a member table (table[x] is True iff x is a member) to length."""
    for x in range(len(table), length):
        table.append(any(g <= x and table[x - g] for g in gens))


class NumericalSemigroup:
    """A cofinite submonoid of N, stored by its minimal generators.

    The member table runs past the Frobenius number (Brauer: it is below
    min(gens) * max(gens)), so every x beyond the table is a member.
    Minimal generators that need a table of more than MAX_TABLE entries
    are refused with ValueError.  Each generator is tested on the table of
    the smaller minimal ones; the first past their Frobenius bound ends it.
    """

    __slots__ = ("gens", "_table")

    def __init__(self, generators):
        gens = sorted(set(int(g) for g in generators))
        if not gens or gens[0] < 1:
            raise ValueError("generators must be positive integers")
        if gcd(*gens) != 1:
            raise ValueError("generators must have gcd 1")
        minimal, table = [], [True]
        for a in gens:
            if gcd(*minimal) == 1 and a >= minimal[0] * minimal[-1]:
                break  # a and every later generator lie past the Frobenius number
            if a >= MAX_TABLE:  # a is minimal, or the smaller ones leave a later minimal one
                raise ValueError(
                    f"member table of more than {a} entries is over the limit of {MAX_TABLE}"
                )
            _extend_sieve(table, minimal, a + 1)
            if not table[a]:
                minimal.append(a)
                table[a] = True
        length = minimal[0] * minimal[-1] + minimal[-1] + 2
        if length > MAX_TABLE:
            raise ValueError(f"member table of {length} entries is over the limit of {MAX_TABLE}")
        _extend_sieve(table, minimal, length)
        object.__setattr__(self, "gens", tuple(minimal))
        object.__setattr__(self, "_table", table)

    def __setattr__(self, *a):
        raise AttributeError("NumericalSemigroup is immutable")

    def contains(self, x):
        if x < 0:
            return False
        return x >= len(self._table) or self._table[x]

    def gaps(self):
        return tuple(i for i, ok in enumerate(self._table) if not ok)

    def frobenius(self):
        """Largest gap; -1 for the full semigroup N."""
        g = self.gaps()
        return g[-1] if g else -1

    def conductor(self):
        return self.frobenius() + 1

    def apery(self, m):
        """Apery set: least member in each residue class mod m."""
        if m < 1 or not self.contains(m):
            raise ValueError("apery needs a nonzero member")
        out = []
        for r in range(m):
            x = r
            while not self.contains(x):
                x += m
            out.append(x)
        return tuple(out)

    def is_symmetric(self):
        """s in H iff F - s not in H, decided by the genus g: 2g = F + 1.

        s and F - s are never both in H (F is not), so 2g >= F + 1, with
        equality iff no two gaps pair up (Rosales-Garcia-Sanchez, ch. 4).
        """
        return 2 * len(self.gaps()) == self.frobenius() + 1

    def __repr__(self):
        return "<" + ",".join(map(str, self.gens)) + ">"


def semigroup_invariants(h):
    gaps = h.gaps()
    return {
        "minimal_generators": list(h.gens),
        "gaps": list(gaps),
        "frobenius": h.frobenius(),
        "conductor": h.conductor(),
        "symmetric": h.is_symmetric(),
        "apery": list(h.apery(min(h.gens))),
    }


def parse_t_series(text):
    """Parse "t^2+t^3" / "2t^4 - t" into a {exponent: int coeff} map."""
    text = text.replace(" ", "").replace("-", "+-")
    out = {}
    for term in text.split("+"):
        if not term:
            continue
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:]
        if "t" not in term:
            exp, coeff = 0, int(term)
        else:
            head, _, tail = term.partition("t")
            coeff = int(head) if head else 1
            exp = int(tail[1:]) if tail.startswith("^") else (1 if tail == "" else int(tail))
        out[exp] = out.get(exp, 0) + sign * coeff
    return {e: c for e, c in out.items() if c}


def series_vector(series, field, precision):
    """Sparse coordinates of a truncated series {exponent: coeff}."""
    v = {e: field.of(c) for e, c in series.items() if e < precision}
    return {e: c for e, c in v.items() if c}


def _close(space, seeds, maps):
    """Insert the seeds, then each newly inserted vector's images under the
    maps, until the span stops growing.  The maps are linear, so the span
    is then closed under them; the truncation bounds the loop.
    """
    work = [v for v in seeds if space.insert(v)]
    while work:
        v = work.pop()
        for m in maps:
            image = m(v)
            if space.insert(image):
                work.append(image)
    return space


def _mul_series(a, b, field, precision):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            if i + j < precision:
                out[i + j] = field.add(out.get(i + j, 0), field.mul(x, y))
    return {e: c for e, c in out.items() if c}


def _check_margin(margin):
    # a negative margin would stretch the window past the truncation
    if margin < 0:
        raise PrecisionError(f"margin {margin} is negative")


class TruncatedSubalgebra:
    """The unital subalgebra of k[t]/(t^N) generated by given series.

    The basis is echelonized by t-valuation, so the pivot set below the
    certified window is exactly the value semigroup pattern v(P).  The
    constructor refuses a negative margin and a precision below
    2 * (largest generator valuation) + margin.
    """

    __slots__ = ("field", "precision", "margin", "basis")

    def __init__(self, gens, field, precision=DEFAULT_PRECISION, margin=DEFAULT_MARGIN):
        _check_margin(margin)
        max_val = 0
        for g in gens:
            nonzero = [e for e, c in g.items() if c]
            if nonzero:
                max_val = max(max_val, min(nonzero))
        if precision < 2 * max_val + margin:
            raise PrecisionError(
                f"precision {precision} is below 2 * generator valuation {max_val}"
                f" + margin {margin} = {2 * max_val + margin}"
            )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "margin", margin)
        gen_vecs = [series_vector(g, field, precision) for g in gens]
        basis = _close(
            Subspace(field, precision),
            [{0: field.one()}] + gen_vecs,
            [lambda v, g=g: _mul_series(v, g, field, precision) for g in gen_vecs],
        )
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, *a):
        raise AttributeError("TruncatedSubalgebra is immutable")

    @property
    def window(self):
        return self.precision - self.margin

    def valuations(self):
        """Pivot valuations below the certified window."""
        return [p for p in self.basis.pivots() if p < self.window]

    def contains(self, series):
        return self.basis.contains(series_vector(series, self.field, self.precision))

    def contains_t_power(self, j):
        return self.contains({j: 1})

    def conductor_exponent(self):
        """Least c with t^j in P for all j in [c, window).

        Certified when the window reaches past 2c + 1 (products of
        in-window powers then cover every higher exponent).  Raises
        PrecisionError when the t-power pattern never stabilizes.
        """
        if self.window - 1 not in self.valuations():
            raise PrecisionError(f"valuation pattern not stabilized below window {self.window}")
        c = self.window
        while c - 1 >= 0 and self.contains_t_power(c - 1):
            c -= 1
        if c == self.window:
            raise PrecisionError("no t-power tail inside the window")
        return c

    def conductor_certified(self):
        c = self.conductor_exponent()
        return self.window >= 2 * c + 2

    def report_data(self):
        return {
            "field": str(self.field),
            "precision": self.precision,
            "margin": self.margin,
            "window": self.window,
            "valuations": self.valuations(),
        }


def subalgebra_closure(gens, field, precision=DEFAULT_PRECISION, margin=DEFAULT_MARGIN):
    """Fixed-point closure of the span under multiplication by generators."""
    return TruncatedSubalgebra(gens, field, precision, margin)


# -- quadratic extension models ------------------------------------------


class QuadraticExtensionModel:
    """k = k0[alpha]/(alpha^2 - v alpha - u) acting on V = k[[t]], n = 1.

    Elements of k are pairs (a, b) = a + b alpha over k0; V is modeled on
    2N coordinates (t^j and alpha t^j).  The extension must be a field:
    x^2 - v x - u has no root in k0.
    """

    __slots__ = ("base", "u", "v", "precision")

    def __init__(self, base, u, v, precision=DEFAULT_PRECISION):
        self.base = base
        self.u = u
        self.v = v
        self.precision = precision
        if self._has_root():
            raise ValueError("alpha lies in the base field: degenerate extension")

    def _has_root(self):
        f = self.base
        if f.p:
            return any(
                (x * x - self.v * x - self.u) % f.p == 0 for x in range(f.p)
            )
        # rational root: discriminant v^2 + 4u must be a rational square
        disc = Fraction(self.v) ** 2 + 4 * Fraction(self.u)
        if disc < 0:
            return False
        num, den = disc.numerator, disc.denominator
        return isqrt(num) ** 2 == num and isqrt(den) ** 2 == den


def _quad_unit(model, j, part):
    """The unit t^j (part 0) or alpha t^j (part 1); zero past the truncation."""
    return {2 * j + part: model.base.one()} if j < model.precision else {}


def _quad_mul_t(model, vec):
    return {k + 2: x for k, x in vec.items() if k + 2 < 2 * model.precision}


def _quad_mul_alpha(model, vec):
    """alpha * (a + b alpha) = b*u + (a + b*v) alpha, at each t^j."""
    f = model.base
    # over Q an integral u or v stays an int, as linalg keeps integral entries
    u, v = (x if not f.p and isinstance(x, int) else f.of(x) for x in (model.u, model.v))
    out = {}
    for j in {k // 2 for k in vec}:
        a, b = vec.get(2 * j, 0), vec.get(2 * j + 1, 0)
        for part, x in enumerate((f.mul(b, u), f.add(a, f.mul(b, v)))):
            if x:
                out[2 * j + part] = x
    return out


def quadratic_extension_closure(model):
    """The subalgebra P = k0[[t, alpha t]] inside the truncated V.

    P is k0 + tV, the closure of the seeds 1, t and alpha t under t alone.
    One map suffices: alpha t (k0 + tV) lies in tV.  The conductor claim
    "n V lies in P" still tests alpha t V against P on the window.
    """
    return _close(
        Subspace(model.base, 2 * model.precision),
        [_quad_unit(model, 0, 0), _quad_unit(model, 1, 0), _quad_unit(model, 1, 1)],
        [lambda v: _quad_mul_t(model, v)],
    )


def quadratic_extension_checks(model, margin=DEFAULT_MARGIN):
    """The case-(3) verification data: V = P + alpha P, conductor, type."""
    _check_margin(margin)
    f = model.base
    width = 2 * model.precision
    window = model.precision - margin
    # below 2 the n V <= P loop checks no degree, and below 1 neither loop does
    if window < 2:
        raise PrecisionError(f"window {window} = precision - margin is below 2")
    P = quadratic_extension_closure(model)

    # V = P + alpha P on the window
    combined = Subspace(f, width)
    for row in P.rows.values():
        combined.insert(row)
        combined.insert(_quad_mul_alpha(model, row))
    v_equals = all(
        combined.contains(_quad_unit(model, j, part))
        for j in range(window)
        for part in (0, 1)
    )

    # n V <= P for n = (t, alpha t): every t*V and alpha t*V basis vector
    nv_in_p = True
    for j in range(window - 1):
        for part in (0, 1):
            v = _quad_unit(model, j, part)
            if not P.contains(_quad_mul_t(model, v)):
                nv_in_p = False
            if not P.contains(_quad_mul_alpha(model, _quad_mul_t(model, v))):
                nv_in_p = False

    alpha_outside = not P.contains(_quad_unit(model, 0, 1))

    # degree-0 piece of V/P over k0: V_0 = k (dim 2), P_0 from pivots {0, 1}
    p0_dim = sum(1 for p in P.pivots() if p < 2)
    deg0_cokernel = 2 - p0_dim

    return {
        "v_equals_p_plus_alpha_p": v_equals,
        "maximal_ideal_times_v_in_p": nv_in_p,
        "alpha_not_in_p": alpha_outside,
        "cokernel_degree0_dim": deg0_cokernel,
        "window": window,
    }


# -- the cone model A = P + sB inside B = (k[t]/t^N)[s]/(s^M) ----------------


def cone_model_checks(
    p_gens,
    field,
    precision=24,
    s_precision=3,
    margin=6,
):
    """Verify conductor and socle claims for A = P + sB on the window.

    B is modeled on N*M coordinates t^e s^j.  The conductor of A in B is
    computed by honest linear algebra ({b : b t^e in A} over the t-power
    module generators t^e, e < window; e = 0 asks b in A, and
    multiplication by s lands in sB <= A automatically) and compared with
    the closed form (t^c)V + sB from the conductor exponent c of P.  That
    form is the span of the units t^e s^j with i = j*N + e >= c, so a
    vector lies in it iff its support does: exact for every computed basis
    vector, and just i >= c for a unit, checked for e below the window.
    Socle dimensions of B/A and of V/P are computed separately and
    compared.
    """
    P = subalgebra_closure(p_gens, field, precision, margin)
    c = P.conductor_exponent()
    window = P.window
    N, width = precision, precision * s_precision
    one = field.one()

    def times_unit(series_vec, i):
        """The series times the unit t^e s^j at coordinate i = j * N + e."""
        return {i + k: y for k, y in series_vec.items() if i % N + k < N}

    # A = P + sB as a subspace
    s_units = [{i: one} for i in range(N, width)]
    a_basis = Subspace(field, width, list(P.basis.rows.values()) + s_units)

    computed = preimage(
        [([times_unit({e: one}, i) for i in range(width)], a_basis) for e in range(window)],
        width,
        field,
    )
    conductor_matches = all(
        i >= c for row in computed.rows.values() for i in row
    ) and all(
        (i >= c) == computed.contains({i: one}) for i in range(width) if i % N < window
    )

    # socle of B/A: {b : g b in A for all maximal-ideal generators g}
    gen_vecs = [series_vector(g, field, N) for g in p_gens]
    blocks = [([times_unit(g, i) for i in range(width)], a_basis) for g in gen_vecs]
    s_times = [{i + N: one} if i + N < width else {} for i in range(width)]
    blocks.append((s_times, a_basis))
    socle_ba = preimage(blocks, width, field).dim - a_basis.dim

    # socle of V/P in the V-model alone (V's units are the s^0 units)
    wv = preimage(
        [([times_unit(g, k) for k in range(N)], P.basis) for g in gen_vecs], N, field
    )
    socle_vp = wv.dim - P.basis.dim

    return {
        "conductor_exponent": c,
        "conductor_certified": P.conductor_certified(),
        "conductor_matches_closed_form": conductor_matches,
        "socle_B_over_A": socle_ba,
        "socle_V_over_P": socle_vp,
        "window": window,
    }


# -- report builders ---------------------------------------------------------


def subalgebra_report(
    gens_text,
    field,
    precision=DEFAULT_PRECISION,
    margin=DEFAULT_MARGIN,
    expected=None,
):
    """Valuation-pattern claims for the subalgebra generated in k[t]/(t^N)."""
    expected = expected or {}
    rep = VerificationReport(
        "subalgebra", config={"field": str(field), "precision": precision, "margin": margin}
    )

    gens = [parse_t_series(t) for t in gens_text]
    P = subalgebra_closure(gens, field, precision, margin)
    vals = P.valuations()
    rows = (
        ("valuations_present", "valuation.{}-present", "{} lies in v(P)", vals.__contains__, None),
        ("valuations_absent", "valuation.{}-absent", "{} does not lie in v(P)",
         lambda j: j not in vals, None),
        ("t_powers_present", "t-power.{}-present", "t^{} lies in P", P.contains_t_power, P.window),
        ("t_powers_absent", "t-power.{}-absent", "t^{} does not lie in P",
         lambda j: not P.contains_t_power(j), P.window),
    )
    for key, claim_id, anchor, test, bound in rows:
        claimed = expected.get(key, ())
        # outside [0, window) a valuation or t-power claim would pass unearned
        outside = [j for j in claimed if not 0 <= j < P.window]
        if outside:
            raise PrecisionError(
                f"{key} {outside} lie outside the certified window [0, {P.window})"
            )
        for j in claimed:
            rep.check(claim_id.format(j), anchor.format(j), True, test(j), bound=bound)
    if "value_semigroup" in expected:
        h = NumericalSemigroup(expected["value_semigroup"])
        pattern = [x for x in range(P.window) if h.contains(x)]
        rep.check(
            "value-semigroup",
            "v(P) matches the stated numerical semigroup",
            pattern,
            vals,
            bound=P.window,
        )
    if "conductor_exponent" in expected:
        certified = P.conductor_certified()
        rep.check(
            "conductor-exponent",
            "P:V = t^c V with the stated c",
            expected["conductor_exponent"],
            P.conductor_exponent(),
            bound=P.window,
            note="window-certified" if certified else "window too small",
        )
        rep.assert_true(
            "conductor-certified",
            "the window certifies the conductor exponent",
            certified,
        )
    return rep


def semigroup_cone_report(
    generators,
    field=QQ,
    precision=24,
    s_precision=3,
    margin=6,
    expected=None,
    semigroup_gens=None,
):
    """Cone-model claims for A = P + sB: conductor window and socle match.

    When semigroup_gens is given, P is the semigroup ring and the
    numerical-semigroup invariants are verified alongside.
    """
    expected = expected or {}
    rep = VerificationReport(
        "semigroup-cone",
        config={"field": str(field), "precision": precision, "margin": margin},
    )

    if semigroup_gens:
        h = NumericalSemigroup(semigroup_gens)
        inv = semigroup_invariants(h)
        if "symmetric" in expected:
            rep.check(
                "semigroup.symmetric",
                "the value semigroup is symmetric",
                expected["symmetric"],
                inv["symmetric"],
            )
        if "semigroup_conductor" in expected:
            rep.check(
                "semigroup.conductor",
                "conductor of the value semigroup",
                expected["semigroup_conductor"],
                inv["conductor"],
            )
        f = inv["frobenius"]
        rep.assert_true(
            "semigroup.symmetry-direct",
            "s in H iff F - s not in H, checked directly",
            all(h.contains(s) != h.contains(f - s) for s in range(f + 1)),
        )
    res = cone_model_checks(
        [parse_t_series(t) for t in generators],
        field,
        precision,
        s_precision,
        margin,
    )
    if "conductor_exponent" in expected:
        rep.check(
            "cone.conductor-exponent",
            "P:V = t^c V with the stated c",
            expected["conductor_exponent"],
            res["conductor_exponent"],
            bound=res["window"],
        )
    rep.assert_true(
        "cone.conductor-window",
        "A:B = (t^c) + sB on the certified window",
        res["conductor_matches_closed_form"],
        bound=res["window"],
    )
    rep.check(
        "cone.socle-match",
        "r_A(B/A) = r_P(V/P)",
        res["socle_V_over_P"],
        res["socle_B_over_A"],
        bound=res["window"],
    )
    if "type_r" in expected:
        rep.check(
            "cone.type",
            "r_A(B/A)",
            expected["type_r"],
            res["socle_B_over_A"],
            bound=res["window"],
        )
    rep.assert_true(
        "cone.certified",
        "the window certifies the conductor exponent",
        res["conductor_certified"],
    )
    return rep


def quadratic_extension_report(model, margin=DEFAULT_MARGIN, expected=None):
    """Claims for P = k0[[t, alpha t]] inside V = k[[t]], [k : k0] = 2."""
    expected = expected or {}
    rep = VerificationReport(
        "quadratic-extension",
        config={
            "base": str(model.base),
            "alpha_sq": [model.u, model.v],
            "precision": model.precision,
        },
    )

    res = quadratic_extension_checks(model, margin)
    rep.assert_true(
        "decomposition",
        "V = P + alpha P",
        res["v_equals_p_plus_alpha_p"],
        bound=res["window"],
    )
    rep.assert_true(
        "conductor",
        "n V lies in P, so the conductor is the maximal ideal",
        res["maximal_ideal_times_v_in_p"],
        bound=res["window"],
    )
    rep.assert_true(
        "alpha-outside",
        "alpha does not lie in P",
        res["alpha_not_in_p"],
    )
    rep.check(
        "type",
        "r_P(V/P) = 1 from the degree-zero piece of V/P",
        expected.get("cokernel_degree0_dim", 1),
        res["cokernel_degree0_dim"],
    )
    return rep
