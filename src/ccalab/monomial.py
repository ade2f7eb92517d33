"""Exact arithmetic on monomial ideals in a polynomial ring k[x1..xn].

An ideal is stored by its unique minimal generating set in a canonical
order (degree, then reverse-lexicographic tiebreak on exponent vectors),
so equal ideals compare and hash equal.  Conventions: the zero ideal has
no generators; the unit ideal is generated by the monomial 1.  Both are
admitted by every operation that does not explicitly exclude them.

Membership and containment use exponent arithmetic only (lcm and
divisibility); there are no term orders or division algorithms here.

>>> ctx = VarContext(("x", "y", "z"))
>>> I = MonomialIdeal(ctx, [(1, 1, 0), (1, 0, 1)])   # (xy, xz)
>>> [p.variable_names() for p in I.minimal_primes()]
[('x',), ('y', 'z')]
"""

from __future__ import annotations

from functools import reduce

from .errors import ContextMismatchError, UnitIdealError, ZeroIdealError


class VarContext:
    """An ordered tuple of distinct variable names."""

    __slots__ = ("names",)

    def __init__(self, names):
        names = tuple(names)
        if len(names) < 1:
            raise ValueError("need at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        object.__setattr__(self, "names", names)

    def __setattr__(self, *a):
        raise AttributeError("VarContext is immutable")

    def __eq__(self, other):
        return isinstance(other, VarContext) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarContext(names={self.names!r})"

    @property
    def n(self):
        return len(self.names)

    def index(self, name):
        return self.names.index(name)

    def mask_of(self, names):
        m = 0
        for name in names:
            m |= 1 << self.index(name)
        return m

    def names_of_mask(self, mask):
        return tuple(nm for i, nm in enumerate(self.names) if (mask >> i) & 1)

    def __str__(self):
        return "k[" + ",".join(self.names) + "]"


def make_context(n, prefix="x"):
    """Context with variables prefix1..prefixn."""
    return VarContext(tuple(f"{prefix}{i}" for i in range(1, n + 1)))


def exps_support_mask(exps):
    """Bit mask of the variables with a nonzero exponent."""
    mask = 0
    for i, e in enumerate(exps):
        if e:
            mask |= 1 << i
    return mask


class Monomial:
    """A monomial, stored as its exponent vector."""

    __slots__ = ("exps",)

    def __init__(self, exps):
        object.__setattr__(self, "exps", tuple(int(e) for e in exps))
        if any(e < 0 for e in self.exps):
            raise ValueError("exponents must be non-negative")

    def __setattr__(self, *a):
        raise AttributeError("Monomial is immutable")

    @classmethod
    def one(cls, n):
        return cls((0,) * n)

    @classmethod
    def variable(cls, n, i, power=1):
        e = [0] * n
        e[i] = power
        return cls(e)

    def degree(self):
        return sum(self.exps)

    def support_mask(self):
        return exps_support_mask(self.exps)

    def is_one(self):
        return not any(self.exps)

    def is_squarefree(self):
        return all(e <= 1 for e in self.exps)

    def divides(self, other):
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def __mul__(self, other):
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __floordiv__(self, other):
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(tuple(a - b for a, b in zip(self.exps, other.exps)))

    def lcm(self, other):
        return Monomial(tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def format(self, ctx):
        if self.is_one():
            return "1"
        parts = []
        for name, e in zip(ctx.names, self.exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return f"Monomial{self.exps}"


def _canon_key(m):
    # degree first, reverse-lexicographic tiebreak: deterministic output order
    return (m.degree(), tuple(-e for e in reversed(m.exps)))


def parse_monomial(ctx, text):
    """Parse "x*y^2" or "1" into a Monomial over ctx."""
    text = text.replace(" ", "")
    exps = [0] * ctx.n
    if text in ("1", ""):
        return Monomial(exps)
    for factor in text.split("*"):
        if "^" in factor:
            name, e = factor.split("^")
            exps[ctx.index(name)] += int(e)
        else:
            exps[ctx.index(factor)] += 1
    return Monomial(exps)


def monomials_of_degree(n, d, allowed_mask=None):
    """All exponent tuples of total degree d supported on allowed_mask."""
    if allowed_mask is None:
        allowed_mask = (1 << n) - 1
    positions = [i for i in range(n) if (allowed_mask >> i) & 1]
    out = []

    def rec(idx, remaining, acc):
        if idx == len(positions) - 1:
            e = list(acc)
            e[positions[idx]] = remaining
            out.append(tuple(e))
            return
        for v in range(remaining + 1):
            e = list(acc)
            e[positions[idx]] = v
            rec(idx + 1, remaining - v, e)

    if not positions:
        if d == 0:
            out.append((0,) * n)
        return out
    rec(0, d, [0] * n)
    return sorted(out)


def _minimalize(monos):
    """Drop every monomial that is divided by another one in the list."""
    monos = sorted(set(monos), key=_canon_key)
    out = []
    for m in monos:
        if not any(g.divides(m) for g in out):
            out.append(m)
    return tuple(out)


class MonomialIdeal:
    """A monomial ideal, stored by its minimal generators."""

    __slots__ = ("context", "gens")

    def __init__(self, context, gens):
        object.__setattr__(self, "context", context)
        gens = [g if isinstance(g, Monomial) else Monomial(g) for g in gens]
        for g in gens:
            if len(g.exps) != context.n:
                raise ContextMismatchError("generator length != variable count")
        object.__setattr__(self, "gens", _minimalize(gens))

    def __setattr__(self, *a):
        raise AttributeError("MonomialIdeal is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def unit(cls, ctx):
        return cls(ctx, (Monomial.one(ctx.n),))

    @classmethod
    def from_strings(cls, ctx, texts):
        return cls(ctx, [parse_monomial(ctx, t) for t in texts])

    @classmethod
    def from_support(cls, ctx, names):
        """The prime ideal generated by the named variables."""
        return cls(ctx, [Monomial.variable(ctx.n, ctx.index(nm)) for nm in names])

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return len(self.gens) == 1 and self.gens[0].is_one()

    def is_squarefree(self):
        return all(g.is_squarefree() for g in self.gens)

    def max_gen_degree(self):
        return max((g.degree() for g in self.gens), default=0)

    def pure_powers(self):
        """Per k, the least e with x_k^e in the ideal, or None: only 1 and x_k^j divide x_k^e."""
        out = [None] * self.context.n
        for g in self.gens:
            support = [k for k, e in enumerate(g.exps) if e]
            if not support:
                return [0] * self.context.n
            if len(support) == 1:
                out[support[0]] = g.exps[support[0]]
        return out

    def contains(self, m):
        """Monomial membership: some generator divides m."""
        return any(g.divides(m) for g in self.gens)

    def __contains__(self, m):
        return self.contains(m)

    def _check(self, other):
        if self.context != other.context:
            raise ContextMismatchError("ideals live in different contexts")

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.context == other.context
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.context, self.gens))

    def __repr__(self):
        inner = ", ".join(g.format(self.context) for g in self.gens)
        return f"({inner})" if self.gens else "(0)"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return MonomialIdeal(self.context, self.gens + other.gens)

    def __mul__(self, other):
        self._check(other)
        return MonomialIdeal(
            self.context, [a * b for a in self.gens for b in other.gens]
        )

    def intersect(self, other):
        """I cap J, by pairwise lcm; associative and commutative.

        >>> ctx = VarContext(("x", "y"))
        >>> I = MonomialIdeal.from_strings(ctx, ["x"])
        >>> J = MonomialIdeal.from_strings(ctx, ["y"])
        >>> I.intersect(J)
        (x*y)
        """
        self._check(other)
        if self.is_zero() or other.is_zero():
            return MonomialIdeal.zero(self.context)
        return MonomialIdeal(
            self.context, [a.lcm(b) for a in self.gens for b in other.gens]
        )

    # -- structure ---------------------------------------------------------

    def minimal_primes(self):
        """Inclusion-minimal primes over the ideal, canonically sorted.

        A monomial prime (x_i : i in S) contains I iff S meets the support
        of every generator, so the minimal primes are the minimal vertex
        covers of the generator supports (a generator and its radical have
        the same support).  They are built one generator at a time, from
        two lattice identities: (J cap K) + (m) = (J + m) cap (K + m), and
        J + (uv) = (J + u) cap (J + v) for coprime u, v.  So a prime that
        meets the next support stays, and any other one grows by each
        variable of it.  The zero ideal has the zero ideal (empty support)
        as its unique minimal prime; the unit ideal is rejected.

        >>> ctx = VarContext(("x", "y", "z"))
        >>> MonomialIdeal.from_strings(ctx, ["x*y", "y*z", "x*z"]).minimal_primes()
        [(x,y), (x,z), (y,z)]
        """
        if self.is_unit():
            raise UnitIdealError("unit ideal has no minimal primes")
        covers = _minimal_covers(_minimal_masks([g.support_mask() for g in self.gens]))
        return [
            MonomialPrime(self.context, c)
            for c in sorted(covers, key=lambda m: (m.bit_count(), m))
        ]

    def associated_primes(self):
        """Radicals of the irredundant primary components."""
        if self.is_zero():
            return [MonomialPrime(self.context, 0)]
        return sorted(
            {
                MonomialPrime(self.context, comp.radical_support_mask())
                for comp in self.irreducible_decomposition()
            },
            key=lambda p: (p.mask.bit_count(), p.mask),
        )

    def radical_support_mask(self):
        m = 0
        for g in self.gens:
            m |= g.support_mask()
        return m

    def irreducible_decomposition(self):
        """Irredundant irreducible components (pure-power-generated ideals).

        Built one generator x^a at a time by the rule of `minimal_primes`
        on pure powers, from the same two identities: (J cap K) + (m) =
        (J + m) cap (K + m), and J + (uv) = (J + u) cap (J + v) for coprime
        u, v.  A component that contains x^a stays; any other component C
        becomes C + (x_i^{a_i}) for each i in supp a; and every component
        that contains another is dropped.  A component is stored as its
        vector of pure-power exponents, 0 where a variable is absent.

        >>> ctx = VarContext(("x", "y"))
        >>> MonomialIdeal.from_strings(ctx, ["x*y"]).irreducible_decomposition()
        [(y), (x)]
        >>> MonomialIdeal.from_strings(ctx, ["x^2", "x*y"]).irreducible_decomposition()
        [(y, x^2), (x)]
        """
        if self.is_unit() or self.is_zero():
            raise (UnitIdealError if self.is_unit() else ZeroIdealError)(
                "decomposition needs a proper nonzero ideal"
            )
        n = self.context.n
        components = [(0,) * n]
        for g in self.gens:
            a = g.exps
            kept = [c for c in components if any(0 < ci <= ai for ci, ai in zip(c, a))]
            grown = {
                c[:i] + (ai,) + c[i + 1 :]
                for c in components
                if c not in kept
                for i, ai in enumerate(a)
                if ai
            }
            components = kept + list(grown)
            components = [
                c
                for c in components
                if not any(d != c and _component_contains(c, d) for d in components)
            ]
        ideals = [
            MonomialIdeal(self.context, [Monomial.variable(n, i, e) for i, e in enumerate(c) if e])
            for c in components
        ]
        return sorted(ideals, key=lambda c: tuple(map(_canon_key, c.gens)))

    def unmixed_part(self):
        """Intersection of the primary components at the minimal primes.

        At a minimal prime P the P-primary component is I T_P cap T, and
        for a monomial ideal that is the ideal of the generators with every
        variable outside P set to 1.  The unit ideal is its own unmixed
        part (the aM = M branch of the definition); the zero ideal is
        rejected.
        """
        if self.is_zero():
            raise ZeroIdealError("unmixed part of the zero ideal")
        if self.is_unit():
            return self
        parts = []
        for p in self.minimal_primes():
            keep = [(p.mask >> i) & 1 for i in range(self.context.n)]
            local = [Monomial(e * k for e, k in zip(g.exps, keep)) for g in self.gens]
            parts.append(MonomialIdeal(self.context, local))
        return intersect_all(parts)

    def height_and_dim(self):
        """(height, dim) of the ideal in the ambient polynomial ring."""
        if self.is_unit():
            raise UnitIdealError("height of the unit ideal")
        h = min(p.mask.bit_count() for p in self.minimal_primes())
        return h, self.context.n - h

    def polarize(self):
        """Standard polarization into a squarefree ideal.

        Returns (squarefree ideal in an enlarged context, number of added
        variables).  Squarefree ideals are fixed points with 0 added.
        """
        if self.is_squarefree():
            return self, 0
        caps = [1] * self.context.n
        for g in self.gens:
            for i, e in enumerate(g.exps):
                caps[i] = max(caps[i], e)
        names = []
        offsets = []
        for i, name in enumerate(self.context.names):
            offsets.append(len(names))
            names.append(name)
            for k in range(2, caps[i] + 1):
                fresh = f"{name}~{k}"
                while fresh in names or fresh in self.context.names:
                    fresh += "'"
                names.append(fresh)
        big = VarContext(tuple(names))
        new_gens = []
        for g in self.gens:
            exps = [0] * big.n
            for i, e in enumerate(g.exps):
                for k in range(e):
                    exps[offsets[i] + k] = 1
            new_gens.append(Monomial(exps))
        added = big.n - self.context.n
        return MonomialIdeal(big, new_gens), added

class MonomialPrime:
    """A monomial prime, generated exactly by its support variables."""

    __slots__ = ("context", "mask")

    def __init__(self, context, mask):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, *a):
        raise AttributeError("MonomialPrime is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, MonomialPrime)
            and self.context == other.context
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.context, self.mask))

    def ideal(self):
        n = self.context.n
        return MonomialIdeal(
            self.context,
            [Monomial.variable(n, i) for i in range(n) if (self.mask >> i) & 1],
        )

    def variable_names(self):
        return self.context.names_of_mask(self.mask)

    def size(self):
        return self.mask.bit_count()

    def __repr__(self):
        return "(" + ",".join(self.variable_names()) + ")"


def _minimal_covers(supports):
    """Minimal vertex covers (as masks) of support masks sorted by size.

    Berge's rule: a cover of the supports so far that meets the next one
    stays, and every other cover grows by each vertex of it.  A kept
    cover never contains a grown one, so only the grown covers are
    minimalised and checked against the kept ones.
    """
    covers = [0]
    for edge in supports:
        vertices = [1 << v for v in range(edge.bit_length()) if (edge >> v) & 1]
        kept = [c for c in covers if c & edge]
        grown = _minimal_masks(c | v for c in covers if not c & edge for v in vertices)
        covers = kept + [g for g in grown if not any(k & g == k for k in kept)]
    return covers


def _minimal_masks(masks):
    masks = sorted(set(masks), key=int.bit_count)
    out = []
    for m in masks:
        if not any(o & m == o for o in out):
            out.append(m)
    return out


def _component_contains(c, d):
    """The component with pure-power vector c contains the one with d."""
    return all(0 < ci <= di for ci, di in zip(c, d) if di)


def intersect_all(ideals):
    """Intersection of a non-empty list of ideals."""
    return reduce(lambda a, b: a.intersect(b), ideals)


def sum_all(ideals):
    return reduce(lambda a, b: a + b, ideals)


def quotient_height(J, ambient):
    """Height of (J + ambient)/ambient in the quotient ring T/ambient.

    The height of a prime p of T/ambient is the longest chain below it,
    i.e. the maximum of |supp p| - |supp q| over minimal primes q of
    ambient contained in p.
    """
    J._check(ambient)
    total = J + ambient
    if total.is_unit():
        raise UnitIdealError("height of the unit ideal")
    amb_min = ambient.minimal_primes()
    best = None
    for p in total.minimal_primes():
        size = p.size()
        ht = max(
            size - q.size() for q in amb_min if q.mask & p.mask == q.mask
        )
        best = ht if best is None else min(best, ht)
    return best
