"""Pullback presentations A inside B with exact graded linear algebra.

Two modes:

* intersection: A = T/(P_1 cap ... cap P_l) sitting inside
  B = (+) T/P_i, where the P_i are monomial primes generated by variable
  sets F_i forming an antichain.  Component i of B is the polynomial ring
  on the variables outside F_i.
* congruence: A = {(x, y) in S x S : x == y mod q} inside B = S x S for a
  proper monomial ideal q (the fiber-product construction).

Everything is graded, and this layer solves every system exactly over Q.
That is exact for monomial data in any characteristic: its subspaces are
coordinate subspaces.  For linear forms the answer can depend on the
characteristic: with F = {x4}, {x5} in five variables, x1+x2, x2+x3,
x1+x3 are B-regular over Q but not over F_2.  Per-degree computations
are independent of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import (
    ContextMismatchError,
    InfiniteLengthError,
    MethodDisagreementError,
    PrecisionError,
)
from .linalg import QQ, Subspace, preimage
from .monomial import (
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    intersect_all,
    monomials_of_degree,
    sum_all,
)
from .polys import (
    p_degree,
    p_in_ideal,
    p_is_zero,
    p_linear,
    p_of_monomial,
    p_sub,
)

INTERSECTION = "intersection"
CONGRUENCE = "congruence"

_MAX_COKERNEL_DEGREE = 64
# the conductor's two paths are compared this far past its top generator degree
_CONDUCTOR_PAD = 2


class PullbackFamily:
    """A = T/(cap P_i) in (+) T/P_i, or a congruence pullback S x_{S/q} S."""

    # _free[i]: the variables that are nonzero in component i
    __slots__ = ("context", "mode", "primes", "q", "_free", "_basis_cache")

    def __init__(self, context, mode, primes=None, q=None):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_basis_cache", {})
        full = (1 << context.n) - 1
        if mode == INTERSECTION:
            primes = tuple(primes)
            # l = 1 is admitted as the degenerate A = B case
            if len(primes) < 1:
                raise ValueError("need at least one component")
            for a in primes:
                if a.context != context:
                    raise ContextMismatchError("prime in wrong context")
                if a.mask == 0:
                    raise ValueError("components must be nonzero primes")
            for j, a in enumerate(primes):
                for k, b in enumerate(primes):
                    if j != k and a.mask & b.mask == a.mask:
                        raise ValueError("component supports must form an antichain")
            object.__setattr__(self, "primes", primes)
            object.__setattr__(self, "q", None)
            object.__setattr__(self, "_free", tuple(full & ~p.mask for p in primes))
        elif mode == CONGRUENCE:
            if q is None or q.is_unit():
                raise ValueError("congruence mode needs a proper monomial ideal")
            if q.context != context:
                raise ContextMismatchError("q in wrong context")
            object.__setattr__(self, "primes", None)
            object.__setattr__(self, "q", q)
            object.__setattr__(self, "_free", (full, full))
        else:
            raise ValueError(f"unknown mode {mode!r}")

    def __setattr__(self, *a):
        raise AttributeError("PullbackFamily is immutable")

    @classmethod
    def from_supports(cls, ctx, supports):
        """Intersection mode from variable-name subsets F_1..F_l."""
        primes = tuple(MonomialPrime(ctx, ctx.mask_of(f)) for f in supports)
        return cls(ctx, INTERSECTION, primes=primes)

    @classmethod
    def congruence(cls, q):
        return cls(q.context, CONGRUENCE, q=q)

    @property
    def ell(self):
        return len(self._free)

    def full_mask(self):
        return (1 << self.context.n) - 1

    def defining_ideal(self):
        """cap P_i in intersection mode (the ideal presenting A)."""
        if self.mode != INTERSECTION:
            raise ValueError("no monomial presentation in congruence mode")
        return intersect_all([p.ideal() for p in self.primes])

    def surviving(self, exps):
        """Components in which the monomial is nonzero."""
        mask = _support_mask(exps)
        return [i for i, free in enumerate(self._free) if mask & ~free == 0]

    def reduce_poly(self, i, poly):
        """Image of a T-polynomial in component i."""
        if self.mode == CONGRUENCE:
            return dict(poly)
        bad = ~self._free[i]
        return {m: c for m, c in poly.items() if _support_mask(m) & bad == 0}

    # -- graded bases -------------------------------------------------------

    def basis_B(self, d):
        """Canonical basis of B_d: sorted (component, exponent tuple) pairs."""
        key = ("B", d)
        got = self._basis_cache.get(key)
        if got is None:
            got = []
            for i in range(self.ell):
                for exps in monomials_of_degree(self.context.n, d, self._free[i]):
                    got.append((i, exps))
            got = tuple(got)
            self._basis_cache[key] = got
        return got

    def basis_index(self, d):
        key = ("Bi", d)
        got = self._basis_cache.get(key)
        if got is None:
            got = {pair: k for k, pair in enumerate(self.basis_B(d))}
            self._basis_cache[key] = got
        return got

    def dim_B(self, d):
        return len(self.basis_B(d))

    def dim_A(self, d):
        return len(self.basis_A(d))

    def basis_A(self, d):
        """A basis of A_d as (e, components) pairs, in the order of the monomials.

        The pair stands for the sum of x^e e_i over its components.  x^e is
        nonzero in A iff it survives in some component, so the monomials
        and their components are read off the cached basis_B(d).  In
        congruence mode x^e in q splits into (x^e, 0) and (0, x^e).
        """
        comps = {}
        for i, e in self.basis_B(d):
            comps.setdefault(e, []).append(i)
        out = []
        for e in sorted(comps):
            if self.mode == CONGRUENCE and self.q.contains(Monomial(e)):
                out.extend((e, (i,)) for i in comps[e])
            else:
                out.append((e, tuple(comps[e])))
        return out

    def __repr__(self):
        if self.mode == CONGRUENCE:
            return f"PullbackFamily(congruence, q={self.q!r})"
        supp = ", ".join(repr(p) for p in self.primes)
        return f"PullbackFamily({supp})"


def _support_mask(exps):
    mask = 0
    for k, e in enumerate(exps):
        if e:
            mask |= 1 << k
    return mask


class BElement:
    """An element of B: one polynomial per component, already reduced.

    The lift route: in_A decides membership element by element and returns
    the lift to T that lift_failures checks; the graded solves use pieces.
    """

    __slots__ = ("family", "parts")

    def __init__(self, family, parts):
        object.__setattr__(self, "family", family)
        object.__setattr__(
            self,
            "parts",
            tuple(family.reduce_poly(i, p) for i, p in enumerate(parts)),
        )

    def __setattr__(self, *a):
        raise AttributeError("BElement is immutable")

    @classmethod
    def from_T(cls, family, poly):
        """Image of a T-polynomial along the diagonal map."""
        return cls(family, tuple(poly for _ in range(family.ell)))

    @classmethod
    def unit(cls, family, i, m):
        """The basis element of B: monomial m in component i."""
        return cls(
            family,
            tuple({m: Fraction(1)} if j == i else {} for j in range(family.ell)),
        )

    def component(self, i):
        """Multiplication by the idempotent e_i: zero out the other parts."""
        return BElement(
            self.family,
            tuple(p if j == i else {} for j, p in enumerate(self.parts)),
        )

    def is_zero(self):
        return all(p_is_zero(p) for p in self.parts)

    def degree(self):
        """Common degree if homogeneous (None for 0 or inhomogeneous)."""
        degs = {p_degree(p) for p in self.parts if not p_is_zero(p)}
        return degs.pop() if len(degs) == 1 else None

    def vector(self, d):
        """Sparse coordinates over basis_B(d); raises if support leaves it."""
        index = self.family.basis_index(d)
        return {
            index[(i, m)]: c for i, part in enumerate(self.parts) for m, c in part.items()
        }

    def in_A(self):
        """Membership in A, with a lift to T as witness in intersection mode.

        Intersection mode: true iff for every monomial all components in
        which it survives carry equal coefficients; the witness collects
        those common coefficients.  Congruence mode: true iff the
        difference of the two coordinates lies in q (witness None).
        """
        fam = self.family
        if fam.mode == CONGRUENCE:
            return (p_in_ideal(p_sub(self.parts[0], self.parts[1]), fam.q), None)
        candidate = {}
        for part in self.parts:
            for m, c in part.items():
                if candidate.setdefault(m, c) != c:
                    return (False, None)
        for m, c in candidate.items():
            for j in fam.surviving(m):
                if self.parts[j].get(m, Fraction(0)) != c:
                    return (False, None)
        return (True, candidate)

    def __repr__(self):
        from .polys import p_format

        inner = ", ".join(p_format(p, self.family.context) for p in self.parts)
        return f"({inner})"


def mult_matrix(fam, poly, d, e):
    """Sparse columns of multiplication B_d -> B_{d+e} by a degree-e T-polynomial.

    The polynomial acts diagonally.  Column j is the image of basis_B(d)[j]
    over the basis_B(d+e) indices.
    """
    target_index = fam.basis_index(d + e)
    parts = [fam.reduce_poly(i, poly) for i in range(fam.ell)]
    return [
        {
            target_index[(i, tuple(x + y for x, y in zip(mm, m)))]: c
            for mm, c in parts[i].items()
        }
        for (i, m) in fam.basis_B(d)
    ]


def stable_subspace(fam, x_submodule, multipliers, d):
    """{v in B_d : g v in X_{d + deg g} for every multiplier g}, as a Subspace.

    X is a GradedSubmodule and each multiplier a T-polynomial acting diagonally.
    """
    blocks = []
    for g in multipliers:
        e = p_degree(g)
        if e is None:
            raise ValueError("multipliers must be homogeneous and nonzero")
        blocks.append((mult_matrix(fam, g, d, e), x_submodule.piece(d + e)))
    return preimage(blocks, fam.dim_B(d), QQ)


def conductor(fam):
    """The conductor A : B, computed two independent ways.

    Closed path: the sum over i of the intersections of the other
    components (intersection mode) or q itself (congruence mode, where the
    conductor is q B), read off basis_B.  Direct path: degree by degree, the
    preimage of the A-piece under every projection b -> b e_i, solved
    without the formula.  That preimage is exactly the conductor's piece:
    b = sum b e_i puts such a b in A, and B = sum A e_i then gives bB in A.
    The two spans must agree on every degree swept; disagreement raises
    MethodDisagreementError (an implementation bug, never swallowed).  The
    result is kept in the family's cache, so the check runs once a family.
    """
    if "conductor" in fam._basis_cache:
        return fam._basis_cache["conductor"]
    if fam.mode == CONGRUENCE:
        formula = fam.q
    elif fam.ell == 1:
        formula = MonomialIdeal.unit(fam.context)  # degenerate A = B
    else:
        primes = [p.ideal() for p in fam.primes]
        formula = sum_all(
            [
                intersect_all([q for j, q in enumerate(primes) if j != i])
                for i in range(fam.ell)
            ]
        )
    unit_A = GradedSubmodule.unit_A(fam)
    for d in range(formula.max_gen_degree() + _CONDUCTOR_PAD + 1):
        basis = fam.basis_B(d)
        projections = [
            ([{k: 1} if j == i else {} for k, (j, _) in enumerate(basis)], unit_A.piece(d))
            for i in range(fam.ell)
        ]
        direct = preimage(projections, len(basis), QQ)
        closed = monomial_span(fam, formula, d)
        if direct != closed:
            raise MethodDisagreementError(
                f"conductor paths disagree in degree {d}: "
                f"direct dim {direct.dim}, closed dim {closed.dim}"
            )
    fam._basis_cache["conductor"] = formula
    return formula


def monomial_components(fam, monomials):
    """The nonzero x^g e_i over the monomials g: a monomial ideal in B."""
    return [
        BElement.unit(fam, i, g.exps) for g in monomials for i in fam.surviving(g.exps)
    ]


def monomial_span(fam, ideal, d):
    """Degree-d piece of the B-ideal generated by a monomial ideal of T.

    The coordinate subspace of the x^e e_i in basis_B(d) with x^e in the ideal.
    """
    span = Subspace(QQ, fam.dim_B(d))
    for k, (_, e) in enumerate(fam.basis_B(d)):
        if ideal.contains(Monomial(e)):
            span.insert({k: 1})
    return span


def lift_failures(fam, a, ideal):
    """The components j where a e_j is not in A, or lifts to T outside the ideal.

    a is a T-polynomial.  Congruence membership has no lift: there a e_j
    in A already puts a in q, which is the conductor.
    """
    belt = BElement.from_T(fam, a)
    out = []
    for j in range(fam.ell):
        inside, witness = belt.component(j).in_A()
        if not inside:
            out.append((j, "not in A"))
        elif witness is not None and not p_in_ideal(witness, ideal):
            out.append((j, "witness escapes the ideal"))
    return out


def conductor_is_irrelevant_primary(fam):
    """Does the conductor cut out only the irrelevant maximal ideal?"""
    cond = conductor(fam)
    if fam.mode == CONGRUENCE:
        total = cond
    else:
        total = cond + fam.defining_ideal()
    if total.is_unit():
        return True  # A = B, nothing to support
    primes = total.minimal_primes()
    return len(primes) == 1 and primes[0].mask == fam.full_mask()


@dataclass(frozen=True)
class CokernelProfile:
    """Shape of B/A: per-degree dimensions, total length, socle."""

    length: int
    hilbert: tuple
    socle_dim: int
    annihilator_ok: bool


def cokernel_profile(fam):
    """Length, Hilbert function, and socle dimension of B/A.

    Requires the conductor to be primary to the irrelevant maximal ideal
    (otherwise B/A has infinite length).  A single vanishing degree
    certifies stabilization because B is generated over A in degree 0;
    the next degree is still checked at runtime.
    """
    cond = conductor(fam)
    if not conductor_is_irrelevant_primary(fam):
        raise InfiniteLengthError("conductor is not irrelevant-primary")
    variables = [p_linear(fam.context.n, [j]) for j in range(fam.context.n)]
    unit_A = GradedSubmodule.unit_A(fam)
    hilbert = []
    socle_total = 0
    d = 0
    while True:
        codim = fam.dim_B(d) - fam.dim_A(d)
        if codim == 0 and d > 0:
            nxt = fam.dim_B(d + 1) - fam.dim_A(d + 1)
            if nxt != 0:
                raise MethodDisagreementError(
                    "cokernel failed to stabilize after a zero degree"
                )
            break
        hilbert.append(codim)
        if codim:
            w = stable_subspace(fam, unit_A, variables, d)
            socle_total += w.dim - fam.dim_A(d)
        d += 1
        if d > _MAX_COKERNEL_DEGREE:
            raise InfiniteLengthError("cokernel did not stabilize in bounded degree")
    while hilbert and hilbert[-1] == 0:
        hilbert.pop()
    # the conductor annihilates B/A by definition; check that every
    # generator maps B_d into A wherever the cokernel is nonzero
    cond_polys = [p_of_monomial(g) for g in cond.gens]
    ann_ok = all(
        stable_subspace(fam, unit_A, cond_polys, d).dim == fam.dim_B(d)
        for d, codim in enumerate(hilbert)
        if codim
    )
    return CokernelProfile(
        length=sum(hilbert),
        hilbert=tuple(hilbert),
        socle_dim=socle_total,
        annihilator_ok=ann_ok,
    )


class GradedSubmodule:
    """An A-submodule of B given by homogeneous generators."""

    __slots__ = ("family", "gens", "_pieces")

    def __init__(self, family, gens):
        object.__setattr__(self, "family", family)
        gens = tuple(g for g in gens if not g.is_zero())
        for g in gens:
            if g.degree() is None:
                raise ValueError("generators must be homogeneous")
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "_pieces", {})

    def __setattr__(self, *a):
        raise AttributeError("GradedSubmodule is immutable")

    @classmethod
    def from_ideal(cls, fam, ideal):
        """The submodule (ideal + defining)/defining of A inside B."""
        return cls(
            fam, [BElement.from_T(fam, p_of_monomial(g)) for g in ideal.gens]
        )

    @classmethod
    def unit_A(cls, fam):
        """A itself, generated by 1: one per family, kept in the family's cache."""
        got = fam._basis_cache.get("unit_A")
        if got is None:
            one = BElement.from_T(fam, p_of_monomial(Monomial.one(fam.context.n)))
            got = fam._basis_cache["unit_A"] = cls(fam, [one])
        return got

    @classmethod
    def multiples(cls, fam, polys):
        """sum a B over the T-polynomials a, generated over A by the a e_i."""
        return cls(
            fam,
            [BElement.from_T(fam, a).component(i) for a in polys for i in range(fam.ell)],
        )

    def piece(self, d):
        got = self._pieces.get(d)
        if got is not None:
            return got
        fam = self.family
        index = fam.basis_index(d)
        space = Subspace(QQ, len(index))
        seen = set()
        by_degree = {}
        for g in self.gens:
            by_degree.setdefault(g.degree(), []).append(g)
        # one A-piece alive at a time, fetched once per generator degree
        for e in sorted(by_degree):
            if e > d:
                break
            basis = fam.basis_A(d - e)
            for g in by_degree[e]:
                for m, comps in basis:
                    # a is the sum of x^m e_i over comps, so a g is x^m times
                    # g's parts there; x^m and every term of part i survive in
                    # component i, hence so does their product
                    v = {
                        index[(i, tuple(map(add, m, mm)))]: c
                        for i in comps
                        for mm, c in g.parts[i].items()
                    }
                    key = frozenset(v.items())
                    if v and key not in seen:
                        seen.add(key)
                        space.insert(v)
        self._pieces[d] = space
        return space

    def missing(self, ideal):
        """The x^g e_i, over the generators g of the ideal, outside this submodule."""
        return [
            t
            for t in monomial_components(self.family, ideal.gens)
            if not self.piece(t.degree()).contains(t.vector(t.degree()))
        ]


@dataclass(frozen=True)
class ColonResult:
    """Degreewise solution of {b in B : b I <= X}, certified up to `bound`."""

    pieces: dict
    bound: int
    note: str = ""

    def piece(self, d):
        return self.pieces[d]

    def equals_all_of_B(self, fam):
        return all(
            space.dim == fam.dim_B(d) for d, space in self.pieces.items()
        )


def colon_in_B(fam, x_submodule, ideal, bound=None):
    """{b in B : b*I inside X}, degree by degree up to the bound.

    Default bound: max generator degree of I plus the variable count.  A
    bound below the max generator degree raises PrecisionError.  Bound
    insufficiency is inherent (the result is a window, not a
    presentation) and is recorded in the result metadata.
    """
    if ideal.is_zero():
        raise ValueError("colon by the zero ideal is all of B; not represented")
    if bound is None:
        bound = ideal.max_gen_degree() + fam.context.n
    if bound < ideal.max_gen_degree():
        raise PrecisionError(
            f"degree bound {bound} is below the ideal's generator degree "
            f"{ideal.max_gen_degree()}"
        )
    gens = [p_of_monomial(g) for g in ideal.gens]
    pieces = {d: stable_subspace(fam, x_submodule, gens, d) for d in range(bound + 1)}
    return ColonResult(pieces=pieces, bound=bound, note=f"verified up to degree {bound}")


def verify_generation(fam, cond, elements):
    """Does sum a_i B equal the conductor, as subsets of A?

    Containment <=: every a_i e_j lies in A and lifts into the conductor
    ideal.  Containment >=: every conductor generator is solved for inside
    the degree-matched piece of sum a_i B.  Elements must be homogeneous.
    """
    for a in elements:
        if p_degree(a) is None:
            raise ValueError("generation elements must be homogeneous and nonzero")
    details = {"forward": [], "reverse": []}
    for idx, a in enumerate(elements):
        details["forward"].extend((idx, j, why) for j, why in lift_failures(fam, a, cond))
    generated = GradedSubmodule.multiples(fam, elements)
    details["reverse"].extend((repr(t), "not generated") for t in generated.missing(cond))
    return not (details["forward"] or details["reverse"]), details


def regular_sequence_on_B(fam, forms):
    """Are the linear forms a B-regular sequence?

    B is the direct sum of the polynomial rings on the free variables of
    its components, and a sequence is regular on a direct sum iff it is
    regular on each summand.  Linear forms in a polynomial ring are a
    regular sequence iff they are linearly independent (Bruns-Herzog
    1.1), so r forms are B-regular iff their restrictions to every
    component span a space of dimension r, decided over Q.  Anything that
    is not a linear form raises ValueError.

    >>> from ccalab.monomial import make_context
    >>> from ccalab.polys import p_linear
    >>> fam = PullbackFamily.from_supports(make_context(5), [["x4"], ["x5"]])
    >>> forms = [p_linear(5, [0, 1]), p_linear(5, [1, 2]), p_linear(5, [0, 2])]
    >>> regular_sequence_on_B(fam, forms)  # over F_2 the rank is 2: not regular
    True
    """
    for a in forms:
        if p_degree(a) != 1:
            raise ValueError("elements must be linear forms")
    for i in range(fam.ell):
        span = Subspace(QQ, fam.context.n)
        for a in forms:
            span.insert({m.index(1): c for m, c in fam.reduce_poly(i, a).items()})
        if span.dim < len(forms):
            return False
    return True
