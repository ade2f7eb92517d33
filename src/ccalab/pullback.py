"""Pullback presentations A inside B with exact graded linear algebra.

A family is monomial primes P_1..P_l, generated by variable sets F_i,
and a monomial ideal q.  B = (+) T/P_i, whose component i is the
polynomial ring on the variables outside F_i, and one rule gives A:
A = {b in B : b_i == b_j mod P_i + P_j + q}.  A monomial lies in a sum of
monomial ideals iff it lies in one of them, so the rule is read off
supports.  An intersection has q = 0 and antichain supports F_i, so
A = T/(P_1 cap ... cap P_l).  A congruence has two zero primes and a
proper q, so A = {(x, y) in S x S : x == y mod q} (the fiber product).

Everything is graded, and every system is solved exactly over the
family's field k (Q unless given), into which reduce_poly carries each
coefficient.  For monomial data the answers do not depend on k: its
subspaces are coordinate subspaces.  For linear forms they can: with
F = {x4}, {x5} in five variables, x1+x2, x2+x3, x1+x3 are B-regular over
Q and F_3 but not over F_2.

Monomial data is Z^n-graded: B_a has one coordinate x^a e_i per component
i where x^a survives.  B/A is decided at finitely many exponent vectors a
(see cokernel_profile), not in a window of degrees.
"""

from __future__ import annotations

from itertools import product
from operator import add
from typing import NamedTuple

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
    exps_support_mask,
    intersect_all,
    monomials_of_degree,
    sum_all,
)
from .polys import p_degree, p_in_ideal, p_of_monomial

# the conductor's two paths are compared this far past its top generator degree
_CONDUCTOR_PAD = 2


class PullbackFamily:
    """The pullback A of primes P_i and q inside (+) T/P_i (see the module docstring)."""

    # _free[i]: the variables that are nonzero in component i
    __slots__ = ("context", "primes", "q", "field", "_free", "_basis_cache")

    def __init__(self, context, primes, q, field=QQ):
        primes = tuple(primes)
        if q.context != context or any(p.context != context for p in primes):
            raise ContextMismatchError("prime or q in wrong context")
        if q.is_zero():
            # l = 1 is admitted as the degenerate A = B case
            if not primes:
                raise ValueError("need at least one component")
            if any(p.mask == 0 for p in primes):
                raise ValueError("components must be nonzero primes")
            for j, a in enumerate(primes):
                for k, b in enumerate(primes):
                    if j != k and a.mask & b.mask == a.mask:
                        raise ValueError("component supports must form an antichain")
        elif q.is_unit():
            raise ValueError("a congruence needs a proper monomial ideal")
        elif [p.mask for p in primes] != [0, 0]:
            raise ValueError("a congruence needs exactly two zero primes")
        full = (1 << context.n) - 1
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_free", tuple(full & ~p.mask for p in primes))
        object.__setattr__(self, "_basis_cache", {})

    def __setattr__(self, *a):
        raise AttributeError("PullbackFamily is immutable")

    @classmethod
    def from_supports(cls, ctx, supports, field=QQ):
        """The intersection of the primes on variable-name subsets F_1..F_l, over the field."""
        primes = [MonomialPrime(ctx, ctx.mask_of(f)) for f in supports]
        return cls(ctx, primes, MonomialIdeal.zero(ctx), field)

    @classmethod
    def congruence(cls, q):
        return cls(q.context, [MonomialPrime(q.context, 0)] * 2, q)

    @property
    def ell(self):
        return len(self.primes)

    def defining_ideal(self):
        """cap P_i for an intersection, q = 0 (the ideal presenting A)."""
        if not self.q.is_zero():
            raise ValueError("no monomial presentation for a congruence")
        return self._meet()

    def _meet(self):
        """cap P_i, computed once a family and kept in its cache."""
        if "meet" not in self._basis_cache:
            self._basis_cache["meet"] = intersect_all([p.ideal() for p in self.primes])
        return self._basis_cache["meet"]

    def is_unmixed(self):
        """Do the component primes all have the same height?"""
        return len({p.size() for p in self.primes}) == 1

    def surviving(self, exps):
        """Components in which the monomial is nonzero."""
        mask = exps_support_mask(exps)
        return [i for i, free in enumerate(self._free) if mask & ~free == 0]

    def reduce_poly(self, i, poly):
        """Image of a T-polynomial in component i: its terms that survive there, over the field."""
        bad, of = ~self._free[i], self.field.of
        return {m: y for m, c in poly.items() if exps_support_mask(m) & bad == 0 and (y := of(c))}

    # -- graded bases -------------------------------------------------------

    def basis_B(self, d):
        """Canonical basis of B_d: sorted (component, exponent tuple) pairs."""
        key = ("B", d)
        got = self._basis_cache.get(key)
        if got is None:
            got = self._basis_cache[key] = tuple(
                (i, exps)
                for i, free in enumerate(self._free)
                for exps in monomials_of_degree(self.context.n, d, free)
            )
        return got

    def basis_index(self, d):
        key = ("Bi", d)
        got = self._basis_cache.get(key)
        if got is None:
            got = self._basis_cache[key] = {pair: k for k, pair in enumerate(self.basis_B(d))}
        return got

    def a_basis(self, exps, comps):
        """A basis of A at x^a, given the components where x^a survives.

        Each element is a tuple of components: the sum of x^a e_i over them.
        x^a in q lies in every P_i + P_j + q, so it splits into one x^a e_i
        per component (alike when there is one); any other x^a needs one
        coefficient wherever it survives.
        """
        if len(comps) > 1 and self.q.contains(Monomial(exps)):
            return [(i,) for i in comps]
        return [tuple(comps)] if comps else []

    def basis_A(self, d):
        """A basis of A_d as (e, components) pairs, in the order of the monomials."""
        comps = {}
        for i, e in self.basis_B(d):
            comps.setdefault(e, []).append(i)
        return [(e, c) for e in sorted(comps) for c in self.a_basis(e, comps[e])]

    def __repr__(self):
        if not self.q.is_zero():
            return f"PullbackFamily(congruence, q={self.q!r})"
        supp = ", ".join(repr(p) for p in self.primes)
        return f"PullbackFamily({supp})"


def _diagonal(fam, poly):
    """Image of a T-polynomial along the diagonal map: one reduced part per component."""
    return tuple(fam.reduce_poly(i, poly) for i in range(fam.ell))


def mult_matrix(fam, poly, d, e):
    """Sparse columns of multiplication B_d -> B_{d+e} by a degree-e T-polynomial.

    The polynomial acts diagonally.  Column j is the image of basis_B(d)[j]
    over the basis_B(d+e) indices.
    """
    target_index = fam.basis_index(d + e)
    parts = _diagonal(fam, poly)
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
    return preimage(blocks, len(fam.basis_B(d)), fam.field)


def _piece_at(fam, exps):
    """B_a, as its index surviving component -> coordinate, and A_a inside it."""
    comps = fam.surviving(exps)
    index = {i: k for k, i in enumerate(comps)}
    rows = [{index[i]: 1 for i in group} for group in fam.a_basis(exps, comps)]
    return index, Subspace(fam.field, len(index), rows)


def _times(fam, index, exps, g):
    """x^g: B_a -> B_{a+g} (x^a e_i to x^(a+g) e_i, or 0) as a preimage block into A_{a+g}."""
    target, a_piece = _piece_at(fam, tuple(map(add, exps, g)))
    return [{target[i]: 1} if i in target else {} for i in index], a_piece


def conductor(fam):
    """The conductor A : B, computed two independent ways.

    Closed path: the sum over i of the intersections of the P_j + q over
    j != i (for a congruence both are q, and the conductor is q B), read
    off basis_B.  Direct path: degree by degree, the preimage of the
    A-piece under every projection b -> b e_i, solved without the formula.
    That preimage is exactly the conductor's piece: b = sum b e_i puts
    such a b in A, and B = sum A e_i then gives bB in A.  The two spans
    must agree on every degree swept; disagreement raises
    MethodDisagreementError (an implementation bug, never swallowed).  The
    result is kept in the family's cache, so the check runs once a family.
    """
    if "conductor" in fam._basis_cache:
        return fam._basis_cache["conductor"]
    if fam.ell == 1:
        formula = MonomialIdeal.unit(fam.context)  # degenerate A = B
    else:
        cuts = [p.ideal() + fam.q for p in fam.primes]
        formula = sum_all([intersect_all(cuts[:i] + cuts[i + 1 :]) for i in range(fam.ell)])
    unit_A = GradedSubmodule.from_ideal(fam, MonomialIdeal.unit(fam.context))
    for d in range(formula.max_gen_degree() + _CONDUCTOR_PAD + 1):
        basis = fam.basis_B(d)
        projections = [
            ([{k: 1} if j == i else {} for k, (j, _) in enumerate(basis)], unit_A.piece(d))
            for i in range(fam.ell)
        ]
        direct = preimage(projections, len(basis), fam.field)
        closed = monomial_span(fam, formula, d)
        if direct != closed:
            raise MethodDisagreementError(
                f"conductor paths disagree in degree {d}: "
                f"direct dim {direct.dim}, closed dim {closed.dim}"
            )
    fam._basis_cache["conductor"] = formula
    return formula


def monomial_span(fam, ideal, d):
    """Degree-d piece of the B-ideal generated by a monomial ideal of T.

    The coordinate subspace of the x^e e_i in basis_B(d) with x^e in the ideal.
    """
    span = Subspace(fam.field, len(fam.basis_B(d)))
    for k, (_, e) in enumerate(fam.basis_B(d)):
        if ideal.contains(Monomial(e)):
            span.insert({k: 1})
    return span


def lift_failures(fam, a, ideal):
    """The components j where a e_j is not in A, or lifts to T outside the ideal.

    a is a T-polynomial, and a e_j has one nonzero part, reduce_poly(j, a).
    A term of it in q lies in every P_i + P_j + q, so it is cut from the
    other components and needs no lift.  Any other term that survives in
    another component would need the same coefficient there, so a e_j lies
    in A iff every such term survives in component j alone; those terms
    are then its lift to T, and they must lie in the ideal.
    """
    out = []
    for j in range(fam.ell):
        lift = [m for m in fam.reduce_poly(j, a) if not fam.q.contains(Monomial(m))]
        if any(fam.surviving(m) != [j] for m in lift):
            out.append((j, "not in A"))
        elif not p_in_ideal(lift, ideal):
            out.append((j, "witness escapes the ideal"))
    return out


def _support_powers(fam):
    """The least e with x_k^e in cond + cap P_i, for each k; None if there is none."""
    return (conductor(fam) + fam._meet()).pure_powers()


def conductor_is_irrelevant_primary(fam):
    """Does the conductor cut out only the irrelevant maximal ideal of A?"""
    return None not in _support_powers(fam)


class CokernelProfile(NamedTuple):
    """Shape of B/A: per-degree dimensions, total length, socle."""

    length: int
    hilbert: tuple
    socle_dim: int
    annihilator_ok: bool


def cokernel_profile(fam):
    """Length, Hilbert function, and socle dimension of B/A.

    B/A vanishes at every a with x^a in cond + cap P_i: B_a lies in A there,
    or is 0.  Unless that ideal holds a pure power x_k^(p_k) of every
    variable (the conductor is irrelevant-primary), B/A has infinite length
    and this raises; otherwise x^a lies in it unless a < p, so B/A lives at
    those points (none for the unit ideal, A = B).  At each one with B_a !=
    A_a, S_a being the components where x^a survives: the Hilbert function
    at |a| gains |S_a| - dim A_a; the socle gains dim {v in B_a : x_k v in
    A_{a+e_k} for every k} - dim A_a; and the annihilator check asks
    x^g B_a <= A_{a+g} for each conductor generator g.
    """
    powers = _support_powers(fam)
    if None in powers:
        raise InfiniteLengthError("conductor is not irrelevant-primary")
    n = fam.context.n
    cond_gens = [g.exps for g in conductor(fam).gens]
    variables = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    hilbert = {}
    socle_dim = 0
    ann_ok = True
    for a in product(*(range(p) for p in powers)):
        index, a_piece = _piece_at(fam, a)
        codim = len(index) - a_piece.dim
        if not codim:
            continue
        hilbert[sum(a)] = hilbert.get(sum(a), 0) + codim
        socle = preimage([_times(fam, index, a, x) for x in variables], len(index), fam.field)
        socle_dim += socle.dim - a_piece.dim
        killed = preimage([_times(fam, index, a, g) for g in cond_gens], len(index), fam.field)
        ann_ok = ann_ok and killed.dim == len(index)
    return CokernelProfile(
        length=sum(hilbert.values()),
        hilbert=tuple(hilbert.get(d, 0) for d in range(max(hilbert, default=-1) + 1)),
        socle_dim=socle_dim,
        annihilator_ok=ann_ok,
    )


class GradedSubmodule:
    """An A-submodule of B given by homogeneous generators.

    A generator is given by its parts, one reduced polynomial per component,
    and kept as a (degree, parts) pair.
    """

    __slots__ = ("family", "gens", "_pieces")

    def __init__(self, family, gens):
        object.__setattr__(self, "family", family)
        kept = []
        for parts in gens:
            degrees = {sum(m) for part in parts for m in part}
            if len(degrees) > 1:
                raise ValueError("generators must be homogeneous")
            if degrees:
                kept.append((degrees.pop(), parts))
        object.__setattr__(self, "gens", tuple(kept))
        object.__setattr__(self, "_pieces", {})

    def __setattr__(self, *a):
        raise AttributeError("GradedSubmodule is immutable")

    @classmethod
    def from_ideal(cls, fam, ideal):
        """The submodule (ideal + defining)/defining of A inside B."""
        return cls(fam, [_diagonal(fam, p_of_monomial(g)) for g in ideal.gens])

    @classmethod
    def multiples(cls, fam, polys):
        """sum a B over the T-polynomials a, generated over A by the a e_i."""
        return cls(
            fam,
            [
                tuple(part if k == i else {} for k in range(fam.ell))
                for a in polys
                for i, part in enumerate(_diagonal(fam, a))
            ],
        )

    def piece(self, d):
        got = self._pieces.get(d)
        if got is not None:
            return got
        fam = self.family
        index = fam.basis_index(d)
        space = Subspace(fam.field, len(index))
        seen = set()
        by_degree = {}
        for e, parts in self.gens:
            by_degree.setdefault(e, []).append(parts)
        # one A-piece alive at a time, fetched once per generator degree
        for e in sorted(by_degree):
            if e > d:
                break
            basis = fam.basis_A(d - e)
            for parts in by_degree[e]:
                for m, comps in basis:
                    # a is the sum of x^m e_i over comps, so a g is x^m times
                    # g's parts there; x^m and every term of part i survive in
                    # component i, hence so does their product
                    v = {
                        index[(i, tuple(map(add, m, mm)))]: c
                        for i in comps
                        for mm, c in parts[i].items()
                    }
                    key = frozenset(v.items())
                    if v and key not in seen:
                        seen.add(key)
                        space.insert(v)
        self._pieces[d] = space
        return space

    def missing(self, ideal):
        """The (i, g) with x^g e_i nonzero and outside, over the generators g of the ideal."""
        fam = self.family
        out = []
        for g in ideal.gens:
            d = g.degree()
            for i in fam.surviving(g.exps):
                if not self.piece(d).contains({fam.basis_index(d)[(i, g.exps)]: 1}):
                    out.append((i, g))
        return out


class ColonResult:
    """Degreewise solution of {b in B : b I <= X}, certified up to `bound`."""

    __slots__ = ("pieces", "bound", "note")

    def __init__(self, pieces, bound, note=""):
        self.pieces = pieces
        self.bound = bound
        self.note = note

    def piece(self, d):
        return self.pieces[d]


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
    forward = [fail for a in elements for fail in lift_failures(fam, a, cond)]
    reverse = GradedSubmodule.multiples(fam, elements).missing(cond)
    return not (forward or reverse)


def regular_sequence_on_B(fam, forms):
    """Are the linear forms a B-regular sequence?

    B is the direct sum of the polynomial rings on the free variables of
    its components, and a sequence is regular on a direct sum iff it is
    regular on each summand.  Linear forms in a polynomial ring are a
    regular sequence iff they are linearly independent (Bruns-Herzog
    1.1), so r forms are B-regular iff their restrictions to every
    component span a space of dimension r over the family's field.  Anything that
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
        span = Subspace(fam.field, fam.context.n)
        for a in forms:
            span.insert({m.index(1): c for m, c in fam.reduce_poly(i, a).items()})
        if span.dim < len(forms):
            return False
    return True
