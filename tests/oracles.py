"""Independent brute-force oracles used to derive frozen test values.

These deliberately avoid the production code paths they check: membership
sweeps over all monomials up to a degree bound, subset enumeration for
complexes and for their non-face ideals (the reference for the round trip
through complex_of), reduced homology from the dense boundary matrices of
the complex itself, ranked by a fraction-free elimination (the engine's
original route and rank routine, the reference for its cone and nerve
shortcuts and for its sparse columns and ranks), a Betti sweep that
computes every subset's restriction afresh by that route, the engine's
original pd read off the top index of a Betti table (the reference for
the sweep over vertex types), the engine's
original link sweep (each link built on its own and its dimension read
from the link) for both depth by local cohomology and
Reisner's test, exhaustive prime enumeration for minimal primes, the
engine's original splitting loop for irreducible components (with its
irredundance by inclusion, itself checked against the older loop that
tests each component against the intersection of the others) as the
reference for the components built one generator at a time, the
engine's original unmixed part (primary components grouped from those
split ones) as the reference for the rule read off the generators, a dense
echelon (the engine's original one) as the reference for the sparse one,
the engine's original element algebra of B (`BElement`, with its
coefficient-matching membership test) and its lift route
(`lift_failures_by_belement`) as the reference for the support test,
the engine's original per-mode constructions of the pullback layer, its
original element-by-element membership tests for the conductor and its
annihilation of B/A, its original irrelevant-primary test and total-degree
sweep for B/A (the references for the capped multidegrees), its original
pure-power probe, its original two-colon endomorphism-ring
comparison for the trace check, and its original degree sweep for
B-regular sequences; for the truncated-series layer, the engine's
original symmetry test (the pairing s -> F - s and the genus count) as
the reference for the genus rule, and truncated subalgebras spanned by
the products of their generators as the reference for the closure loop.
"""

from fractions import Fraction
from itertools import combinations

from ccalab.complexes import BettiTable, SimplicialComplex, complex_of
from ccalab.linalg import QQ, Subspace
from ccalab.errors import UnitIdealError, ZeroIdealError
from ccalab.monomial import (
    Monomial,
    MonomialIdeal,
    _canon_key,
    intersect_all,
    monomials_of_degree,
)
from ccalab.polys import p_degree, p_in_ideal, p_linear, p_of_monomial
from ccalab.pullback import (
    CokernelProfile,
    GradedSubmodule,
    colon_in_B,
    conductor,
    stable_subspace,
)
from ccalab.s2 import trace_ideal_check


def all_monomials_up_to(n, max_degree):
    out = []
    for d in range(max_degree + 1):
        out.extend(Monomial(e) for e in monomials_of_degree(n, d))
    return out


def same_members_up_to(i, j, max_degree):
    """Two ideals contain exactly the same monomials up to the bound."""
    n = i.context.n
    return all(
        i.contains(m) == j.contains(m) for m in all_monomials_up_to(n, max_degree)
    )


def intersection_by_membership(i, j, max_degree):
    """Minimal generators of I cap J found by a plain membership sweep.

    Correct as long as max_degree reaches the largest generator degree of
    the true intersection.
    """
    members = [
        m
        for m in all_monomials_up_to(i.context.n, max_degree)
        if i.contains(m) and j.contains(m)
    ]
    return MonomialIdeal(i.context, members)


def minimal_primes_by_enumeration(i):
    """All inclusion-minimal monomial primes containing I, by enumeration."""
    n = i.context.n
    containing = []
    for size in range(n + 1):
        for supp in combinations(range(n), size):
            mask = sum(1 << k for k in supp)
            # I <= (supp) iff every generator has a variable in supp
            if all(g.support_mask() & mask for g in i.gens):
                containing.append(frozenset(supp))
    minimal = [
        s for s in containing if not any(t < s for t in containing)
    ]
    return sorted(minimal, key=lambda s: (len(s), sorted(s)))


def unmixed_part_by_primary_components(i):
    """The unmixed part of a proper nonzero ideal by the engine's original route.

    The irreducible components are grouped by radical into primary
    components, and those at the minimal primes (found by enumeration)
    are intersected.
    """
    groups = {}
    for comp in irreducible_decomposition_by_splitting(i):
        groups.setdefault(comp.radical_support_mask(), []).append(comp)
    minimal = [sum(1 << k for k in s) for s in minimal_primes_by_enumeration(i)]
    return intersect_all([intersect_all(groups[mask]) for mask in minimal])


def components_by_splitting(i):
    """The engine's original splitting loop, before its irredundance pass.

    Standard splitting: pick a generator m = x^a * rest with mixed
    support and split I = (I + (x^a)) cap (I + (rest)); recurse.  Returns
    every leaf once, sorted, redundant ones included.
    """
    if i.is_unit() or i.is_zero():
        raise (UnitIdealError if i.is_unit() else ZeroIdealError)(
            "decomposition needs a proper nonzero ideal"
        )
    components = []
    stack = [i]
    seen = set()
    while stack:
        J = stack.pop()
        if J in seen:
            continue
        seen.add(J)
        split = None
        for g in J.gens:
            supp = [k for k, e in enumerate(g.exps) if e]
            if len(supp) >= 2:
                k = supp[0]
                a = g.exps[k]
                left = Monomial.variable(i.context.n, k, a)
                right = g // Monomial.variable(i.context.n, k, a)
                split = (left, right)
                break
        if split is None:
            components.append(J)
        else:
            left, right = split
            stack.append(MonomialIdeal(i.context, J.gens + (left,)))
            stack.append(MonomialIdeal(i.context, J.gens + (right,)))
    return sorted(set(components), key=lambda c: tuple(map(_canon_key, c.gens)))


def _contains_ideal(big, small):
    return all(big.contains(g) for g in small.gens)


def irredundant_by_inclusion(components):
    """The engine's original irredundance pass, after the splitting loop.

    Keeps the components that contain no other one, in input order.

    Monomial ideals form a distributive lattice under cap and +, where an
    irreducible ideal is meet-prime: it contains A cap B only if it
    contains A or B.  So a component contains the intersection of the
    others iff it contains one of them.  The input has no repeats.
    """
    return [
        c for c in components if not any(d is not c and _contains_ideal(c, d) for d in components)
    ]


def irreducible_decomposition_by_splitting(i):
    """The irredundant irreducible components by the engine's original route."""
    return irredundant_by_inclusion(components_by_splitting(i))


def irredundant_by_intersections(components):
    """The engine's original irredundance loop.

    Drops the first component that contains the intersection of the
    others, and restarts, until no component does.
    """
    comps = list(components)
    changed = True
    while changed and len(comps) > 1:
        changed = False
        for k in range(len(comps)):
            if _contains_ideal(comps[k], intersect_all(comps[:k] + comps[k + 1 :])):
                comps.pop(k)
                changed = True
                break
    return comps


def faces_by_membership(ideal):
    """All faces of the complex of a squarefree ideal, by 2^n enumeration."""
    n = ideal.context.n
    faces = []
    for mask in range(1 << n):
        mono = Monomial(tuple(1 if (mask >> k) & 1 else 0 for k in range(n)))
        if not ideal.contains(mono):
            faces.append(mask)
    return sorted(faces)


def nonface_ideal(cplx):
    """The squarefree ideal of the non-faces of a complex, by 2^n enumeration."""
    n = cplx.context.n
    nonfaces = [m for m in range(1 << n) if not any(m & f == m for f in cplx.facets)]
    return MonomialIdeal(cplx.context, [tuple((m >> k) & 1 for k in range(n)) for m in nonfaces])


def rank_by_bareiss(rows, field):
    """Rank of an integer matrix over the given field, by fraction-free elimination.

    Each row below the pivot row becomes mrc*row - mic*pivot_row.  Over Q
    the new entries are divided exactly by the previous pivot (Bareiss);
    over F_p they are reduced mod p and the previous pivot stays 1.
    """
    p = field.p
    m = [[x % p for x in r] for r in rows] if p else [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(nc):
        for i in range(r, nr):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        row_r = m[r]
        mrc = row_r[c]
        for row_i in m[r + 1:]:
            mic = row_i[c]
            if not mic and mrc == prev:
                continue  # the update would leave the row unchanged
            if p:
                for j in range(c + 1, nc):
                    row_i[j] = (mrc * row_i[j] - mic * row_r[j]) % p
            else:
                for j in range(c + 1, nc):
                    # Bareiss condensation: the division is exact
                    row_i[j] = (mrc * row_i[j] - mic * row_r[j]) // prev
        if not p:
            prev = mrc
        r += 1
        if r == nr:
            break
    return r


def dense_boundary_matrix(lower, upper):
    """Dense boundary matrix from faces `upper` (size k+1) to faces `lower` (size k).

    Row i is lower[i] and column j is upper[j].  Entry signs follow the
    position of the removed vertex, ascending.
    """
    index = {f: i for i, f in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for j, f in enumerate(upper):
        sign, rest = 1, f
        while rest:
            v = rest & -rest  # the lowest vertex not yet removed
            rows[index[f & ~v]][j] = sign
            sign, rest = -sign, rest & ~v
    return rows


def homology_by_boundary_matrices(cplx, field):
    """Ranks {i: dim H~_i} for i = -1 .. dim from the complex's own boundary matrices.

    The matrices are dense_boundary_matrix and their ranks rank_by_bareiss,
    so neither the engine's sparse columns nor its echelon is used.
    """
    layers = cplx.faces_by_dim()  # layers[k] = faces of cardinality k
    top = len(layers) - 1
    # Boundary maps are indexed by face cardinality, not by dimension:
    # d_k maps span(layers[k]) -> span(layers[k-1]) for k >= 1, so faces of
    # cardinality k sit in homological degree k - 1.
    ranks = {}
    for k in range(1, top + 1):
        m = dense_boundary_matrix(layers[k - 1], layers[k])
        ranks[k] = rank_by_bareiss(m, field) if layers[k] else 0
    out = {}
    for k in range(0, top + 1):  # homological degree i = k - 1
        dim_ck = len(layers[k])
        rk_in = ranks.get(k, 0)
        rk_out = ranks.get(k + 1, 0)
        out[k - 1] = dim_ck - rk_in - rk_out
    return out


def betti_by_full_sweep(ideal, field):
    """Hochster's formula with the homology of all 2^n restrictions computed.

    beta[i, sigma] = dim H~_{|sigma| - i - 2} of the restriction to sigma,
    with no restriction shared between subsets and every homology taken
    from boundary matrices.
    """
    cplx = complex_of(ideal)
    entries = {}
    for mask in range(1 << ideal.context.n):
        size = mask.bit_count()
        restriction = SimplicialComplex(cplx.context, [f & mask for f in cplx.facets])
        for j, r in homology_by_boundary_matrices(restriction, field).items():
            if r and size - j - 2 >= 0:
                entries[(size - j - 2, mask)] = r
    return BettiTable(ideal.context, field, entries)


def pd_by_betti_table(table):
    """pd of T/I: one above the ideal's last Betti index (0 for an empty table)."""
    return max((i for (i, _) in table.entries), default=-1) + 1


def _links(cplx):
    """(sigma, lk sigma) for every face sigma of the complex."""
    for face in cplx.faces():
        yield face, SimplicialComplex(
            cplx.context, [f & ~face for f in cplx.facets if f & face == face]
        )


def depth_by_link_sweep(ideal, field):
    """depth of T/I by the link formula, every link's homology from its boundary matrices.

    H^i_m(T/I) is nonzero iff some face sigma has H~_{i - |sigma| - 1}(lk sigma)
    nonzero.  A non-squarefree ideal is polarized first, and each variable
    the polarization adds raises the depth by one, so those come off.
    """
    if ideal.is_zero():
        return ideal.context.n
    sf, added = ideal.polarize()
    best = None
    for face, lk in _links(complex_of(sf)):
        for j, r in homology_by_boundary_matrices(lk, field).items():
            if r:
                i = j + face.bit_count() + 1
                best = i if best is None else min(best, i)
    return best - added


def cohen_macaulay_by_link_sweep(cplx, field):
    """Reisner's criterion with each link's dimension taken from the link itself."""
    for _face, lk in _links(cplx):
        d = lk.dim()
        for j, r in homology_by_boundary_matrices(lk, field).items():
            if j < d and r:
                return False
    return True


def sieve_semigroup(gens, limit):
    """Membership table of the numerical semigroup up to the limit."""
    table = [False] * (limit + 1)
    table[0] = True
    for x in range(1, limit + 1):
        table[x] = any(g <= x and table[x - g] for g in gens)
    return table


def symmetric_by_pairing(h):
    """Gaps pair with members under s -> F - s, and 2 * genus = F + 1."""
    f = h.frobenius()
    return all(
        h.contains(s) != h.contains(f - s) for s in range(0, f + 1)
    ) and len(h.gaps()) * 2 == f + 1


def subalgebra_by_products(gens, field, precision):
    """The unital subalgebra of k[t]/(t^N) generated by the series gens.

    It is the span of 1 and of every product prod g_i^{a_i}; that product
    has valuation sum a_i v(g_i), so only those with sum < N are nonzero.
    Products are dense coefficient lists; each generator needs v(g) >= 1.
    """
    vecs, vals = [], []
    for g in gens:
        vec = [field.of(g.get(e, 0)) for e in range(precision)]
        if any(vec):
            vecs.append(vec)
            vals.append(next(e for e, x in enumerate(vec) if x))
    if 0 in vals:
        raise ValueError("a generator of valuation 0 has products of every length")

    def times(a, b):
        out = [field.of(0)] * precision
        for i, x in enumerate(a):
            if x:
                for j in range(precision - i):
                    out[i + j] = field.add(out[i + j], field.mul(x, b[j]))
        return out

    span = Subspace(field, precision)

    def extend(first, product, valuation):
        # one product per multiset of generators: indices never decrease
        span.insert(product)
        for k in range(first, len(vecs)):
            if valuation + vals[k] < precision:
                extend(k, times(product, vecs[k]), valuation + vals[k])

    extend(0, [field.one()] + [field.of(0)] * (precision - 1), 0)
    return span


# -- dense reference for linalg.Subspace / linalg.nullspace --------------


class DenseSubspace:
    """A subspace of field^ambient, kept as a fully reduced echelon basis.

    Basis rows have pivot entry 1, pivots strictly increasing, and every
    pivot column is zero in all other rows, so two Subspace objects are
    equal iff they describe the same subspace.
    """

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field, ambient, vectors=()):
        self.field = field
        self.ambient = ambient
        self.rows = []
        self.pivots = []
        for v in vectors:
            self.insert(v)

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v):
        """Residual of v after eliminating all basis pivots."""
        f = self.field
        v = [f.of(x) for x in v]
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                for j in range(p, self.ambient):
                    v[j] = f.add(v[j], f.neg(f.mul(c, row[j])))
        return v

    def contains(self, v):
        return not any(self.reduce(v))

    def insert(self, v):
        """Add v to the span; returns True if the dimension grew."""
        f = self.field
        r = self.reduce(v)
        piv = next((j for j, x in enumerate(r) if x), None)
        if piv is None:
            return False
        inv = f.inv(r[piv])
        r = [f.mul(inv, x) for x in r]
        # keep the basis fully reduced
        for row in self.rows:
            c = row[piv]
            if c:
                for j in range(piv, self.ambient):
                    row[j] = f.add(row[j], f.neg(f.mul(c, r[j])))
        k = 0
        while k < len(self.pivots) and self.pivots[k] < piv:
            k += 1
        self.rows.insert(k, r)
        self.pivots.insert(k, piv)
        return True

    def contains_subspace(self, other):
        return all(self.contains(r) for r in other.rows)

    def __eq__(self, other):
        if not isinstance(other, DenseSubspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient == other.ambient
            and self.pivots == other.pivots
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"DenseSubspace(dim={self.dim}, ambient={self.ambient})"


def dense_nullspace(rows, ncols, field):
    """Solution space of rows * x = 0 as a DenseSubspace of field^ncols."""
    f = field
    m = [[f.of(x) for x in r] for r in rows]
    nr = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nr):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        inv = f.inv(m[r][c])
        m[r] = [f.mul(inv, x) for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                fac = m[i][c]
                m[i] = [f.add(a, f.neg(f.mul(fac, b))) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for c in free:
        v = [f.of(0)] * ncols
        v[c] = f.one()
        for i, pc in enumerate(pivots):
            v[pc] = f.neg(m[i][c])
        basis.append(v)
    return DenseSubspace(field, ncols, basis)


# -- the element algebra of B and its lift route -----------------------------


class BElement:
    """An element of B: one polynomial per component, reduced in that component."""

    __slots__ = ("family", "parts")

    def __init__(self, family, parts):
        self.family = family
        self.parts = tuple(family.reduce_poly(i, p) for i, p in enumerate(parts))

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
        return not any(self.parts)

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
        if not fam.q.is_zero():
            first, second = self.parts
            diff = dict(first)
            for m, c in second.items():
                diff[m] = diff.get(m, Fraction(0)) - c
            return (p_in_ideal({m: c for m, c in diff.items() if c}, fam.q), None)
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


def lift_failures_by_belement(fam, a, ideal):
    """The engine's original lift route: a e_j through BElement.in_A and its witness."""
    belt = BElement.from_T(fam, a)
    out = []
    for j in range(fam.ell):
        inside, witness = belt.component(j).in_A()
        if not inside:
            out.append((j, "not in A"))
        elif witness is not None and not p_in_ideal(witness, ideal):
            out.append((j, "witness escapes the ideal"))
    return out


# -- per-mode reference constructions for the pullback layer ---------------


def basis_A_by_defining_ideal(fam, d):
    """A_d by membership in q (congruence) or in the defining ideal."""
    out = []
    if not fam.q.is_zero():
        for e in monomials_of_degree(fam.context.n, d):
            p = {e: Fraction(1)}
            if fam.q.contains(Monomial(e)):
                out.append(BElement(fam, (p, {})))
                out.append(BElement(fam, ({}, p)))
            else:
                out.append(BElement.from_T(fam, p))
    else:
        defn = fam.defining_ideal()
        for e in monomials_of_degree(fam.context.n, d):
            if not defn.contains(Monomial(e)):
                out.append(BElement.from_T(fam, {e: Fraction(1)}))
    return out


def _poly_product(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def _product(a, b):
    """The product of two BElements, component by component."""
    return BElement(a.family, tuple(map(_poly_product, a.parts, b.parts)))


def piece_by_belement_products(sub, d):
    """Degree-d piece of a GradedSubmodule: every A-basis element times every generator.

    The engine's original construction: each product is a BElement,
    reduced per component, and inserted through its vector.
    """
    fam = sub.family
    space = Subspace(QQ, len(fam.basis_B(d)))
    for e, parts in sub.gens:
        if e <= d:
            g = BElement(fam, parts)
            for a in basis_A_by_defining_ideal(fam, d - e):
                space.insert(_product(a, g).vector(d))
    return space


def multiples_by_B_basis(fam, elements, e):
    """The degree-e piece of sum a B: a times every basis element of B."""
    span = Subspace(QQ, len(fam.basis_B(e)))
    for a in elements:
        da = p_degree(a)
        if da <= e:
            for (i, m) in fam.basis_B(e - da):
                span.insert(_product(BElement.unit(fam, i, m), BElement.from_T(fam, a)).vector(e))
    return span


def closed_conductor_by_mode(fam, formula, d):
    """Degree-d closed conductor: (x^e, 0) and (0, x^e) for x^e in q, or x^e."""
    closed = Subspace(QQ, len(fam.basis_B(d)))
    for e in monomials_of_degree(fam.context.n, d):
        if not formula.contains(Monomial(e)):
            continue
        p = {e: Fraction(1)}
        if not fam.q.is_zero():
            closed.insert(BElement(fam, (p, {})).vector(d))
            closed.insert(BElement(fam, ({}, p)).vector(d))
        else:
            belt = BElement.from_T(fam, p)
            if not belt.is_zero():
                closed.insert(belt.vector(d))
    return closed


def direct_conductor_by_membership(fam, d):
    """Degree-d direct conductor: the A-basis elements b with every b e_i in A."""
    direct = Subspace(QQ, len(fam.basis_B(d)))
    for b in basis_A_by_defining_ideal(fam, d):
        # the e_i-stability conditions are coordinate-local in this basis,
        # so testing basis vectors computes the exact subspace
        if all(b.component(i).in_A()[0] for i in range(fam.ell)):
            direct.insert(b.vector(d))
    return direct


def irrelevant_primary_by_minimal_primes(fam):
    """The engine's original test: cond + cap P_i is the unit or has the one minimal prime m."""
    total = conductor(fam) + intersect_all([p.ideal() for p in fam.primes])
    if total.is_unit():
        return True
    primes = total.minimal_primes()
    return len(primes) == 1 and primes[0].mask == (1 << fam.context.n) - 1


# the original sweep gave up past this degree
_MAX_COKERNEL_DEGREE = 64


def cokernel_profile_by_degree_sweep(fam):
    """The engine's original B/A sweep, one total degree at a time.

    The caller checks that B/A has finite length.  The sweep stops at the
    first zero degree past 0, since B is generated over A in degree 0, and
    asserts that the next degree is zero too.  The socle and the
    annihilation by the conductor are solved over all of B_d.
    """
    n = fam.context.n
    variables = [p_linear(n, [j]) for j in range(n)]
    unit_A = GradedSubmodule.from_ideal(fam, MonomialIdeal.unit(fam.context))
    hilbert = []
    socle_total = 0
    for d in range(_MAX_COKERNEL_DEGREE + 1):
        codim = len(fam.basis_B(d)) - len(fam.basis_A(d))
        if codim == 0 and d > 0:
            assert len(fam.basis_B(d + 1)) == len(fam.basis_A(d + 1)), "B/A did not stabilize"
            break
        hilbert.append(codim)
        if codim:
            w = stable_subspace(fam, unit_A, variables, d)
            socle_total += w.dim - len(fam.basis_A(d))
    else:
        raise AssertionError("B/A did not stabilize in bounded degree")
    while hilbert and hilbert[-1] == 0:
        hilbert.pop()
    cond_polys = [p_of_monomial(g) for g in conductor(fam).gens]
    ann_ok = all(
        stable_subspace(fam, unit_A, cond_polys, d).dim == len(fam.basis_B(d))
        for d, codim in enumerate(hilbert)
        if codim
    )
    return CokernelProfile(sum(hilbert), tuple(hilbert), socle_total, ann_ok)


def pure_powers_by_probing(ideal):
    """The engine's original probe: the least e <= max generator degree with x_k^e in the ideal.

    Past that degree no new generator can appear, so the probe gives None there.
    """
    n = ideal.context.n
    limit = ideal.max_gen_degree()
    return [
        next((e for e in range(limit + 1) if ideal.contains(Monomial.variable(n, k, e))), None)
        for k in range(n)
    ]


def annihilates_by_products(fam, ideal, d):
    """Does every x^g e_i, over the generators g, times every basis element of B_d lie in A?"""
    return all(
        _product(BElement.unit(fam, i, g.exps), BElement.unit(fam, j, m)).in_A()[0]
        for g in ideal.gens
        for i in fam.surviving(g.exps)
        for (j, m) in fam.basis_B(d)
    )


# -- the two-colon endomorphism-ring comparison of the trace check -------------


# the reasons trace_ideal_check gives once the certificate has passed
_WITNESS_PASS = "I:I = A:I = B"
_WITNESS_FAIL = "colon modules differ from B"


def fills_B(fam, colon):
    """Does every piece of a colon_in_B result have the dimension of B in its degree?"""
    return all(space.dim == len(fam.basis_B(d)) for d, space in colon.pieces.items())


def trace_verdict_two_colons(fam, ideal, bound):
    """The trace verdict with both colons solved up to the bound; each must fill B.

    The certificate stage is the engine's own: a verdict that trace_ideal_check
    reaches before its idempotent witness is returned as it stands, with None
    for the colon pair.  Otherwise returns (passed, reason) and the colon pair.
    """
    verdict = trace_ideal_check(fam, ideal)
    if verdict[1] not in (_WITNESS_PASS, _WITNESS_FAIL):
        return verdict, None
    endo = colon_in_B(fam, GradedSubmodule.from_ideal(fam, ideal), ideal, bound=bound)
    unit_A = GradedSubmodule.from_ideal(fam, MonomialIdeal.unit(fam.context))
    dual = colon_in_B(fam, unit_A, ideal, bound=bound)
    if fills_B(fam, endo) and fills_B(fam, dual):
        return (True, _WITNESS_PASS), (endo, dual)
    return (False, _WITNESS_FAIL), (endo, dual)


# -- the degree sweep of the B-regular sequence test ----------------------------


def regular_sequence_by_degree_sweep(fam, forms, bound):
    """Are the forms a B-regular sequence, degree-wise up to the bound?

    For each prefix, multiplication by the next form must be injective on
    B / (previous forms) B in every degree <= bound.
    """
    for k, a in enumerate(forms):
        prev = GradedSubmodule.multiples(fam, forms[:k])
        for d in range(bound + 1):
            # regular iff the kernel of multiplication is exactly prev B
            if stable_subspace(fam, prev, [a], d) != prev.piece(d):
                return False
    return True
