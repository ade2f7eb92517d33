"""Simplicial complexes, exact reduced homology, and squarefree depth.

Index conventions, fixed once and used by every caller and test:

* reduced_homology returns {i: rank of H~_i} for i = -1 .. dim, as ranks
  of the augmented chain complex (the empty face generates degree -1), by
  one of three exact routes: cone, nerve of the facets, or the complex's
  own boundary matrices (see there).
* BettiTable entries are the graded Betti numbers of the *ideal*:
  beta[i, sigma] = dim_k H~_{|sigma| - i - 2}(restriction to sigma), with
  i >= 0.  The resolution of the quotient T/I has the extra beta_{0,()} = 1
  in homological degree 0, so projective_dimension(T/I) = 1 + max i of the
  table (and 0 for the zero ideal, whose table is empty).
* depth(T/I) = n - projective_dimension(T/I).  The independent route
  depth_via_local_cohomology uses vanishing of link homology instead and
  exists so the two can be cross-checked.
* The link route and Reisner's test sweep only the faces that are
  intersections of facets (see _link_homology for why the rest are
  acyclic).  graded_betti sweeps every vertex subset; depth's Betti route,
  projective_dimension, sweeps only the sets of vertex types (see there).

Only a sweep of all 2^k subsets of k things (_subsets: the faces of a facet,
graded_betti's sigma, projective_dimension's type sets) refuses k > 16, and
reduced_homology prices its nerve route as such a sweep over the facets.
"""

from __future__ import annotations

from .errors import NotSquarefreeError, UnitIdealError, VoidComplexError
from .linalg import rank
from .monomial import make_context

MAX_VERTICES = 16


def _fits(k):
    """The size rule: a sweep of all 2^k subsets of k things needs k <= 16."""
    return k <= MAX_VERTICES


def _subsets(mask):
    """Every submask of mask, ascending; ValueError unless _fits(its bit count)."""
    if not _fits(mask.bit_count()):
        raise ValueError(f"a sweep over 2^k subsets supports k <= {MAX_VERTICES}")
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def _types(facets, n):
    """type(v) for each vertex v: the facets through v, as a mask of facet indices."""
    return [sum(1 << k for k, f in enumerate(facets) if f >> v & 1) for v in range(n)]


def _max_antichain(masks):
    """Maximal elements under inclusion of a set of masks."""
    masks = sorted(set(masks), key=int.bit_count, reverse=True)
    out = []
    for m in masks:
        if not any(m & f == m for f in out):
            out.append(m)
    return tuple(sorted(out))


class SimplicialComplex:
    """A simplicial complex given by its facet list (an antichain of masks).

    The void complex (no faces at all, empty facet list) and the
    irrelevant complex {()} (single empty facet) are distinct values.
    """

    __slots__ = ("context", "facets")

    def __init__(self, context, facet_masks):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "facets", _max_antichain(facet_masks))

    def __setattr__(self, *a):
        raise AttributeError("SimplicialComplex is immutable")

    def is_void(self):
        return not self.facets

    def dim(self):
        """Dimension; None for the void complex, -1 for {()}."""
        if self.is_void():
            return None
        return max(f.bit_count() for f in self.facets) - 1

    def faces(self):
        """All faces as a sorted list of masks (includes 0 if non-void)."""
        seen = set()
        for f in self.facets:
            seen.update(_subsets(f))
        return sorted(seen)

    def faces_by_dim(self):
        """Faces grouped by cardinality: list where entry k holds |face|=k, sorted."""
        by = {}
        for f in self.faces():
            by.setdefault(f.bit_count(), []).append(f)
        top = max(by) if by else -1
        return [by.get(k, []) for k in range(top + 1)]

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.context == other.context
            and self.facets == other.facets
        )

    def __hash__(self):
        return hash((self.context, self.facets))

    def __repr__(self):
        if self.is_void():
            return "SimplicialComplex(void)"
        facets = ["{" + ",".join(self.context.names_of_mask(f)) + "}" for f in self.facets]
        return "SimplicialComplex(" + " ".join(facets) + ")"


def complex_of(ideal):
    """The simplicial complex whose faces avoid every generator support.

    Faces are exactly the supports of squarefree monomials outside the
    ideal; facets are the complements of the minimal primes.
    """
    if not ideal.is_squarefree():
        raise NotSquarefreeError("complex_of needs a squarefree ideal")
    if ideal.is_unit():
        raise UnitIdealError("complex_of needs a proper ideal")
    full = (1 << ideal.context.n) - 1
    facets = [full & ~p.mask for p in ideal.minimal_primes()]
    return SimplicialComplex(ideal.context, facets)


def boundary_matrix(lower, upper):
    """Boundary map from faces `upper` (size k+1) to faces `lower` (size k).

    One sparse column {index in lower: +-1} per face of `upper`: its
    boundary, with signs alternating in the position of the removed
    vertex, +1 for the lowest.
    """
    index = {f: i for i, f in enumerate(lower)}
    columns = []
    for f in upper:
        col, sign, rest = {}, 1, f
        while rest:
            v = rest & -rest  # the lowest vertex not yet removed
            col[index[f & ~v]] = sign
            sign, rest = -sign, rest & ~v
        columns.append(col)
    return columns


def reduced_homology(cplx, field):
    """Ranks {i: dim H~_i} for i = -1 .. dim, over the given field.

    Three routes, each exact over every field:

    * cone: if all facets share a vertex v, the complex is a cone with
      apex v, which is contractible, so every rank is 0;
    * nerve: with k facets, when _fits(k) and 2^k < sum_f 2^|f| (2^k prices
      the nerve as a sweep of the index sets, so the size rule applies), the
      homology is that of the nerve of the facets (the complex on the facet
      indices whose faces are the index sets with a common vertex).  Every
      intersection of facets is a simplex or empty, so by the nerve theorem
      (Bjorner, Topological methods, 10.6) the two are homotopy equivalent.
      Ranks above dim of the complex vanish on both sides, so the nerve's
      ranks are cut or padded with zeros to -1 .. dim;
    * otherwise the ranks of the boundary matrices of the complex itself.
    """
    if cplx.is_void():
        raise VoidComplexError("homology of the void complex")
    facets = cplx.facets
    top = cplx.dim()
    common = facets[0]
    for f in facets:
        common &= f
    if common:
        return dict.fromkeys(range(-1, top + 1), 0)
    k = len(facets)
    if _fits(k) and (1 << k) < sum(1 << f.bit_count() for f in facets):
        # a vertex in no facet gives the empty mask, which the antichain drops
        nerve = SimplicialComplex(make_context(k), _types(facets, cplx.context.n))
        hom = _homology_by_boundary_matrices(nerve, field)
        return {i: hom.get(i, 0) for i in range(-1, top + 1)}
    return _homology_by_boundary_matrices(cplx, field)


def _homology_by_boundary_matrices(cplx, field):
    layers = cplx.faces_by_dim()  # layers[k] = faces of cardinality k
    top = len(layers) - 1
    # Boundary maps are indexed by face cardinality, not by dimension:
    # d_k maps span(layers[k]) -> span(layers[k-1]) for k >= 1, so faces of
    # cardinality k sit in homological degree k - 1.
    ranks = {}
    for k in range(1, top + 1):
        columns = boundary_matrix(layers[k - 1], layers[k])
        ranks[k] = rank(columns, len(layers[k - 1]), field)
    out = {}
    for k in range(0, top + 1):  # homological degree i = k - 1
        dim_ck = len(layers[k])
        rk_in = ranks.get(k, 0)
        rk_out = ranks.get(k + 1, 0)
        out[k - 1] = dim_ck - rk_in - rk_out
    return out


class BettiTable:
    """Graded Betti numbers of a squarefree monomial ideal (ideal-indexed)."""

    __slots__ = ("context", "field", "entries")

    def __init__(self, context, field, entries):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", dict(sorted(entries.items())))

    def __setattr__(self, *a):
        raise AttributeError("BettiTable is immutable")

    def to_json(self):
        return {
            "vars": list(self.context.names),
            "field": str(self.field),
            "entries": [
                {
                    "i": i,
                    "sigma": list(self.context.names_of_mask(mask)),
                    "rank": v,
                }
                for (i, mask), v in self.entries.items()
            ],
        }

    def __repr__(self):
        return f"BettiTable({len(self.entries)} entries, field={self.field})"


def graded_betti(ideal, field):
    """Betti table of a squarefree proper ideal via subset restrictions.

    Hochster's formula runs over all 2^n vertex subsets sigma, but a vertex
    outside every facet (a variable in the ideal) never changes a
    restriction: each distinct restriction to sigma & V(complex) is computed
    once per call, so the prime (x_F) computes 2^(n - |F|) of them, not 2^n.
    """
    if not ideal.is_squarefree():
        raise NotSquarefreeError("graded_betti needs a squarefree ideal")
    if ideal.is_unit():
        raise UnitIdealError("graded_betti needs a proper ideal")
    facets = complex_of(ideal).facets
    support = 0
    for f in facets:
        support |= f
    homology = {}  # tau -> reduced_homology of the restriction, this call only
    entries = {}
    for sigma in _subsets((1 << ideal.context.n) - 1):
        # restricting to sigma is restricting to tau = sigma & support, so the
        # homology is looked up per tau; only i = |sigma| - j - 2 reads sigma
        tau = sigma & support
        hom = homology.get(tau)
        if hom is None:
            restriction = SimplicialComplex(ideal.context, [f & tau for f in facets])
            hom = homology[tau] = reduced_homology(restriction, field)
        size = sigma.bit_count()
        for j, r in hom.items():
            if r and size - j - 2 >= 0:
                entries[(size - j - 2, sigma)] = r
    return BettiTable(ideal.context, field, entries)


def projective_dimension(ideal, field):
    """pd of T/I for a monomial ideal (polarizing if not squarefree).

    The Betti route over vertex types, not graded_betti's 2^n subsets.
    type(v) is the set of facets through v (empty off every facet).  In the
    restriction to sigma, v is dominated by any w in sigma whose type holds
    v's (every facet through v holds w), so deleting v is a strong collapse
    (Barmak-Minian).  Hence H~ of the restriction depends only on the set U
    of types in sigma: it is that of one vertex per maximal type in U.  As
    H~_j != 0 gives beta[|sigma| - j - 2, sigma] != 0, the top index over
    the sigma with type set U is read at the largest: every vertex whose
    type is in U.

    >>> from ccalab.linalg import QQ
    >>> from ccalab.monomial import MonomialIdeal, make_context
    >>> projective_dimension(MonomialIdeal.from_strings(make_context(4), ["x1*x2", "x3*x4"]), QQ)
    2
    """
    if ideal.is_unit():
        raise UnitIdealError("projective dimension of the zero ring")
    if ideal.is_zero():
        return 0
    sf, _added = ideal.polarize()
    facets = complex_of(sf).facets
    by_type = {}  # type, as a mask over facet indices -> mask of its vertices
    for v, t in enumerate(_types(facets, sf.context.n)):
        by_type[t] = by_type.get(t, 0) | 1 << v
    types = list(by_type.items())
    # above[k]: the indices of the types strictly holding type k
    above = [sum(1 << l for l, (s, _) in enumerate(types) if s != t and s & t == t)
             for t, _ in types]
    homology = {}  # one vertex per maximal type -> reduced homology of its restriction
    top = -1
    for u in _subsets((1 << len(types)) - 1):
        size = kept = 0
        for k, (_t, vertices) in enumerate(types):
            if u >> k & 1:
                size += vertices.bit_count()
                if not above[k] & u:
                    kept |= vertices & -vertices
        hom = homology.get(kept)
        if hom is None:
            restriction = SimplicialComplex(sf.context, [f & kept for f in facets])
            hom = homology[kept] = reduced_homology(restriction, field)
        top = max([top] + [size - j - 2 for j, r in hom.items() if r])
    return top + 1


def depth(ideal, field):
    """depth of T/I over the field: n - projective_dimension (Auslander-Buchsbaum)."""
    if ideal.is_unit():
        raise UnitIdealError("depth of the zero ring")
    return ideal.context.n - projective_dimension(ideal, field)


def _link_homology(cplx, field):
    """(|sigma|, reduced homology of lk sigma) for each intersection sigma of facets.

    lk sigma = {tau disjoint from sigma : tau + sigma a face}: the facets
    through sigma, less sigma.  Only the intersections of facets are swept
    (the closure of the facets under intersection, which holds the empty
    face only when some facets meet in it).  Any other face sigma lies in
    sigma' != sigma, the intersection of the facets through it, so every
    facet of lk sigma contains the nonempty sigma' - sigma: lk sigma is a
    cone, its reduced homology is 0 in every degree, -1 included, and it
    moves neither the local-cohomology minimum nor Reisner's test (Bjorner,
    Topological methods, section 10).
    """
    facets = cplx.facets
    meets = set()
    for f in facets:
        meets |= {f & m for m in meets}
        meets.add(f)
    for face in sorted(meets):
        link = SimplicialComplex(cplx.context, [f & ~face for f in facets if f & face == face])
        yield face.bit_count(), reduced_homology(link, field)


def depth_via_local_cohomology(ideal, field):
    """depth of T/I as the least degree with nonvanishing local cohomology.

    Independent of the Betti route: uses the link formula
    H^i_m nonzero iff some face sigma has H~_{i - |sigma| - 1}(link) != 0.
    Only faces that are intersections of facets are swept (see _link_homology).
    """
    if ideal.is_unit():
        raise UnitIdealError("depth of the zero ring")
    if ideal.is_zero():
        return ideal.context.n
    sf, added = ideal.polarize()
    links = _link_homology(complex_of(sf), field)
    return min(j + size + 1 for size, hom in links for j, r in hom.items() if r) - added


def dim_of_quotient(ideal):
    """Krull dimension of T/I."""
    if ideal.is_unit():
        return -1
    return ideal.height_and_dim()[1]


def is_cohen_macaulay(cplx, field):
    """Reisner's criterion: every link is homology-connected below its top.

    True iff for every face sigma (the empty face included) the link has
    vanishing reduced homology in all degrees below its dimension.  The
    homology is keyed -1 .. dim of the link, so its top key is that dimension.
    Only faces that are intersections of facets are tested (see _link_homology).
    """
    if cplx.is_void():
        raise VoidComplexError("Cohen-Macaulay test on the void complex")
    for _size, hom in _link_homology(cplx, field):
        top = max(hom)
        if any(r for j, r in hom.items() if j < top):
            return False
    return True
