import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ccalab.complexes import SimplicialComplex, boundary_matrix
from ccalab.linalg import (
    GF,
    QQ,
    FieldSpec,
    Subspace,
    nullspace,
    parse_field,
    preimage,
    rank,
)
from ccalab.monomial import make_context

from oracles import DenseSubspace, dense_boundary_matrix, dense_nullspace, rank_by_bareiss
from test_complexes import rp2

FIELDS = (QQ, GF(2), GF(3), GF(5))


def test_field_spec_rejects_composite():
    with pytest.raises(ValueError):
        FieldSpec(6)


def test_field_spec_maps_fractions_over_fp():
    # a/b is a * b^-1 mod p, not the truncated int(a/b)
    assert GF(3).of(Fraction(1, 2)) == 2
    assert GF(5).of(Fraction(-3, 4)) == 3
    assert GF(7).of(Fraction(14, 1)) == 0
    with pytest.raises(ValueError):
        GF(3).of(Fraction(1, 3))
    assert QQ.of(Fraction(1, 2)) == Fraction(1, 2)


def test_field_spec_inverse_of_zero_raises():
    for field, zero in ((QQ, 0), (GF(2), 0), (GF(3), 0), (GF(5), 5), (GF(5), -10)):
        with pytest.raises(ZeroDivisionError):
            field.inv(zero)
    assert GF(5).inv(7) == 3


def test_parse_field():
    assert parse_field("q") == QQ
    assert parse_field("f2") == GF(2)
    assert parse_field("fp:7") == GF(7)
    # GF(0) would be FieldSpec(0), the rationals: F_0 is rejected, not read as Q
    for text in ("r64", "fp:0", "f0"):
        with pytest.raises(ValueError):
            parse_field(text)
    # a non-numeric prime is a parse error, not int()'s own complaint
    for text in ("fp:abc", "fp:"):
        with pytest.raises(ValueError, match="cannot parse field"):
            parse_field(text)


def test_rank_int_known():
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert rank(m, 3, QQ) == 2
    assert rank([[0, 0], [0, 0]], 2, QQ) == 0
    assert rank([[1]], 1, QQ) == 1
    assert rank([], 0, QQ) == 0
    assert rank([], 3, QQ) == 0
    # sparse rows, as boundary_matrix builds them
    assert rank([{0: 2, 2: -1}, {1: 3}, {0: 4, 1: 3, 2: -2}], 3, QQ) == 2


def test_rank_mod_p_differs_from_rational():
    # rank 2 over Q, rank 1 over F_2
    m = [[1, 1], [1, 3]]
    assert rank(m, 2, QQ) == 2
    assert rank(m, 2, GF(2)) == 1


def _boundary_matrices():
    """Boundary maps of rp2 and a few random complexes: the sparse columns the
    boundary-matrix route of reduced homology ranks, their ambient dimension
    and the dense matrix of the same map."""
    rng = random.Random(17)
    complexes = [rp2()]
    for _ in range(6):
        n = rng.randint(4, 7)
        facets = [rng.sample(range(n), rng.randint(2, n - 1)) for _ in range(rng.randint(2, 5))]
        complexes.append(SimplicialComplex(make_context(n), [sum(1 << v for v in f) for f in facets]))
    for c in complexes:
        layers = c.faces_by_dim()
        for k in range(1, len(layers)):
            lower, upper = layers[k - 1], layers[k]
            yield boundary_matrix(lower, upper), len(lower), dense_boundary_matrix(lower, upper)


def test_rank_random_cross_check():
    rng = random.Random(7)

    def matrix(rows, cols, bound):
        return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]

    cases = [matrix(rng.randint(1, 5), rng.randint(1, 5), 4) for _ in range(40)]
    # up to 8x8 with entries +-9, so Bareiss divides through several pivots
    cases += [matrix(rng.randint(1, 8), rng.randint(1, 8), 9) for _ in range(40)]
    # rank-deficient: integer combinations of k < min(r, c) random rows
    for _ in range(40):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        base = matrix(rng.randint(0, min(rows, cols) - 1), cols, 9)
        coeffs = matrix(rows, len(base), 3)
        m = [[sum(a * b[j] for a, b in zip(row, base)) for j in range(cols)] for row in coeffs]
        assert rank(m, cols, QQ) < min(rows, cols)
        cases.append(m)
    # two independent oracles: the fraction-free elimination, where over F_5
    # and F_7 the pivot is often not 1 so rows with a zero entry still update,
    # and the dense Fraction / mod-p echelon
    fields = (QQ, GF(2), GF(3), GF(5), GF(7))
    for m in cases:
        for field in fields:
            r = rank(m, len(m[0]), field)
            assert r == rank_by_bareiss(m, field) == DenseSubspace(field, len(m[0]), m).dim
    for columns, ncols, dense_rows in _boundary_matrices():
        # column j is column j of the dense matrix, its zeros dropped
        assert columns == [{i: x for i, x in enumerate(col) if x} for col in zip(*dense_rows)]
        for field in fields:
            r = rank(columns, ncols, field)
            assert r == rank_by_bareiss(dense_rows, field)
            assert r == DenseSubspace(field, len(dense_rows[0]), dense_rows).dim


def test_subspace_canonical_equality():
    v1 = Subspace(QQ, 3, [[1, 1, 0], [0, 0, 1]])
    v2 = Subspace(QQ, 3, [[2, 2, 2], [0, 0, 5], [1, 1, 3]])
    assert v1 == v2
    assert v1.dim == 2
    assert v1.contains([3, 3, 7])
    assert not v1.contains([1, 0, 0])


def test_subspace_insert_reports_growth():
    s = Subspace(QQ, 2)
    assert s.insert([1, 0])
    assert not s.insert([2, 0])
    assert s.insert([1, 1])
    assert s.dim == 2


def test_nullspace():
    # x + y + z = 0, y - z = 0  ->  solutions span (-2, 1, 1)
    sol = nullspace([[1, 1, 1], [0, 1, -1]], 3, QQ)
    assert sol.dim == 1
    assert sol.contains([-2, 1, 1])
    assert not sol.contains([1, 0, 0])


def test_nullspace_mod_p():
    sol = nullspace([[1, 1]], 2, GF(2))
    assert sol.dim == 1
    assert sol.contains([1, 1])


# -- the sparse echelon against the dense reference ----------------------------


@st.composite
def systems(draw):
    """A field, a width, a few generating rows and a few probe vectors."""
    field = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(1, 6))
    vec = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    return field, ncols, draw(st.lists(vec, max_size=7)), draw(st.lists(vec, max_size=4))


def dense(field, ncols, v):
    out = [field.of(0)] * ncols
    for j, x in v.items():
        out[j] = field.of(x)
    return out


def canonical_rows(space):
    return [dense(space.field, space.ambient, space.rows[p]) for p in space.pivots()]


@seed(2111_13338)
@settings(max_examples=400, deadline=None, database=None)
@given(systems())
def test_sparse_echelon_matches_dense_oracle(system):
    field, ncols, rows, probes = system
    space = Subspace(field, ncols)
    ref = DenseSubspace(field, ncols)
    for r in rows:
        assert space.insert(r) == ref.insert(r)
    assert space.dim == ref.dim
    assert space.pivots() == ref.pivots
    assert canonical_rows(space) == ref.rows
    # canonical: another generating set of the same space compares equal
    sums = [[a + b for a, b in zip(r, s)] for r, s in zip(rows, rows[1:])] + rows[-1:]
    assert Subspace(field, ncols, reversed(sums)) == space
    for v in probes:
        assert dense(field, ncols, space.reduce(v)) == ref.reduce(v)
        assert space.contains(v) == ref.contains(v)
    assert canonical_rows(nullspace(rows, ncols, field)) == dense_nullspace(rows, ncols, field).rows


@seed(2111_13338)
@settings(max_examples=200, deadline=None, database=None)
@given(systems())
def test_preimage_matches_dense_oracle(system):
    # two blocks: the probes and their reverse as the columns of two maps,
    # landing in the spans of the two halves of the rows
    field, ncols, rows, probes = system
    probes = probes or [[0] * ncols]
    half = len(rows) // 2
    blocks = [(probes, rows[:half]), (probes[::-1], rows[half:])]
    got = preimage(
        [([dict(enumerate(c)) for c in cols], Subspace(field, ncols, span))
         for cols, span in blocks],
        len(probes),
        field,
    )
    residual_rows = []
    for cols, span in blocks:
        ref = DenseSubspace(field, ncols, span)
        residuals = [ref.reduce(c) for c in cols]
        residual_rows += [[res[r] for res in residuals] for r in range(ncols)]
    kernel = dense_nullspace(residual_rows, len(probes), field)
    assert canonical_rows(got) == kernel.rows


def test_preimage_without_blocks_is_the_whole_space():
    assert preimage([], 3, GF(3)) == Subspace(GF(3), 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
