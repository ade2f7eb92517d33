"""Exact linear algebra over the rationals and prime fields.

No floating point anywhere.  Every rank, solve and membership test goes
through one sparse echelon, Subspace, which keeps a fully reduced basis,
so equal subspaces compare equal; `rank` is the dimension of a Subspace.
"""

from __future__ import annotations

from fractions import Fraction


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FieldSpec:
    """Coefficient field: the rationals (p == 0) or the prime field F_p."""

    __slots__ = ("p",)

    def __init__(self, p=0):
        if p and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    def __setattr__(self, *a):
        raise AttributeError("FieldSpec is immutable")

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return f"FieldSpec(p={self.p})"

    @property
    def is_rationals(self):
        return self.p == 0

    def of(self, x):
        """Coerce an int or a Fraction into the field; a/b is a * b^-1 over F_p."""
        if self.p:
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise ValueError(f"{x} has no image in F{self.p}")
                return x.numerator * pow(x.denominator, -1, self.p) % self.p
            return int(x) % self.p
        return x if isinstance(x, Fraction) else Fraction(x)

    def one(self):
        return 1 if self.p else Fraction(1)

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def inv(self, a):
        if self.p:
            if a % self.p == 0:
                raise ZeroDivisionError(f"{a} has no inverse in F{self.p}")
            return pow(a, self.p - 2, self.p)
        return Fraction(1) / a

    def __str__(self):
        return "Q" if self.p == 0 else f"F{self.p}"


QQ = FieldSpec(0)


def GF(p):
    """The prime field F_p; GF(0) is an error, not the rationals FieldSpec(0)."""
    if p == 0:
        raise ValueError("0 is not prime")
    return FieldSpec(p)


def parse_field(text):
    """Parse a field flag: "q", "f2", or "fp:2"."""
    t = text.strip().lower()
    if t in ("q", "qq", "rationals"):
        return QQ
    if t.startswith("fp:") and t[3:].isdigit():
        return GF(int(t[3:]))
    if t.startswith("f") and t[1:].isdigit():
        return GF(int(t[1:]))
    raise ValueError(f"cannot parse field {text!r}")


class Subspace:
    """A subspace of field^ambient, kept as a sparse, fully reduced echelon basis.

    Vectors are sparse {column: value} dicts (dense sequences are accepted
    as input too).  The basis maps each pivot column to the row that has
    its first nonzero entry, equal to 1, there and a zero in every other
    pivot column, so two Subspace objects are equal iff they describe the
    same subspace.  Over Q, entries may be ints or Fractions: an inserted row
    that was scaled or reduced holds Fractions, Fraction(1, 1) included.
    """

    __slots__ = ("field", "ambient", "rows")

    def __init__(self, field, ambient, vectors=()):
        self.field = field
        self.ambient = ambient
        self.rows = {}  # pivot -> row
        for v in vectors:
            self.insert(v)

    @property
    def dim(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def _sparse(self, v):
        p = self.field.p
        items = v.items() if isinstance(v, dict) else enumerate(v)
        if p:
            return {j: y for j, x in items if (y := x % p)}
        return {
            j: x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x
            for j, x in items
            if x
        }

    def reduce(self, v):
        """Sparse residual of v after eliminating every basis pivot.

        Rows vanish in each other's pivot columns, so the coefficient of a
        pivot row is just the entry of v in that column.
        """
        v = self._sparse(v)
        rows = self.rows
        for piv, c in [(j, x) for j, x in v.items() if j in rows]:
            _sub_multiple(v, c, rows[piv], self.field.p)
        return v

    def contains(self, v):
        return not self.reduce(v)

    def insert(self, v):
        """Add v to the span; returns True if the dimension grew."""
        f = self.field
        r = self.reduce(v)
        if not r:
            return False
        piv = min(r)
        c = r[piv]
        if c != 1:
            inv = -1 if c == -1 else f.inv(c)
            r = {j: f.mul(inv, x) for j, x in r.items()}
        # keep the basis fully reduced
        for row in self.rows.values():
            c = row.get(piv)
            if c:
                _sub_multiple(row, c, r, f.p)
        self.rows[piv] = r
        return True

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def _sub_multiple(v, c, row, p):
    """v -= c * row in place, over F_p (p > 0) or Q (p == 0)."""
    for j, x in row.items():
        y = v.get(j, 0) - c * x
        if p:
            y %= p
        if y:
            v[j] = y
        else:
            v.pop(j, None)


def rank(rows, ncols, field):
    """Rank over the field of the rows, dense or sparse vectors in field^ncols.

    It is the dimension of their span, a Subspace.

    >>> rank([[1, 1], [1, 3]], 2, QQ), rank([[1, 1], [1, 3]], 2, GF(2))
    (2, 1)
    """
    return Subspace(field, ncols, rows).dim


def nullspace(rows, ncols, field):
    """Solution space of rows * x = 0 as a Subspace of field^ncols.

    The solutions are read off the echelon basis of the row space: one
    per free column c, with 1 at c and minus column c of each pivot row.
    """
    echelon = Subspace(field, ncols, rows)
    basis = {c: {c: 1} for c in range(ncols) if c not in echelon.rows}
    for piv, row in echelon.rows.items():
        for c, x in row.items():
            if c != piv:
                basis[c][piv] = field.neg(x)
    return Subspace(field, ncols, basis.values())


def preimage(blocks, ncols, field):
    """{v in field^ncols : M v in target for every (columns, target) block}.

    A block gives a map M by its columns, the sparse images of the ncols
    unit vectors, and the Subspace `target` that M v must land in.  v lies
    in the preimage iff the residual of M v against each target vanishes,
    so the answer is the nullspace of the residuals of the columns.
    """
    residual_rows = {}
    for i, (columns, target) in enumerate(blocks):
        for j, col in enumerate(columns):
            for r, x in target.reduce(col).items():
                residual_rows.setdefault((i, r), {})[j] = x
    return nullspace(list(residual_rows.values()), ncols, field)
