"""Exact polynomial algebra for the order-4 equivariant tangent-space
computation: invariants, equivariant generators, matrix germs, the cleared
tangent generators of the quartic map, the 13x12 reduction matrix (rank 12),
and the codimension-3 complement.

Everything here is exact: coefficients are ``fractions.Fraction`` and no
floating point enters.

The fixed objects are module constants, built once at import: the
invariants N, A, B, the generators X1..X4 (GENERATORS), the matrix germs
S_GERMS and T_GERMS, the numerator NUMERATOR, the 12 cleared tangent
generators TANGENT_GENERATORS (a dict by name, "dF.X1" .. "T4.F") and the
four RELATIONS.  Nothing mutates them.  The package and its CLI import this
module only when a singularity command or check runs, so that build stays
out of ``import znmap``.

Coordinates on the module of equivariant pairs use labels
``N^a * A^b * B^c * X_i`` (invariant monomial times generator).  The four
generator fields are not free over the invariants: two exact degree-5
relations hold,

    A*X1 - 4*B*X2 = N*X3        A*X2 + 4*B*X1 = N*X4

together with two degree-7 rewriting identities whose content lies in the
dropped (higher-filtration) part,

    A*X3 + 4*B*X4 = N^3*X1      A*X4 - 4*B*X3 = N^3*X2.

Decompositions are therefore canonicalized: within each homogeneous degree
the labels are ordered (generator index, then descending N-exponent, then
B before A), and a label in the span of the labels before it is dependent
and gets coefficient zero.  Rank and dimension results are computed in the
label space together with the four relation classes above, which is
independent of any representative choice.

One elimination serves all of it: _reduce and _extend on echelon rows of
sparse exact vectors, for the labels of each degree, for rank_exact, and
for the one matrix that build_Q and codimension_check each reduce.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

F0 = Fraction(0)
F1 = Fraction(1)


# ---------------------------------------------------------------------------
# sparse exact polynomials in two variables
# ---------------------------------------------------------------------------

class Poly2:
    """Sparse exact-rational polynomial in x, y: {(i, j): coeff of x^i y^j}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[key] = c

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "Poly2":
        return cls({(i, j): Fraction(c)})

    @classmethod
    def const(cls, c) -> "Poly2":
        return cls({(0, 0): Fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((i + j for i, j in self.terms), default=-1)

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, F0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        res = Poly2()
        res.terms = out
        return res

    def __neg__(self) -> "Poly2":
        res = Poly2()
        res.terms = {key: -c for key, c in self.terms.items()}
        return res

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly2):
            out = {}
            for (i1, j1), c1 in self.terms.items():
                for (i2, j2), c2 in other.terms.items():
                    key = (i1 + i2, j1 + j2)
                    s = out.get(key, F0) + c1 * c2
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
            res = Poly2()
            res.terms = out
            return res
        c = Fraction(other)
        res = Poly2()
        if c:
            res.terms = {key: v * c for key, v in self.terms.items()}
        return res

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly2":
        if e < 0:
            raise ValueError("negative power")
        out = Poly2.const(1)
        for _ in range(e):
            out = out * self
        return out

    def dx(self) -> "Poly2":
        res = Poly2()
        res.terms = {(i - 1, j): c * i for (i, j), c in self.terms.items() if i > 0}
        return res

    def dy(self) -> "Poly2":
        res = Poly2()
        res.terms = {(i, j - 1): c * j for (i, j), c in self.terms.items() if j > 0}
        return res

    def truncate(self, max_degree: int) -> "Poly2":
        res = Poly2()
        res.terms = {(i, j): c for (i, j), c in self.terms.items() if i + j <= max_degree}
        return res

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        def mono(i, j):
            parts = []
            if i:
                parts.append("x" if i == 1 else f"x^{i}")
            if j:
                parts.append("y" if j == 1 else f"y^{j}")
            return "*".join(parts) or "1"
        keys = sorted(self.terms, key=lambda ij: (ij[0] + ij[1], -ij[0]))
        return " + ".join(f"{self.terms[k]}*{mono(*k)}" for k in keys)


X = Poly2.monomial(1, 0)
Y = Poly2.monomial(0, 1)


@dataclass(frozen=True)
class VecEq:
    """Pair of polynomials (u, v) as a planar polynomial vector field."""

    u: Poly2
    v: Poly2

    def __add__(self, other: "VecEq") -> "VecEq":
        return VecEq(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "VecEq") -> "VecEq":
        return VecEq(self.u - other.u, self.v - other.v)

    def scale(self, poly_or_scalar) -> "VecEq":
        return VecEq(self.u * poly_or_scalar, self.v * poly_or_scalar)

    def is_zero(self) -> bool:
        return self.u.is_zero() and self.v.is_zero()

    def degree(self) -> int:
        return max(self.u.degree(), self.v.degree())

    def truncate(self, max_degree: int) -> "VecEq":
        return VecEq(self.u.truncate(max_degree), self.v.truncate(max_degree))


@dataclass(frozen=True)
class MatrixGerm:
    """2x2 matrix of polynomials, exactly commuting with the quarter turn."""

    a: Poly2
    b: Poly2
    c: Poly2
    d: Poly2

    def apply(self, w: VecEq) -> VecEq:
        return VecEq(self.a * w.u + self.b * w.v, self.c * w.u + self.d * w.v)


# ---------------------------------------------------------------------------
# the fixed objects, built once at import
# ---------------------------------------------------------------------------

# Hilbert basis of the invariant ring
N = X * X + Y * Y
A = X ** 4 + Y ** 4 - Poly2.const(6) * X * X * Y * Y
B = (X * X - Y * Y) * X * Y

# module generators
X1 = VecEq(X, Y)
X2 = VecEq(-Y, X)
X3 = VecEq(X * (X * X - Poly2.const(3) * Y * Y), Y * (Y * Y - Poly2.const(3) * X * X))
X4 = VecEq(-Y * (Y * Y - Poly2.const(3) * X * X), X * (X * X - Poly2.const(3) * Y * Y))
GENERATORS = (X1, X2, X3, X4)

# matrix germs S1..S4 and their quarter-turn partners T_j = C*S_j with
# C = [[0, 1], [-1, 0]]
S_GERMS = (
    MatrixGerm(Poly2.const(1), Poly2(), Poly2(), Poly2.const(1)),
    MatrixGerm(X * X, X * Y, X * Y, Y * Y),
    MatrixGerm(-(X * X), X * Y, X * Y, -(Y * Y)),
    MatrixGerm(Poly2(), X * X * X * Y, X * Y * Y * Y, Poly2()),
)
T_GERMS = tuple(MatrixGerm(s.c, s.d, -s.a, -s.b) for s in S_GERMS)

# P = (-y^3, x^3), the numerator of the quartic map with k = 1
NUMERATOR = VecEq(-(Y * Y * Y), X * X * X)

# The 12 tangent-space generators with denominators cleared.  The
# derivative terms use the quotient rule cleared by (1+N)^2:
# (1+N)*(dP . X_i) - (grad N . X_i)*P; the matrix-germ terms are S_j*P and
# T_j*P (cleared by 1+N).  Scalar invariant units do not affect the
# rank/membership results downstream.
_DP = MatrixGerm(NUMERATOR.u.dx(), NUMERATOR.u.dy(), NUMERATOR.v.dx(), NUMERATOR.v.dy())
TANGENT_GENERATORS = {
    **{f"dF.X{i}": _DP.apply(xi).scale(Poly2.const(1) + N)
       - NUMERATOR.scale(N.dx() * xi.u + N.dy() * xi.v)
       for i, xi in enumerate(GENERATORS, start=1)},
    **{f"S{j}.F": sj.apply(NUMERATOR) for j, sj in enumerate(S_GERMS, start=1)},
    **{f"T{j}.F": tj.apply(NUMERATOR) for j, tj in enumerate(T_GERMS, start=1)},
}

# The four relation classes among the degree-5/7 labels, each as (name,
# {label: coeff}, vector field of the represented class).  The first two
# are exact zero identities among the generator products; the last two
# rewrite N^3*X1 and N^3*X2 (dropped, higher-filtration content) through
# kept labels.
RELATIONS = (
    ("A*X1-4*B*X2-N*X3",
     {((0, 1, 0), 1): F1, ((0, 0, 1), 2): Fraction(-4), ((1, 0, 0), 3): Fraction(-1)},
     X1.scale(A) - X2.scale(B * 4) - X3.scale(N)),
    ("A*X2+4*B*X1-N*X4",
     {((0, 1, 0), 2): F1, ((0, 0, 1), 1): Fraction(4), ((1, 0, 0), 4): Fraction(-1)},
     X2.scale(A) + X1.scale(B * 4) - X4.scale(N)),
    ("A*X3+4*B*X4 (= N^3*X1)",
     {((0, 1, 0), 3): F1, ((0, 0, 1), 4): Fraction(4)},
     X3.scale(A) + X4.scale(B * 4) - X1.scale(N ** 3)),
    ("A*X4-4*B*X3 (= N^3*X2)",
     {((0, 1, 0), 4): F1, ((0, 0, 1), 3): Fraction(-4)},
     X4.scale(A) - X3.scale(B * 4) - X2.scale(N ** 3)),
)


def verify_invariant_relation() -> bool:
    """Exact check of the invariant-ring relation N^4 = A^2 + 16 B^2."""
    return (N ** 4 - A * A - Poly2.const(16) * B * B).is_zero()


# ---------------------------------------------------------------------------
# labels and canonical module decomposition
# ---------------------------------------------------------------------------

GEN_DEGREE = {1: 1, 2: 1, 3: 3, 4: 3}

# column order of the reduction matrix (display order)
GEN12 = (
    ((2, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1),
    ((2, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2),
    ((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 3),
    ((1, 0, 0), 4), ((0, 1, 0), 4), ((0, 0, 1), 4),
)


def label_name(label) -> str:
    (a, b, c), i = label
    parts = []
    if a == 1:
        parts.append("N")
    elif a > 1:
        parts.append(f"N^{a}")
    if b == 1:
        parts.append("A")
    elif b > 1:
        parts.append(f"A^{b}")
    if c == 1:
        parts.append("B")
    elif c > 1:
        parts.append(f"B^{c}")
    parts.append(f"X{i}")
    return "*".join(parts)


def label_degree(label) -> int:
    (a, b, c), i = label
    return 2 * a + 4 * b + 4 * c + GEN_DEGREE[i]


def label_field(label) -> VecEq:
    (a, b, c), i = label
    return GENERATORS[i - 1].scale((N ** a) * (A ** b) * (B ** c))


def _labels_of_degree(d: int):
    """Labels of homogeneous degree d in canonical pivot order:
    generator index ascending, then N-exponent descending, then B before A."""
    out = []
    for i in (1, 2, 3, 4):
        e = d - GEN_DEGREE[i]
        if e < 0 or e % 2:
            continue
        monos = [((e - 4 * (b + c)) // 2, b, c)
                 for b in range(e // 4 + 1) for c in range(e // 4 + 1 - b)]
        monos.sort(key=lambda m: (-m[0], -m[2], -m[1]))
        out.extend(((m, i) for m in monos))
    return out


def _coords(vec: VecEq) -> dict:
    """The pair as {(component, i, j): coeff} over the coefficient space."""
    return ({(0,) + key: c for key, c in vec.u.terms.items()}
            | {(1,) + key: c for key, c in vec.v.terms.items()})


def _reduce(rows: list, vec: dict):
    """(rest, coeffs): the sparse vector vec less its components along the
    echelon rows, taken in order, and the sum of the rows' tags times those
    components.  rest is empty exactly when vec lies in the rows' span."""
    vec, coeffs = dict(vec), {}
    for pivot, row, tag in rows:
        if f := vec.get(pivot):
            for key, c in row.items():
                if s := vec.get(key, F0) - f * c:
                    vec[key] = s
                else:
                    del vec[key]
            for name, c in tag.items():
                coeffs[name] = coeffs.get(name, F0) + f * c
    return vec, coeffs


def _extend(rows: list, vec: dict, name=None) -> None:
    """Append vec to the echelon rows, reduced and scaled to 1 at its first
    key (the row's pivot), unless it reduces to zero.  The row's tag
    {name: Fraction} is the combination of named vectors that it equals."""
    rest, coeffs = _reduce(rows, vec)
    if rest:
        pivot = next(iter(rest))
        inv = F1 / rest[pivot]
        tag = {lab: -c * inv for lab, c in coeffs.items()}
        if name is not None:
            tag[name] = inv
        rows.append((pivot, {key: c * inv for key, c in rest.items()}, tag))


def _sparse(row) -> dict:
    """A row of Fractions as a sparse vector {column: Fraction}."""
    return {j: v for j, v in enumerate(row) if v}


@cache
def _label_basis() -> tuple:
    """(labels, rows): the labels of degrees 1-7, in degree order and in
    canonical order within each degree, and the echelon rows of their
    fields, tagged by label (a label in the span of those before it is
    dependent: coefficient 0).  Fields of different degrees share no
    coefficient, so each degree's rows are those of its own basis."""
    labels = [lab for d in range(1, 8) for lab in _labels_of_degree(d)]
    rows = []
    for lab in labels:
        _extend(rows, _coords(label_field(lab)), lab)
    return tuple(labels), tuple(rows)


def module_decompose(vec: VecEq) -> dict:
    """Canonical decomposition over invariant-monomial times generator labels.

    Returns {label: Fraction} with label = ((a, b, c), i) standing for
    N^a A^b B^c X_i.  Input degrees above 7, where the decomposition stops
    being canonical, are rejected; re-expanding the result reproduces the
    input exactly.  Raises ValueError for pairs outside the module span
    (non-equivariant input).

    The pair is reduced against the echelon basis of label coordinates,
    built once; the tags of the rows it takes off give the coefficients.
    """
    if vec.degree() > 7:
        raise ValueError(f"input degree {vec.degree()} exceeds 7")
    labels, rows = _label_basis()
    rest, coeffs = _reduce(rows, _coords(vec))
    if rest:
        raise ValueError("not in module span: inconsistent coefficient system")
    return {lab: c for lab in labels if (c := coeffs.get(lab))}


# ---------------------------------------------------------------------------
# the 13x12 reduction matrix
# ---------------------------------------------------------------------------

@dataclass
class TangentMatrixQ:
    entries: list  # 13 rows x 12 cols of Fraction
    row_labels: list
    col_labels: list
    relations: list  # the four relation rows, as 12-vectors
    folded: dict  # row index -> relation name folded into that row


def _label_row(coeffs: dict, columns: tuple, min_dropped: int, context: str) -> list:
    """A decomposition {label: coeff} as a row over the given label columns.

    A label outside the columns is higher-filtration content and is dropped
    when its invariant part has an N factor and its degree is at least
    min_dropped; any other label outside them raises RuntimeError.
    """
    index = {lab: i for i, lab in enumerate(columns)}
    row = [F0] * len(columns)
    for lab, c in coeffs.items():
        if lab in index:
            row[index[lab]] = c
        elif lab[0][0] < 1 or label_degree(lab) < min_dropped:
            raise RuntimeError(f"unexpected label {label_name(lab)} in {context}")
    return row


def build_Q() -> TangentMatrixQ:
    """Reduce the tangent-space candidates against the degree-5 module
    generators.

    The 13 candidate rows follow the construction: the low-order tangent
    generators multiplied by N, the remaining generators as-is, and A*S1.F
    appended.  Each candidate is decomposed canonically and truncated to
    its constant coefficients on the 12 generator columns; terms whose
    invariant part has positive degree are dropped.

    Canonical reduction leaves four rows linearly redundant (the N*S1.F,
    T3.F, T4.F and A*S1.F rows); the four relation classes are folded into
    exactly those rows.  Folding adds either an exact zero identity or
    dropped-filtration content, so every row still represents its
    candidate, while the completed matrix has the representative-free rank
    dim(row span + relation span) = 12.
    """
    gens = TANGENT_GENERATORS
    candidates = [
        ("N*dF.X1", gens["dF.X1"].scale(N)),
        ("N*dF.X2", gens["dF.X2"].scale(N)),
        ("dF.X3", gens["dF.X3"]),
        ("dF.X4", gens["dF.X4"]),
        ("N*S1.F", gens["S1.F"].scale(N)),
        ("S2.F", gens["S2.F"]),
        ("S3.F", gens["S3.F"]),
        ("S4.F", gens["S4.F"]),
        ("N*T1.F", gens["T1.F"].scale(N)),
        ("T2.F", gens["T2.F"]),
        ("T3.F", gens["T3.F"]),
        ("T4.F", gens["T4.F"]),
        ("A*S1.F", gens["S1.F"].scale(A)),
    ]
    names = [name for name, _ in candidates]
    rows = [_label_row(module_decompose(vec), GEN12, 5, name) for name, vec in candidates]
    rel_rows = [_label_row(coeffs, GEN12, 5, name) for name, coeffs, _ in RELATIONS]

    fold_targets = [names.index(nm) for nm in ("N*S1.F", "T3.F", "T4.F", "A*S1.F")]
    basis = []
    for i, row in enumerate(rows):
        if i not in fold_targets:
            _extend(basis, _sparse(row))
    if any(_reduce(basis, _sparse(rows[i]))[0] for i in fold_targets):
        raise RuntimeError("fold targets are not redundant; reduction changed")
    folded = {}
    for target, rel_row, (rel_name, _, _) in zip(fold_targets, rel_rows, RELATIONS):
        rows[target] = [v + w for v, w in zip(rows[target], rel_row)]
        _extend(basis, _sparse(rows[target]))
        folded[target] = rel_name
    if len(basis) != 12:
        raise RuntimeError("completed reduction matrix does not have rank 12")
    return TangentMatrixQ(entries=rows, row_labels=names,
                          col_labels=[label_name(lab) for lab in GEN12],
                          relations=rel_rows, folded=folded)


def rank_exact(matrix) -> int:
    """Rank over the rationals: the size of the echelon basis of the rows.

    Entries are taken exactly as Fraction(v), so the float 0.1 is not 1/10.
    """
    basis, widths = [], set()
    for row in matrix:
        fr = [v if isinstance(v, Fraction) else Fraction(v) for v in row]
        widths.add(len(fr))
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        _extend(basis, _sparse(fr))
    return len(basis)


# ---------------------------------------------------------------------------
# codimension
# ---------------------------------------------------------------------------

LABELS18 = (
    ((0, 0, 0), 1), ((0, 0, 0), 2),
    ((1, 0, 0), 1), ((1, 0, 0), 2), ((0, 0, 0), 3), ((0, 0, 0), 4),
) + GEN12


@dataclass
class CodimensionReport:
    dim_tangent: int
    memberships: dict
    dim_with_v2: int
    dim_with_v1: int
    complement: tuple
    passed: bool


def codimension_check() -> CodimensionReport:
    """Verify that the tangent space misses exactly three directions.

    Works in the 18-label space (generators of filtration degree <= 5):
    stacks the truncated invariant multiples of the 12 cleared tangent
    generators together with the four relation classes, then checks

    * the span has dimension 15 and contains N*X1, X3 and 3*N*X2+X4,
    * adjoining X1, X2, N*X2 (or X1, X2, X4) raises the dimension to 18,

    i.e. codimension 3 with complement {X1, X2, N*X2}.
    """
    def label_row(vec, context):
        return _sparse(_label_row(module_decompose(vec), LABELS18, 7, context))

    multipliers = [Poly2.const(1), N, A, B, N * N]
    basis = []
    for name, g in TANGENT_GENERATORS.items():
        for mult in multipliers:
            vec = g.scale(mult).truncate(7)
            if not vec.is_zero():
                _extend(basis, label_row(vec, name))
    for _, coeffs, _ in RELATIONS:
        _extend(basis, _sparse(_label_row(coeffs, LABELS18, 7, "relation")))
    dim_tangent = len(basis)

    targets = {
        "N*X1": X1.scale(N),
        "X3": X3,
        "3*N*X2+X4": X2.scale(N * 3) + X4,
    }
    memberships = {name: not _reduce(basis, label_row(vec, name))[0]
                   for name, vec in targets.items()}

    def adjoin(fields):
        extended = list(basis)
        for f in fields:
            _extend(extended, label_row(f, "complement"))
        return len(extended)

    dim_v2 = adjoin([X1, X2, X2.scale(N)])
    dim_v1 = adjoin([X1, X2, X4])
    passed = (dim_tangent == 15 and all(memberships.values())
              and dim_v2 == 18 and dim_v1 == 18)
    return CodimensionReport(dim_tangent=dim_tangent, memberships=memberships,
                             dim_with_v2=dim_v2, dim_with_v1=dim_v1,
                             complement=("X1", "X2", "N*X2"), passed=passed)
