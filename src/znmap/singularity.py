"""Exact polynomial algebra for the order-4 equivariant tangent-space
computation: invariants, equivariant generators, matrix germs, the cleared
tangent generators of the quartic map, the 13x12 reduction matrix (rank 12),
and the codimension-3 complement.

Everything here is exact: coefficients are ``fractions.Fraction`` and no
floating point enters.

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
B before A) and the linear system is solved with that pivot preference,
zeroing the coefficients of dependent labels.  Rank and dimension results
are computed in the label space together with the four relation classes
above, which is independent of any representative choice.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

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

    def homogeneous_parts(self) -> dict:
        parts = {}
        for (i, j), c in self.terms.items():
            part = parts.setdefault(i + j, Poly2())
            part.terms[(i, j)] = c
        return parts

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
# generators
# ---------------------------------------------------------------------------

def make_invariants():
    """Hilbert basis of the invariant ring: N = x^2+y^2,
    A = x^4+y^4-6x^2y^2, B = (x^2-y^2)xy."""
    n = X * X + Y * Y
    a = X ** 4 + Y ** 4 - Poly2.const(6) * X * X * Y * Y
    b = (X * X - Y * Y) * X * Y
    return n, a, b


def make_equivariants():
    """Module generators X1 = (x,y), X2 = (-y,x), X3, X4."""
    x1 = VecEq(X, Y)
    x2 = VecEq(-Y, X)
    x3 = VecEq(X * (X * X - Poly2.const(3) * Y * Y),
               Y * (Y * Y - Poly2.const(3) * X * X))
    x4 = VecEq(-Y * (Y * Y - Poly2.const(3) * X * X),
               X * (X * X - Poly2.const(3) * Y * Y))
    return x1, x2, x3, x4


def make_matrix_germs():
    """Matrix-germ generators S1..S4 and their quarter-turn partners
    T_j = C*S_j with C = [[0, 1], [-1, 0]]."""
    zero = Poly2()
    one = Poly2.const(1)
    s1 = MatrixGerm(one, zero, zero, one)
    s2 = MatrixGerm(X * X, X * Y, X * Y, Y * Y)
    s3 = MatrixGerm(-(X * X), X * Y, X * Y, -(Y * Y))
    s4 = MatrixGerm(zero, X * X * X * Y, X * Y * Y * Y, zero)
    def turn(s):
        return MatrixGerm(s.c, s.d, -s.a, -s.b)
    return (s1, s2, s3, s4), tuple(turn(s) for s in (s1, s2, s3, s4))


def base_numerator() -> VecEq:
    """P = (-y^3, x^3), the numerator of the quartic map with k = 1."""
    return VecEq(-(Y * Y * Y), X * X * X)


def cleared_tangent_generators():
    """The 12 tangent-space generators with denominators cleared.

    The derivative terms use the quotient rule cleared by (1+N)^2:
    (1+N)*(dP . X_i) - (grad N . X_i)*P; the matrix-germ terms are S_j*P
    and T_j*P (cleared by 1+N).  Scalar invariant units do not affect the
    rank/membership results downstream.
    """
    n, _, _ = make_invariants()
    xs = make_equivariants()
    ss, ts = make_matrix_germs()
    p = base_numerator()
    one = Poly2.const(1)
    dp = MatrixGerm(p.u.dx(), p.u.dy(), p.v.dx(), p.v.dy())
    dn = (n.dx(), n.dy())
    out = []
    for i, xi in enumerate(xs, start=1):
        dn_xi = dn[0] * xi.u + dn[1] * xi.v
        g = dp.apply(xi).scale(one + n) - p.scale(dn_xi)
        out.append((f"dF.X{i}", g))
    for j, sj in enumerate(ss, start=1):
        out.append((f"S{j}.F", sj.apply(p)))
    for j, tj in enumerate(ts, start=1):
        out.append((f"T{j}.F", tj.apply(p)))
    return out


def verify_invariant_relation() -> bool:
    """Exact check of the invariant-ring relation N^4 = A^2 + 16 B^2."""
    n, a, b = make_invariants()
    return (n ** 4 - a * a - Poly2.const(16) * b * b).is_zero()


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


_LABEL_CACHE: dict = {}


def label_field(label) -> VecEq:
    if label not in _LABEL_CACHE:
        (a, b, c), i = label
        n, aa, bb = make_invariants()
        mono = (n ** a) * (aa ** b) * (bb ** c)
        _LABEL_CACHE[label] = make_equivariants()[i - 1].scale(mono)
    return _LABEL_CACHE[label]


def _labels_of_degree(d: int):
    """Labels of homogeneous degree d in canonical pivot order:
    generator index ascending, then N-exponent descending, then B before A."""
    out = []
    for i in (1, 2, 3, 4):
        e = d - GEN_DEGREE[i]
        if e < 0 or e % 2:
            continue
        monos = []
        for b in range(e // 4 + 1):
            for c in range(e // 4 + 1):
                rem = e - 4 * b - 4 * c
                if rem >= 0 and rem % 2 == 0:
                    monos.append((rem // 2, b, c))
        monos.sort(key=lambda m: (-m[0], -m[2], -m[1]))
        out.extend(((m, i) for m in monos))
    return out


def _decompose_homogeneous(vec: VecEq, d: int) -> dict:
    labels = _labels_of_degree(d)
    if not labels:
        raise ValueError(f"not in module span: no equivariant labels of degree {d}")
    cols = []
    for lab in labels:
        f = label_field(lab)
        cols.append({(0,) + key: c for key, c in f.u.terms.items()}
                    | {(1,) + key: c for key, c in f.v.terms.items()})
    rhs = ({(0,) + key: c for key, c in vec.u.terms.items()}
           | {(1,) + key: c for key, c in vec.v.terms.items()})
    coords = sorted(set().union(*cols, rhs.keys()))
    mat = [[col.get(cd, F0) for col in cols] for cd in coords]
    b = [rhs.get(cd, F0) for cd in coords]
    nrows, ncols = len(coords), len(labels)
    used = [False] * nrows
    pivot_row = {}
    for ci in range(ncols):
        piv = next((ri for ri in range(nrows) if not used[ri] and mat[ri][ci] != 0), None)
        if piv is None:
            continue  # dependent label: coefficient forced to zero
        used[piv] = True
        pivot_row[ci] = piv
        inv = F1 / mat[piv][ci]
        mat[piv] = [v * inv for v in mat[piv]]
        b[piv] *= inv
        for ri in range(nrows):
            if ri != piv and mat[ri][ci]:
                f = mat[ri][ci]
                mat[ri] = [v - f * w for v, w in zip(mat[ri], mat[piv])]
                b[ri] -= f * b[piv]
    for ri in range(nrows):
        if not used[ri] and b[ri] != 0:
            raise ValueError("not in module span: inconsistent coefficient system")
    return {labels[ci]: b[ri] for ci, ri in pivot_row.items() if b[ri]}


def module_decompose(vec: VecEq) -> dict:
    """Canonical decomposition over invariant-monomial times generator labels.

    Returns {label: Fraction} with label = ((a, b, c), i) standing for
    N^a A^b B^c X_i.  Input degrees above 7, where the decomposition stops
    being canonical, are rejected; re-expanding the result reproduces the
    input exactly.  Raises ValueError for pairs outside the module span
    (non-equivariant input).
    """
    if vec.degree() > 7:
        raise ValueError(f"input degree {vec.degree()} exceeds 7")
    parts_u = vec.u.homogeneous_parts()
    parts_v = vec.v.homogeneous_parts()
    out = {}
    for d in sorted(set(parts_u) | set(parts_v)):
        part = VecEq(parts_u.get(d, Poly2()), parts_v.get(d, Poly2()))
        out.update(_decompose_homogeneous(part, d))
    return out


def generator_relations():
    """The four relation classes among the degree-5/7 labels.

    The first two are exact zero identities among the generator products;
    the last two rewrite N^3*X1 and N^3*X2 (dropped, higher-filtration
    content) through kept labels.  Each entry is (name, {label: coeff},
    vector field of the represented class).
    """
    n, a, b = make_invariants()
    x1, x2, x3, x4 = make_equivariants()
    rel = []
    rel.append(("A*X1-4*B*X2-N*X3",
                {((0, 1, 0), 1): F1, ((0, 0, 1), 2): Fraction(-4), ((1, 0, 0), 3): Fraction(-1)},
                x1.scale(a) - x2.scale(b * 4) - x3.scale(n)))
    rel.append(("A*X2+4*B*X1-N*X4",
                {((0, 1, 0), 2): F1, ((0, 0, 1), 1): Fraction(4), ((1, 0, 0), 4): Fraction(-1)},
                x2.scale(a) + x1.scale(b * 4) - x4.scale(n)))
    rel.append(("A*X3+4*B*X4 (= N^3*X1)",
                {((0, 1, 0), 3): F1, ((0, 0, 1), 4): Fraction(4)},
                x3.scale(a) + x4.scale(b * 4) - x1.scale(n ** 3)))
    rel.append(("A*X4-4*B*X3 (= N^3*X2)",
                {((0, 1, 0), 4): F1, ((0, 0, 1), 3): Fraction(-4)},
                x4.scale(a) - x3.scale(b * 4) - x2.scale(n ** 3)))
    return rel


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


def _row_from_decomposition(name: str, coeffs: dict) -> list:
    row = [F0] * len(GEN12)
    index = {lab: i for i, lab in enumerate(GEN12)}
    for lab, c in coeffs.items():
        if lab in index:
            row[index[lab]] = c
        elif label_degree(lab) < 5:
            raise RuntimeError(f"row not in E5: candidate {name} has surviving "
                               f"low-order term {label_name(lab)}")
        else:
            # higher-filtration content (invariant part divisible by N): dropped
            if lab[0][0] < 1:
                raise RuntimeError(f"unexpected kept-degree label {label_name(lab)} "
                                   f"in candidate {name}")
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
    gens = dict(cleared_tangent_generators())
    n, a, _ = make_invariants()
    candidates = [
        ("N*dF.X1", gens["dF.X1"].scale(n)),
        ("N*dF.X2", gens["dF.X2"].scale(n)),
        ("dF.X3", gens["dF.X3"]),
        ("dF.X4", gens["dF.X4"]),
        ("N*S1.F", gens["S1.F"].scale(n)),
        ("S2.F", gens["S2.F"]),
        ("S3.F", gens["S3.F"]),
        ("S4.F", gens["S4.F"]),
        ("N*T1.F", gens["T1.F"].scale(n)),
        ("T2.F", gens["T2.F"]),
        ("T3.F", gens["T3.F"]),
        ("T4.F", gens["T4.F"]),
        ("A*S1.F", gens["S1.F"].scale(a)),
    ]
    rows = []
    names = []
    for name, vec in candidates:
        coeffs = module_decompose(vec)
        rows.append(_row_from_decomposition(name, coeffs))
        names.append(name)

    relations = generator_relations()
    rel_rows = []
    index = {lab: i for i, lab in enumerate(GEN12)}
    for _, coeffs, _ in relations:
        row = [F0] * len(GEN12)
        for lab, c in coeffs.items():
            row[index[lab]] = c
        rel_rows.append(row)

    fold_targets = [names.index(nm) for nm in ("N*S1.F", "T3.F", "T4.F", "A*S1.F")]
    keep = [rows[i] for i in range(len(rows)) if i not in fold_targets]
    if rank_exact(keep) != rank_exact(rows):
        raise RuntimeError("fold targets are not redundant; reduction changed")
    folded = {}
    for target, rel_row, (rel_name, _, _) in zip(fold_targets, rel_rows, relations):
        rows[target] = [v + w for v, w in zip(rows[target], rel_row)]
        folded[target] = rel_name
    if rank_exact(rows) != 12:
        raise RuntimeError("completed reduction matrix does not have rank 12")
    return TangentMatrixQ(entries=rows, row_labels=names,
                          col_labels=[label_name(lab) for lab in GEN12],
                          relations=rel_rows, folded=folded)


def rank_exact(matrix) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    Rows are scaled to integers first (rank-invariant); all arithmetic is
    exact arbitrary-precision integer work.
    """
    rows = []
    width = None
    for row in matrix:
        fr = [Fraction(v) for v in row]
        if width is None:
            width = len(fr)
        elif len(fr) != width:
            raise ValueError("ragged matrix")
        lcm = 1
        for v in fr:
            lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
        rows.append([int(v * lcm) for v in fr])
    if not rows or width == 0:
        return 0
    nrows = len(rows)
    rank = 0
    prev = 1
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, width):
                num = rows[i][j] * rows[r][c] - rows[i][c] * rows[r][j]
                q, rem = divmod(num, prev)
                if rem:
                    raise AssertionError("fraction-free elimination lost exactness")
                rows[i][j] = q
            rows[i][c] = 0
        prev = rows[r][c]
        r += 1
        rank += 1
        if r == nrows:
            break
    return rank


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


def _label18_vector(coeffs: dict, context: str) -> list:
    index = {lab: i for i, lab in enumerate(LABELS18)}
    row = [F0] * len(LABELS18)
    for lab, c in coeffs.items():
        if lab in index:
            row[index[lab]] = c
        else:
            (a, _, _), _ = lab
            if a < 1 or label_degree(lab) < 7:
                raise RuntimeError(f"unexpected dropped label {label_name(lab)} in {context}")
    return row


def codimension_check() -> CodimensionReport:
    """Verify that the tangent space misses exactly three directions.

    Works in the 18-label space (generators of filtration degree <= 5):
    stacks the truncated invariant multiples of the 12 cleared tangent
    generators together with the four relation classes, then checks

    * the span has dimension 15 and contains N*X1, X3 and 3*N*X2+X4,
    * adjoining X1, X2, N*X2 (or X1, X2, X4) raises the dimension to 18,

    i.e. codimension 3 with complement {X1, X2, N*X2}.
    """
    n, a, b = make_invariants()
    multipliers = [Poly2.const(1), n, a, b, n * n]
    rows = []
    for name, g in cleared_tangent_generators():
        for mult in multipliers:
            vec = g.scale(mult).truncate(7)
            if vec.is_zero():
                continue
            coeffs = module_decompose(vec)
            rows.append(_label18_vector(coeffs, name))
    for _, coeffs, _ in generator_relations():
        rows.append(_label18_vector(coeffs, "relation"))

    dim_tangent = rank_exact(rows)

    x1, x2, x3, x4 = make_equivariants()
    targets = {
        "N*X1": x1.scale(n),
        "X3": x3,
        "3*N*X2+X4": x2.scale(n * 3) + x4,
    }
    memberships = {}
    for name, vec in targets.items():
        vrow = _label18_vector(module_decompose(vec), name)
        memberships[name] = rank_exact(rows + [vrow]) == dim_tangent

    def adjoin(fields):
        extra = [_label18_vector(module_decompose(f), "complement") for f in fields]
        return rank_exact(rows + extra)

    dim_v2 = adjoin([x1, x2, x2.scale(n)])
    dim_v1 = adjoin([x1, x2, x4])
    passed = (dim_tangent == 15 and all(memberships.values())
              and dim_v2 == 18 and dim_v1 == 18)
    return CodimensionReport(dim_tangent=dim_tangent, memberships=memberships,
                             dim_with_v2=dim_v2, dim_with_v1=dim_v1,
                             complement=("X1", "X2", "N*X2"), passed=passed)
