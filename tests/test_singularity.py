import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from znmap.singularity import (
    GEN12,
    LABELS18,
    MatrixGerm,
    Poly2,
    VecEq,
    _label_row,
    _labels_of_degree,
    build_Q,
    codimension_check,
    label_degree,
    label_field,
    label_name,
    module_decompose,
    rank_exact,
    verify_invariant_relation,
)
import znmap.singularity as sg
from znmap.verify import check_singularity

F = Fraction


def subs_rot90(p: Poly2) -> Poly2:
    """Substitute (x, y) -> (-y, x): x^i y^j -> (-1)^i x^j y^i."""
    return Poly2({(j, i): c if i % 2 == 0 else -c for (i, j), c in p.terms.items()})


def evaluate(p: Poly2, xv, yv) -> Fraction:
    xv, yv = Fraction(xv), Fraction(yv)
    return sum((c * xv ** i * yv ** j for (i, j), c in p.terms.items()), start=Fraction(0))


def evaluate_field(f: VecEq, xv, yv) -> tuple:
    return evaluate(f.u, xv, yv), evaluate(f.v, xv, yv)


def check_equivariance(f: VecEq) -> bool:
    """Exact identity f(-y, x) = (-v(x, y), u(x, y))."""
    return subs_rot90(f.u) == -f.v and subs_rot90(f.v) == f.u


def check_matrix_equivariance(s: MatrixGerm) -> bool:
    """Exact identity S(R x) R = R S(x) for the quarter turn R = [[0,-1],[1,0]]."""
    ar, br, cr, dr = (subs_rot90(p) for p in (s.a, s.b, s.c, s.d))
    lhs = (br, -ar, dr, -cr)  # S(R x) R: columns (col 2, -col 1)
    rhs = (-s.c, -s.d, s.a, s.b)  # R S(x): rows (-row 2, row 1)
    return all(l == r for l, r in zip(lhs, rhs))


def homogeneous_parts(p: Poly2) -> dict:
    """{degree: the part of p of that degree}."""
    parts = {}
    for (i, j), c in p.terms.items():
        parts.setdefault(i + j, Poly2()).terms[(i, j)] = c
    return parts


def recompose(coeffs: dict) -> VecEq:
    """Expand a {label: coefficient} decomposition back into a pair."""
    out = VecEq(Poly2(), Poly2())
    for lab, c in coeffs.items():
        out = out + label_field(lab).scale(c)
    return out


def eliminate_per_call(vec: VecEq, d: int) -> dict:
    """Oracle for one homogeneous part: Gauss-Jordan elimination of the
    degree-d label columns against this right-hand side alone, with the
    canonical pivot order, redone on every call."""
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
    mat = [[col.get(cd, F(0)) for col in cols] for cd in coords]
    b = [rhs.get(cd, F(0)) for cd in coords]
    nrows, ncols = len(coords), len(labels)
    used = [False] * nrows
    pivot_row = {}
    for ci in range(ncols):
        piv = next((ri for ri in range(nrows) if not used[ri] and mat[ri][ci] != 0), None)
        if piv is None:
            continue
        used[piv] = True
        pivot_row[ci] = piv
        inv = 1 / mat[piv][ci]
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


def decompose_per_call(vec: VecEq) -> dict:
    """Oracle for module_decompose: eliminate_per_call on each degree."""
    parts_u = homogeneous_parts(vec.u)
    parts_v = homogeneous_parts(vec.v)
    out = {}
    for d in sorted(set(parts_u) | set(parts_v)):
        part = VecEq(parts_u.get(d, Poly2()), parts_v.get(d, Poly2()))
        out.update(eliminate_per_call(part, d))
    return out


def rank_bareiss(matrix) -> int:
    """Oracle for rank_exact: fraction-free (Bareiss) elimination of the
    rows scaled to integers, all of it exact integer work."""
    rows = []
    width = None
    for row in matrix:
        fr = [v if isinstance(v, Fraction) else Fraction(v) for v in row]
        if width is None:
            width = len(fr)
        elif len(fr) != width:
            raise ValueError("ragged matrix")
        lcm = math.lcm(*(v.denominator for v in fr))
        rows.append([v.numerator * (lcm // v.denominator) for v in fr])
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
                assert not rem, "fraction-free elimination lost exactness"
                rows[i][j] = q
            rows[i][c] = 0
        prev = rows[r][c]
        r += 1
        rank += 1
        if r == nrows:
            break
    return rank


def codimension_rows():
    """The rows codimension_check reduces, built here on their own: the
    tangent rows with the relations, the three membership targets, and the
    four complement fields X1, X2, N*X2 and X4."""
    n = sg.N
    rows = []
    for name, g in sg.TANGENT_GENERATORS.items():
        for mult in (Poly2.const(1), n, sg.A, sg.B, n * n):
            vec = g.scale(mult).truncate(7)
            if not vec.is_zero():
                rows.append(_label_row(module_decompose(vec), LABELS18, 7, name))
    rows += [_label_row(coeffs, LABELS18, 7, "relation") for _, coeffs, _ in sg.RELATIONS]

    def as_row(f):
        return _label_row(module_decompose(f), LABELS18, 7, "test")

    targets = [as_row(f) for f in (sg.X1.scale(n), sg.X3, sg.X2.scale(n * 3) + sg.X4)]
    complement = [as_row(f) for f in (sg.X1, sg.X2, sg.X2.scale(n), sg.X4)]
    return rows, targets, complement


# ---------------------------------------------------------------------------
# polynomials and generators
# ---------------------------------------------------------------------------

def test_poly_arithmetic_stays_exact():
    x = Poly2.monomial(1, 0)
    y = Poly2.monomial(0, 1)
    p = (x + y) * (x - y)
    assert p == Poly2({(2, 0): 1, (0, 2): -1})
    third = Poly2.const(F(1, 3))
    assert (third * 3) == Poly2.const(1)
    assert (p - p).is_zero()


def test_invariant_values():
    assert evaluate(sg.N, 1, 2) == 5
    assert evaluate(sg.A, 1, 1) == -4
    assert evaluate(sg.B, 2, 1) == 6


def test_invariant_relation_exact_and_spot_checks():
    assert verify_invariant_relation()
    for pt in ((2, 1), (1, 0), (3, -2)):
        assert evaluate(sg.N, *pt) ** 4 == evaluate(sg.A, *pt) ** 2 + 16 * evaluate(sg.B, *pt) ** 2


def test_equivariant_generators():
    assert sg.GENERATORS == (sg.X1, sg.X2, sg.X3, sg.X4)
    assert sg.X2.u == Poly2({(0, 1): -1}) and sg.X2.v == Poly2({(1, 0): 1})
    assert evaluate_field(sg.X3, 1, 0) == (1, 0)
    for f in sg.GENERATORS:
        assert check_equivariance(f)


def test_check_equivariance_rejects_reflection():
    bad = VecEq(Poly2.monomial(1, 0), Poly2({(0, 1): -1}))  # (x, -y)
    assert not check_equivariance(bad)


def test_invariant_multiples_stay_equivariant():
    assert check_equivariance(sg.X1.scale(sg.N + sg.A * 2 + sg.B))


def test_matrix_germs_equivariant_and_t2_display():
    for m in sg.S_GERMS + sg.T_GERMS:
        assert check_matrix_equivariance(m)
    t2 = sg.T_GERMS[1]
    assert t2.a == Poly2({(1, 1): 1})          # xy
    assert t2.b == Poly2({(0, 2): 1})          # y^2
    assert t2.c == Poly2({(2, 0): -1})         # -x^2
    assert t2.d == Poly2({(1, 1): -1})         # -xy


# ---------------------------------------------------------------------------
# cleared tangent generators
# ---------------------------------------------------------------------------

def test_cleared_generators_all_equivariant():
    assert list(sg.TANGENT_GENERATORS) == (
        [f"dF.X{i}" for i in range(1, 5)] + [f"S{j}.F" for j in range(1, 5)]
        + [f"T{j}.F" for j in range(1, 5)])
    for name, g in sg.TANGENT_GENERATORS.items():
        assert check_equivariance(g), name


def test_s1_term_is_the_numerator():
    assert (sg.TANGENT_GENERATORS["S1.F"] - sg.NUMERATOR).is_zero()
    coeffs = module_decompose(sg.NUMERATOR)
    assert coeffs == {((1, 0, 0), 2): F(3, 4), ((0, 0, 0), 4): F(1, 4)}


def test_t2_term_is_minus_b_x2():
    assert (sg.TANGENT_GENERATORS["T2.F"] + sg.X2.scale(sg.B)).is_zero()


def test_generator_relations_are_exact():
    assert len(sg.RELATIONS) == 4
    for name, _, vec in sg.RELATIONS:
        assert vec.is_zero(), name


def terms_of(obj):
    """A constant's polynomials as lists of (key, coeff) in dict order,
    which _extend's pivots follow."""
    if isinstance(obj, Poly2):
        return list(obj.terms.items())
    if isinstance(obj, VecEq):
        return [terms_of(obj.u), terms_of(obj.v)]
    if isinstance(obj, MatrixGerm):
        return [terms_of(p) for p in (obj.a, obj.b, obj.c, obj.d)]
    if isinstance(obj, dict):
        return [(key, terms_of(v)) for key, v in obj.items()]
    if isinstance(obj, tuple):
        return [terms_of(v) for v in obj]
    return obj


CONSTANTS = ("X", "Y", "N", "A", "B", "X1", "X2", "X3", "X4", "GENERATORS", "S_GERMS",
             "T_GERMS", "NUMERATOR", "TANGENT_GENERATORS", "RELATIONS")


def test_no_computation_changes_a_constant():
    before = {name: terms_of(getattr(sg, name)) for name in CONSTANTS}
    build_Q()
    codimension_check()
    assert check_singularity().passed
    for d in range(1, 8):
        for lab in _labels_of_degree(d):
            module_decompose(label_field(lab))
    assert {name: terms_of(getattr(sg, name)) for name in CONSTANTS} == before


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_simple_labels():
    assert module_decompose(sg.X1.scale(sg.N)) == {((1, 0, 0), 1): F(1)}
    assert module_decompose(sg.X2.scale(sg.A)) == {((0, 1, 0), 2): F(1)}


def test_decompose_round_trip_on_all_generators():
    for name, g in sg.TANGENT_GENERATORS.items():
        coeffs = module_decompose(g)
        assert (recompose(coeffs) - g).is_zero(), name


def test_decompose_rejects_non_equivariant():
    bad = VecEq(Poly2.monomial(1, 0), Poly2({(0, 1): -1}))
    with pytest.raises(ValueError, match="not in module span"):
        module_decompose(bad)


def test_decompose_matches_per_call_elimination(monkeypatch):
    # every vector that build_Q and codimension_check decompose, starting
    # from an empty cache of label bases, in the same order and with the
    # same dicts
    seen = []
    solve = sg.module_decompose

    def recording(vec):
        out = solve(vec)
        seen.append((vec, out))
        return out

    sg._label_basis.cache_clear()
    monkeypatch.setattr(sg, "module_decompose", recording)
    build_Q()
    codimension_check()
    assert len(seen) == 56
    for vec, out in seen:
        expected = decompose_per_call(vec)
        assert list(out.items()) == list(expected.items())
        assert all(type(c) is Fraction for c in out.values())


@pytest.mark.parametrize("vec, d", [
    (VecEq(Poly2.monomial(1, 0), Poly2({(0, 1): -1})), 1),   # (x, -y): inconsistent
    (VecEq(Poly2.monomial(5, 0), Poly2()), 5),                # (x^5, 0): inconsistent
    (VecEq(Poly2.monomial(3, 0), Poly2.monomial(2, 1)), 5),   # outside every degree-d field
])
def test_decompose_rejection_routes_match_per_call_elimination(vec, d):
    with pytest.raises(ValueError, match="not in module span: inconsistent") as oracle:
        eliminate_per_call(vec, d)
    with pytest.raises(ValueError, match="not in module span: inconsistent") as solver:
        module_decompose(vec)
    assert str(solver.value) == str(oracle.value)


def test_decompose_result_is_a_fresh_dict():
    p = sg.NUMERATOR
    first = module_decompose(p)
    expected = dict(first)
    first[((1, 0, 0), 2)] = F(99)
    first[((0, 0, 0), 1)] = F(1)
    del first[((0, 0, 0), 4)]
    assert module_decompose(p) == expected
    assert module_decompose(p) is not module_decompose(p)


def test_decompose_rejects_large_degree():
    with pytest.raises(ValueError):
        module_decompose(sg.X1.scale(sg.N ** 4))  # degree 9


def test_candidate_degrees_are_five_and_seven():
    # no even-degree content anywhere in the reduction candidates
    q = build_Q()
    gens = sg.TANGENT_GENERATORS
    n, a = sg.N, sg.A
    vecs = [gens["dF.X1"].scale(n), gens["dF.X2"].scale(n), gens["dF.X3"],
            gens["dF.X4"], gens["S1.F"].scale(n), gens["S2.F"], gens["S3.F"],
            gens["S4.F"], gens["T1.F"].scale(n), gens["T2.F"], gens["T3.F"],
            gens["T4.F"], gens["S1.F"].scale(a)]
    for vec in vecs:
        degrees = {d for part in (vec.u, vec.v)
                   for d in homogeneous_parts(part)}
        assert degrees <= {5, 7}


# ---------------------------------------------------------------------------
# the reduction matrix
# ---------------------------------------------------------------------------

def test_q_dimensions_and_rank():
    q = build_Q()
    assert len(q.entries) == 13
    assert all(len(row) == 12 for row in q.entries)
    assert rank_exact(q.entries) == 12


def test_q_row_for_t2_candidate():
    q = build_Q()
    row = q.entries[q.row_labels.index("T2.F")]
    col = q.col_labels.index("B*X2")
    assert row[col] == F(-1)
    assert all(v == 0 for i, v in enumerate(row) if i != col)


def test_q_row_for_s4_candidate():
    q = build_Q()
    row = q.entries[q.row_labels.index("S4.F")]
    col = q.col_labels.index("B*X3")
    assert row[col] == F(1, 8)
    assert all(v == 0 for i, v in enumerate(row) if i != col)


def test_q_rank_after_dropping_s4_row():
    q = build_Q()
    rows = [r for i, r in enumerate(q.entries) if q.row_labels[i] != "S4.F"]
    assert rank_exact(rows) <= 12
    assert rank_exact(rows) == rank_exact(list(rows))  # exact, deterministic


def test_q_folded_rows_keep_their_class():
    # each folded row differs from the pure candidate by a relation class
    q = build_Q()
    assert set(q.folded) == {q.row_labels.index(nm)
                             for nm in ("N*S1.F", "T3.F", "T4.F", "A*S1.F")}


def test_q_relations_recorded():
    q = build_Q()
    assert len(q.relations) == 4
    idx = {lab: i for i, lab in enumerate(q.col_labels)}
    s1 = q.relations[0]
    assert s1[idx["A*X1"]] == 1 and s1[idx["B*X2"]] == -4 and s1[idx["N*X3"]] == -1


# ---------------------------------------------------------------------------
# exact rank
# ---------------------------------------------------------------------------

def test_rank_exact_identity_and_deficient():
    assert rank_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank_exact([[1, 2], [2, 4], [3, 6]]) == 1
    assert rank_exact([[F(1, 3), F(1, 7)], [F(2, 3), F(2, 7)]]) == 1


def test_rank_exact_mixed_entry_types():
    # ints, binary floats (converted exactly) and Fractions in one matrix
    assert rank_exact([[1, 0.5, F(1, 3)], [2, 1.0, F(2, 3)], [0, 0.25, 1]]) == 2
    assert rank_exact([[0.1, F(1, 3)], [0.2, F(2, 3)]]) == 1
    assert rank_exact([[0.1, F(1, 10)], [1, 1]]) == 2  # 0.1 is not 1/10
    assert rank_exact([[F(-3, 4), 0], [0, -2.5]]) == 2


def test_rank_exact_zero_width_and_empty():
    assert rank_exact([[], [], []]) == 0
    assert rank_exact([]) == 0
    with pytest.raises(ValueError, match="ragged"):
        rank_exact([[], [1]])


def test_rank_exact_invariant_under_scaling_and_permutation():
    q = build_Q()
    scaled = [[F(7, 3) * v for v in row] for row in q.entries]
    assert rank_exact(scaled) == 12
    permuted = list(reversed(q.entries))
    assert rank_exact(permuted) == 12


ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.fractions(-3, 3, max_denominator=7),
    st.sampled_from([0.0, -0.0, 0.1, 0.5, -2.5, 1e-300]),
    st.floats(-1e3, 1e3),
)


@st.composite
def small_matrices(draw):
    """Up to 4 rows of width 0..4 over int, Fraction and float entries,
    then up to 3 zero rows, repeated rows or sums of a row and a multiple
    of another, inserted anywhere."""
    width = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=width, max_size=width), max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "repeat", "combination"]))
        if kind == "zero" or not rows:
            new = [draw(st.sampled_from([0, 0.0, F(0)])) for _ in range(width)]
        else:
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, len(rows) - 1))
            c = draw(st.integers(-2, 2)) if kind == "combination" else 0
            new = [F(u) + c * F(v) for u, v in zip(rows[i], rows[j])]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows


@given(small_matrices())
def test_rank_exact_is_the_bareiss_rank(matrix):
    assert rank_exact(matrix) == rank_bareiss(matrix)
    assert rank_exact([tuple(row) for row in reversed(matrix)]) == rank_bareiss(matrix)


def test_rank_exact_is_the_bareiss_rank_on_the_reduction_rows():
    q = build_Q()
    unfolded = [list(row) for row in q.entries]
    for j, target in enumerate(q.folded):
        unfolded[target] = [v - w for v, w in zip(q.entries[target], q.relations[j])]
    kept = [row for i, row in enumerate(unfolded) if i not in q.folded]
    assert rank_bareiss(kept) == rank_bareiss(unfolded)  # the fold targets are redundant
    matrices = [q.entries, unfolded, kept, q.relations]
    matrices += [q.entries[:i] + q.entries[i + 1:] for i in range(len(q.entries))]
    for m in matrices:
        assert rank_exact(m) == rank_bareiss(m)
    assert rank_bareiss(q.entries) == 12


def test_codimension_check_is_the_bareiss_rank_of_its_rows():
    rows, targets, complement = codimension_rows()
    rep = codimension_check()
    assert rank_exact(rows) == rank_bareiss(rows) == rep.dim_tangent == 15
    for name, t in zip(rep.memberships, targets):
        assert rank_exact(rows + [t]) == rank_bareiss(rows + [t]) == 15, name
        assert rep.memberships[name]
    for c in complement:
        assert rank_exact(rows + [c]) == rank_bareiss(rows + [c]) == 16
    x1, x2, n_x2, x4 = complement
    assert rank_exact(rows + [x1, x2, n_x2]) == rank_bareiss(rows + [x1, x2, n_x2]) == rep.dim_with_v2
    assert rank_exact(rows + [x1, x2, x4]) == rank_bareiss(rows + [x1, x2, x4]) == rep.dim_with_v1


# ---------------------------------------------------------------------------
# codimension
# ---------------------------------------------------------------------------

def test_codimension_report():
    rep = codimension_check()
    assert rep.passed
    assert rep.dim_tangent == 15
    assert rep.dim_with_v2 == 18
    assert rep.dim_with_v1 == 18
    assert all(rep.memberships.values())
    assert rep.complement == ("X1", "X2", "N*X2")


def test_complement_matches_unfolding_directions():
    # the three deformation directions of the g4 family are exactly the
    # complement: identity, quarter-turn, and radius-weighted quarter-turn
    rep = codimension_check()
    assert rep.complement == ("X1", "X2", "N*X2")


def test_label_helpers():
    assert label_name(((2, 0, 0), 1)) == "N^2*X1"
    assert label_name(((0, 0, 1), 3)) == "B*X3"
    assert label_degree(((2, 0, 0), 1)) == 5
    assert label_degree(((0, 1, 0), 4)) == 7
    assert len(GEN12) == 12


@pytest.mark.parametrize("columns, min_dropped", [(GEN12, 5), (LABELS18, 7)])
def test_label_row_drops_only_high_filtration_labels(columns, min_dropped):
    kept = ((0, 0, 1), 4)  # B*X4, a column of both sets
    n3x1 = ((3, 0, 0), 1)  # N^3*X1: N factor, degree 7, in neither set
    row = _label_row({kept: F(2), n3x1: F(5)}, columns, min_dropped, "test")
    assert row == [F(2) if lab == kept else F(0) for lab in columns]
    # no N factor, outside the columns: never dropped
    with pytest.raises(RuntimeError, match=r"A\^2\*X1 in test"):
        _label_row({((0, 2, 0), 1): F(1)}, columns, min_dropped, "test")
    # the same N^3*X1 raises once min_dropped is above its degree
    with pytest.raises(RuntimeError, match=r"N\^3\*X1"):
        _label_row({n3x1: F(1)}, columns, 9, "test")


def test_label_row_rejects_low_degree_label_outside_gen12():
    assert ((1, 0, 0), 1) not in GEN12  # N*X1, degree 3
    with pytest.raises(RuntimeError, match=r"N\*X1 in candidate"):
        _label_row({((1, 0, 0), 1): F(1)}, GEN12, 5, "candidate")
