from fractions import Fraction

import pytest

from znmap.singularity import (
    GEN12,
    MatrixGerm,
    Poly2,
    VecEq,
    build_Q,
    cleared_tangent_generators,
    codimension_check,
    generator_relations,
    label_degree,
    label_field,
    label_name,
    make_equivariants,
    make_invariants,
    make_matrix_germs,
    module_decompose,
    rank_exact,
    verify_invariant_relation,
    base_numerator,
)

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


def recompose(coeffs: dict) -> VecEq:
    """Expand a {label: coefficient} decomposition back into a pair."""
    out = VecEq(Poly2(), Poly2())
    for lab, c in coeffs.items():
        out = out + label_field(lab).scale(c)
    return out


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
    n, a, b = make_invariants()
    assert evaluate(n, 1, 2) == 5
    assert evaluate(a, 1, 1) == -4
    assert evaluate(b, 2, 1) == 6


def test_invariant_relation_exact_and_spot_checks():
    assert verify_invariant_relation()
    n, a, b = make_invariants()
    for pt in ((2, 1), (1, 0), (3, -2)):
        assert evaluate(n, *pt) ** 4 == evaluate(a, *pt) ** 2 + 16 * evaluate(b, *pt) ** 2


def test_equivariant_generators():
    x1, x2, x3, x4 = make_equivariants()
    assert x2.u == Poly2({(0, 1): -1}) and x2.v == Poly2({(1, 0): 1})
    assert evaluate_field(x3, 1, 0) == (1, 0)
    for f in (x1, x2, x3, x4):
        assert check_equivariance(f)


def test_check_equivariance_rejects_reflection():
    bad = VecEq(Poly2.monomial(1, 0), Poly2({(0, 1): -1}))  # (x, -y)
    assert not check_equivariance(bad)


def test_invariant_multiples_stay_equivariant():
    n, a, b = make_invariants()
    x1 = make_equivariants()[0]
    assert check_equivariance(x1.scale(n + a * 2 + b))


def test_matrix_germs_equivariant_and_t2_display():
    ss, ts = make_matrix_germs()
    for m in ss + ts:
        assert check_matrix_equivariance(m)
    t2 = ts[1]
    assert t2.a == Poly2({(1, 1): 1})          # xy
    assert t2.b == Poly2({(0, 2): 1})          # y^2
    assert t2.c == Poly2({(2, 0): -1})         # -x^2
    assert t2.d == Poly2({(1, 1): -1})         # -xy


# ---------------------------------------------------------------------------
# cleared tangent generators
# ---------------------------------------------------------------------------

def test_cleared_generators_all_equivariant():
    for name, g in cleared_tangent_generators():
        assert check_equivariance(g), name


def test_s1_term_is_the_numerator():
    gens = dict(cleared_tangent_generators())
    p = base_numerator()
    assert (gens["S1.F"] - p).is_zero()
    coeffs = module_decompose(p)
    assert coeffs == {((1, 0, 0), 2): F(3, 4), ((0, 0, 0), 4): F(1, 4)}


def test_t2_term_is_minus_b_x2():
    gens = dict(cleared_tangent_generators())
    _, _, b = make_invariants()
    x2 = make_equivariants()[1]
    assert (gens["T2.F"] + x2.scale(b)).is_zero()


def test_generator_relations_are_exact():
    for name, _, vec in generator_relations():
        assert vec.is_zero(), name


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_simple_labels():
    n, a, _ = make_invariants()
    x1, x2, _, _ = make_equivariants()
    assert module_decompose(x1.scale(n)) == {((1, 0, 0), 1): F(1)}
    assert module_decompose(x2.scale(a)) == {((0, 1, 0), 2): F(1)}


def test_decompose_round_trip_on_all_generators():
    for name, g in cleared_tangent_generators():
        coeffs = module_decompose(g)
        assert (recompose(coeffs) - g).is_zero(), name


def test_decompose_rejects_non_equivariant():
    bad = VecEq(Poly2.monomial(1, 0), Poly2({(0, 1): -1}))
    with pytest.raises(ValueError, match="not in module span"):
        module_decompose(bad)


def test_decompose_rejects_large_degree():
    n, _, _ = make_invariants()
    x1 = make_equivariants()[0]
    with pytest.raises(ValueError):
        module_decompose(x1.scale(n ** 4))  # degree 9


def test_candidate_degrees_are_five_and_seven():
    # no even-degree content anywhere in the reduction candidates
    q = build_Q()
    gens = dict(cleared_tangent_generators())
    n, a, _ = make_invariants()
    vecs = [gens["dF.X1"].scale(n), gens["dF.X2"].scale(n), gens["dF.X3"],
            gens["dF.X4"], gens["S1.F"].scale(n), gens["S2.F"], gens["S3.F"],
            gens["S4.F"], gens["T1.F"].scale(n), gens["T2.F"], gens["T3.F"],
            gens["T4.F"], gens["S1.F"].scale(a)]
    for vec in vecs:
        degrees = {d for part in (vec.u, vec.v)
                   for d in part.homogeneous_parts()}
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


def test_rank_exact_invariant_under_scaling_and_permutation():
    q = build_Q()
    scaled = [[F(7, 3) * v for v in row] for row in q.entries]
    assert rank_exact(scaled) == 12
    permuted = list(reversed(q.entries))
    assert rank_exact(permuted) == 12


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
