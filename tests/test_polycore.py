import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strukt import (
    MatrixPolynomial,
    MobiusMatrix,
    StructureKind,
    evaluate,
    frob_norm,
    from_coeff_list,
    mobius,
    pair_norm,
    poly_matmul,
    random_structured,
    reversal,
    star_adjoint,
    structure_project,
)
from strukt import polycore
from strukt.errors import GradeError, NumericalError, StructureError, StruktError

from conftest import ALL_KINDS, integer_structured_poly
from oracles import MOBIUS_IDENTITY, MOBIUS_REVERSAL, compose, is_coninvolutory, is_structured


def random_poly(rng, rows, cols, grade, complex_field=False):
    raw = rng.standard_normal((grade + 1, rows, cols))
    if complex_field:
        raw = raw + 1j * rng.standard_normal((grade + 1, rows, cols))
    return MatrixPolynomial(raw)


# ---------------------------------------------------------------------------
# frob_norm / evaluate / reversal
# ---------------------------------------------------------------------------

def test_frob_norm_unit_pencil():
    p = from_coeff_list([np.eye(2), np.eye(2)])
    assert frob_norm(p) == 2.0


def test_frob_norm_zero_any_grade():
    assert frob_norm(polycore.zeros(3, 2, grade=4)) == 0.0


def test_frob_norm_three_four_five():
    p = from_coeff_list([np.array([[3.0]]), np.array([[4.0]])])
    assert frob_norm(p) == 5.0


def test_frob_norm_grade_padding_invariant(rng):
    p = random_poly(rng, 2, 3, 2)
    assert frob_norm(polycore.pad_to_grade(p, 7)) == frob_norm(p)


@pytest.mark.parametrize(
    "scale", [2.0**540, 2.0**1000, 2.0**1020], ids=["2^540", "2^1000", "2^1020"]
)
def test_norms_do_not_overflow_below_the_largest_float(scale):
    """A norm whose squares overflow is computed on power-of-two-scaled
    entries: 3-4-5 at any finite scale, complex too, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = from_coeff_list([np.array([[3.0 * scale]]), np.array([[4.0j * scale]])])
        assert frob_norm(p) == 5.0 * scale
        assert pair_norm(np.array([[3.0 * scale]]), np.array([[4.0 * scale]])) == 5.0 * scale
        assert frob_norm(from_coeff_list([np.array([[math.inf]])])) == math.inf


def test_evaluate_pencil():
    p = from_coeff_list([np.eye(2), np.eye(2)])
    assert np.array_equal(evaluate(p, 2.0), 3.0 * np.eye(2))


def test_evaluate_at_zero_gives_constant(rng):
    p = random_poly(rng, 3, 2, 4)
    assert np.array_equal(evaluate(p, 0.0), p.coefficient(0))


def test_evaluate_row():
    # [l^2, l] at -1 -> [1, -1]
    p = from_coeff_list([np.zeros((1, 2)), np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])])
    assert np.array_equal(evaluate(p, -1.0), np.array([[1.0, -1.0]]))


def test_reversal_swaps_pencil():
    p = from_coeff_list([np.array([[-1.0, 0.0]]), np.array([[0.0, 1.0]])])
    r = reversal(p, 1)
    assert np.array_equal(r.coefficient(0), np.array([[0.0, 1.0]]))
    assert np.array_equal(r.coefficient(1), np.array([[-1.0, 0.0]]))


def test_reversal_constant_identity():
    p = from_coeff_list([np.eye(3)])
    assert np.array_equal(reversal(p, 0).coefficient(0), np.eye(3))


def test_reversal_scalar_quadratic():
    p = from_coeff_list([np.array([[3.0]]), np.array([[2.0]]), np.array([[1.0]])])
    r = reversal(p, 2)
    assert [r.coefficient(i)[0, 0] for i in range(3)] == [1.0, 2.0, 3.0]


def test_reversal_grade_below_degree_raises():
    p = from_coeff_list([np.eye(1), np.eye(1), np.eye(1)])
    with pytest.raises(GradeError):
        reversal(p, 1)


@given(seed=st.integers(0, 2**32 - 1), grade=st.integers(0, 4), pad=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_reversal_involution(seed, grade, pad):
    rng = np.random.default_rng(seed)
    p = random_poly(rng, 2, 2, grade)
    g = grade + pad
    back = reversal(reversal(p, g), g)
    assert np.allclose(back.coeffs, polycore.pad_to_grade(p, g).coeffs)


# ---------------------------------------------------------------------------
# Mobius
# ---------------------------------------------------------------------------

def test_mobius_identity_fixes(rng):
    p = random_poly(rng, 2, 3, 3)
    q = mobius(p, MOBIUS_IDENTITY)
    assert np.allclose(q.coeffs, p.coeffs)


def test_mobius_palindromic_matrix_reverses_bidiagonal_row():
    # the 1 x 2 pencil [-1, l] maps to [-l, 1]
    p = from_coeff_list([np.array([[-1.0, 0.0]]), np.array([[0.0, 1.0]])])
    q = mobius(p, StructureKind.palindromic.mobius)
    assert np.array_equal(q.coefficient(0), np.array([[0.0, 1.0]]))
    assert np.array_equal(q.coefficient(1), np.array([[-1.0, 0.0]]))


def test_mobius_even_matrix_negates_lambda():
    p = from_coeff_list([np.zeros((1, 1)), np.ones((1, 1))])
    q = mobius(p, StructureKind.even.mobius)
    assert q.coefficient(1)[0, 0] == -1.0
    assert q.coefficient(0)[0, 0] == 0.0


def test_mobius_singular_matrix_raises(rng):
    p = random_poly(rng, 2, 2, 2)
    with pytest.raises(StruktError):
        mobius(p, MobiusMatrix(1, 2, 2, 4))
    with pytest.raises(StruktError):
        polycore.structure_residual(p, MobiusMatrix(1, 2, 2, 4))


def test_mobius_weights_keep_the_type_of_the_entries(rng):
    """Drivers that compare equal share no weight table when their entries
    differ in type: a complex identity gives a complex image of a real P
    whichever identity was substituted first."""
    p = random_poly(rng, 2, 2, 2)
    real_eye, complex_eye = MobiusMatrix(1, 0, 0, 1), MobiusMatrix(1 + 0j, 0, 0, 1)
    assert real_eye == complex_eye
    for first_real in (True, False):
        polycore._mobius_weights.cache_clear()
        if first_real:
            assert mobius(p, real_eye).field == polycore.REAL
        assert mobius(p, complex_eye).field == polycore.COMPLEX
        assert mobius(p, real_eye).field == polycore.REAL


def test_mobius_matches_rational_form(rng):
    # independent oracle: (c*l + d)^g * P((a*l + b)/(c*l + d)) at sample points
    for _ in range(20):
        g = int(rng.integers(0, 5))
        p = random_poly(rng, 2, 2, g)
        a = MobiusMatrix(*rng.uniform(-1, 1, size=4))
        if abs(a.det) < 0.2:
            continue
        q = mobius(p, a)
        for _ in range(3):
            lam = complex(*rng.standard_normal(2))
            denom = a.c * lam + a.d
            if abs(denom) < 0.1:
                continue
            want = denom**g * evaluate(p, (a.a * lam + a.b) / denom)
            got = evaluate(q, lam)
            assert np.allclose(got, want, atol=1e-10 * max(1.0, np.abs(want).max()))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_mobius_composition(seed):
    rng = np.random.default_rng(seed)
    p = random_poly(rng, 2, 2, int(rng.integers(0, 5)))
    mats = []
    while len(mats) < 2:
        m = MobiusMatrix(*rng.uniform(-1, 1, size=4))
        if abs(m.det) > 0.2:
            mats.append(m)
    a, b = mats
    lhs = mobius(mobius(p, a), b)
    rhs = mobius(p, compose(a, b))
    assert frob_norm(lhs - rhs) <= 1e-12 * max(1.0, frob_norm(p))


def test_mobius_acts_blockwise(rng):
    p = random_poly(rng, 4, 4, 3)
    a = StructureKind.even.mobius
    q = mobius(p, a)
    rows, cols = [0, 2, 3], [1, 2]
    sub = MatrixPolynomial(p.coeffs[:, rows, :][:, :, cols])
    assert np.allclose(q.coeffs[:, rows, :][:, :, cols], mobius(sub, a).coeffs)


def test_reversal_is_mobius_by_swap(rng):
    p = random_poly(rng, 2, 3, 4)
    assert np.allclose(
        reversal(p, 4).coeffs, mobius(p, MOBIUS_REVERSAL).coeffs
    )


# ---------------------------------------------------------------------------
# star adjoint and structure
# ---------------------------------------------------------------------------

def test_star_adjoint_real_transpose():
    p = from_coeff_list([np.array([[0.0, 1.0], [0.0, 0.0]])])
    assert np.array_equal(star_adjoint(p).coefficient(0), np.array([[0.0, 0.0], [1.0, 0.0]]))


@pytest.mark.parametrize("complex_field", [False, True])
def test_star_transposes_the_last_two_axes(rng, complex_field):
    p = random_poly(rng, 3, 2, 2, complex_field)
    want = np.stack([c.conj().T for c in p.coeffs])
    assert np.array_equal(polycore.star(p.coeffs), want)
    assert np.array_equal(polycore.star(p.coefficient(1)), want[1])


def test_star_adjoint_complex_conjugates():
    p = from_coeff_list([np.array([[1j]])])
    assert star_adjoint(p).coefficient(0)[0, 0] == -1j


@given(seed=st.integers(0, 2**32 - 1), complex_field=st.booleans())
@settings(max_examples=25, deadline=None)
def test_star_adjoint_involution(seed, complex_field):
    rng = np.random.default_rng(seed)
    p = random_poly(rng, 3, 2, 2, complex_field)
    assert np.array_equal(star_adjoint(star_adjoint(p)).coeffs, p.coeffs)


def test_structure_matrices_are_real_involutory():
    for kind in ALL_KINDS:
        a = kind.mobius.array
        assert np.array_equal(a, np.real(a).astype(float))
        assert np.array_equal(a @ a, np.eye(2))
        assert is_coninvolutory(kind.mobius)


def test_is_structured_skew_pencil():
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    p = from_coeff_list([np.zeros((2, 2)), j])
    assert is_structured(p, StructureKind.skew_symmetric)


def test_is_structured_palindromic_pair(rng):
    m = rng.standard_normal((3, 3))
    p = from_coeff_list([m.T, m])
    assert is_structured(p, StructureKind.palindromic)


def test_is_structured_rejects_shifted_identity():
    p = from_coeff_list([2.0 * np.eye(2), np.eye(2)])
    assert not is_structured(p, StructureKind.palindromic)


def test_is_structured_scaling_invariant(rng):
    p = random_structured(3, 3, StructureKind.even, 1.0, seed=5)
    for c in (2.0, -7.5, 1e-6, 1e6):
        assert is_structured(c * p, StructureKind.even)


def test_is_structured_requires_square(rng):
    p = random_poly(rng, 2, 3, 1)
    with pytest.raises(StructureError):
        is_structured(p, StructureKind.symmetric)


def test_structure_project_fixes_structured(rng):
    p = integer_structured_poly(StructureKind.symmetric, 3, 2, rng)
    assert np.array_equal(structure_project(p, StructureKind.symmetric).coeffs, p.coeffs)


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(ALL_KINDS))
@settings(max_examples=30, deadline=None)
def test_structure_project_idempotent_and_structured(seed, kind):
    rng = np.random.default_rng(seed)
    p = random_poly(rng, 2, 2, 3)
    proj = structure_project(p, kind)
    again = structure_project(proj, kind)
    assert frob_norm(again - proj) <= 1e-14 * max(1.0, frob_norm(proj))
    assert polycore.structure_residual(proj, kind) <= 1e-14 * max(1.0, frob_norm(proj))


def test_structure_project_palindromic_residual(rng):
    p = random_poly(rng, 2, 2, 1)
    proj = structure_project(p, StructureKind.palindromic)
    assert polycore.structure_residual(proj, StructureKind.palindromic) < 1e-14


# Coninvolutory drivers outside the six kinds: a real involution and a unit
# phase times the identity.
_OTHER_DRIVERS = [
    MobiusMatrix(math.sqrt(0.7), 0.6, 0.5, -math.sqrt(0.7)),
    MobiusMatrix(np.exp(0.3j), 0, 0, np.exp(0.3j)),
]


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize(
    "kind", ALL_KINDS + _OTHER_DRIVERS, ids=[k.value for k in ALL_KINDS] + ["involution", "phase"]
)
def test_structure_residual_is_the_polynomial_defect_exactly(kind, complex_field, rng):
    """The residual formed on coefficient arrays is, to the last bit, the
    norm of the substituted polynomial minus its adjoint."""
    a = polycore.driver_matrix(kind)
    for grade in (1, 3, 4):
        raw = random_poly(rng, 3, 3, grade, complex_field)
        for p in (raw, structure_project(raw, kind)):
            want = frob_norm(mobius(p, a) - star_adjoint(p))
            assert polycore.structure_residual(p, kind) == want


# ---------------------------------------------------------------------------
# random_structured
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_random_structured_properties(kind):
    p = random_structured(3, 5, kind, target_norm=2.5, seed=77)
    assert is_structured(p, kind, tol=1e-13)
    assert abs(frob_norm(p) - 2.5) <= 1e-14 * 2.5


def test_random_structured_deterministic():
    a = random_structured(2, 3, StructureKind.odd, 1.0, seed=123)
    b = random_structured(2, 3, StructureKind.odd, 1.0, seed=123)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_random_structured_rejects_bad_norm():
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            random_structured(2, 3, StructureKind.symmetric, target_norm=bad, seed=1)


def test_random_structured_rejects_an_unknown_field():
    with pytest.raises(ValueError, match="field"):
        random_structured(2, 3, StructureKind.symmetric, seed=1, field="quaternion")


def test_field_follows_the_dtype():
    """Integer input becomes float64 and real; complex input becomes
    complex128 and keeps its imaginary part; there is no tag to pass."""
    p = MatrixPolynomial(np.array([[[1, 2]]]))
    assert p.coeffs.dtype == np.float64 and p.field == polycore.REAL
    q = MatrixPolynomial(np.array([[[1 + 2j]]], dtype=np.complex64))
    assert q.coeffs.dtype == np.complex128 and q.field == polycore.COMPLEX
    assert q.coeffs[0, 0, 0] == 1 + 2j
    assert (p * 1j).field == polycore.COMPLEX and (p + q).field == polycore.COMPLEX
    with pytest.raises(TypeError):
        MatrixPolynomial(np.array([[[1 + 2j]]]), polycore.REAL)
    with pytest.raises(AttributeError):
        p.field = polycore.COMPLEX


def test_constructor_copies_to_a_c_contiguous_frozen_stack():
    """A transposed view is copied in row-major order, as before the dtype
    decided the field: norms sum in that order, so reports depend on it."""
    raw = np.arange(12.0).reshape(2, 3, 2)
    p = MatrixPolynomial(np.swapaxes(raw, 1, 2))
    assert p.coeffs.flags.c_contiguous and not p.coeffs.flags.writeable
    assert not np.shares_memory(p.coeffs, raw)
    assert np.array_equal(p.coeffs, np.swapaxes(raw, 1, 2))


def test_complex_record_with_zero_imaginary_parts_loads_as_complex(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(
        '{"rows": 1, "cols": 1, "grade": 1, "field": "complex", '
        '"coeffs": [[[[1.0, 0.0]]], [[[-2.0, 0.0]]]]}'
    )
    p = polycore.load_polynomial(path)
    assert p.field == polycore.COMPLEX and p.coeffs.dtype == np.complex128
    assert np.array_equal(p.coeffs, [[[1.0]], [[-2.0]]])


# ---------------------------------------------------------------------------
# pairs, products, file format
# ---------------------------------------------------------------------------

def test_pair_norm_pythagorean():
    assert pair_norm(np.array([[3.0]]), np.array([[4.0]])) == 5.0
    assert pair_norm(np.eye(2), np.zeros((3, 1))) == math.sqrt(2.0)


def test_poly_matmul_matches_pointwise(rng):
    p = random_poly(rng, 2, 3, 2)
    q = random_poly(rng, 3, 2, 3)
    prod = poly_matmul(p, q)
    assert prod.grade == 5
    for lam in (0.3, -1.7, 2.2):
        assert np.allclose(evaluate(prod, lam), evaluate(p, lam) @ evaluate(q, lam))


def test_json_roundtrip_bit_exact_real(rng, tmp_path):
    p = random_poly(rng, 3, 4, 5)
    path = tmp_path / "p.json"
    polycore.save_polynomial(p, path)
    q = polycore.load_polynomial(path)
    assert q.field == p.field and q.grade == p.grade
    assert np.array_equal(q.coeffs, p.coeffs)


def test_json_roundtrip_bit_exact_complex(rng, tmp_path):
    p = random_poly(rng, 2, 2, 3, complex_field=True)
    path = tmp_path / "p.json"
    polycore.save_polynomial(p, path)
    q = polycore.load_polynomial(path)
    assert q.field == polycore.COMPLEX
    assert np.array_equal(q.coeffs, p.coeffs)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, None, "1.5", True, "nan"])
def test_json_refuses_non_finite_coefficients(bad):
    """JSON reads 1e999 as inf and null would become NaN: both are refused at
    load time, before any solver sees them. So are strings and booleans,
    which are not JSON numbers, though numpy would read "1.5" as 1.5 and
    true as 1.0."""
    doc = {"rows": 1, "cols": 1, "grade": 1, "field": "real", "coeffs": [[[bad]], [[1.0]]]}
    with pytest.raises(StruktError, match="finite"):
        polycore.from_json_dict(doc)


def test_json_schema_fields(rng, tmp_path):
    p = random_poly(rng, 2, 3, 1)
    path = tmp_path / "p.json"
    polycore.save_polynomial(p, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"rows", "cols", "grade", "field", "coeffs"}
    assert doc["rows"] == 2 and doc["cols"] == 3 and doc["grade"] == 1


# ---------------------------------------------------------------------------
# preconditioned conjugate gradients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("complex_field", [False, True])
def test_pcg_solves_a_hermitian_system_on_any_shape(rng, complex_field):
    a = random_poly(rng, 12, 12, 0, complex_field).coefficient(0)
    g = a @ a.conj().T + 12.0 * np.eye(12)
    c = random_poly(rng, 3, 4, 0, complex_field).coefficient(0)
    w, iterations = polycore.pcg(
        lambda v: (g @ v.reshape(-1)).reshape(v.shape), lambda r: r / 12.0, c
    )
    assert w.shape == c.shape and 1 <= iterations < 100  # stopped on the residual
    want = np.linalg.solve(g, c.reshape(-1)).reshape(c.shape)
    assert np.linalg.norm(w - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("complex_field", [False, True])
def test_min_norm_solve_matches_lstsq_on_a_wide_matrix(rng, complex_field):
    a = random_poly(rng, 6, 10, 0, complex_field).coefficient(0)
    c = random_poly(rng, 3, 2, 0, complex_field).coefficient(0)[None]  # (e, p, q) at n = 1
    x, _, iterations = polycore.min_norm_solve(
        lambda x: (a @ x).reshape(c.shape),
        lambda w: a.conj().T @ w.reshape(-1),
        lambda w: (a @ (a.conj().T @ w.reshape(-1))).reshape(c.shape),
        np.eye(6) / np.linalg.norm(a, 2) ** 2,
        1,
        c,
    )
    assert 1 <= iterations < 100
    want = np.linalg.lstsq(a, c.reshape(-1), rcond=None)[0]
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("complex_field", [False, True])
def test_pcg_starts_from_w(rng, complex_field):
    """A start costs one Gram apply for its true residual: an exact start
    returns after no iteration, and any other start still reaches the
    solution."""
    a = random_poly(rng, 12, 12, 0, complex_field).coefficient(0)
    g = a @ a.conj().T + 12.0 * np.eye(12)
    c = random_poly(rng, 3, 4, 0, complex_field).coefficient(0)
    want = np.linalg.solve(g, c.reshape(-1)).reshape(c.shape)
    calls = []

    def gram_apply(v):
        calls.append(v)
        return (g @ v.reshape(-1)).reshape(v.shape)

    w, iterations = polycore.pcg(gram_apply, lambda r: r / 12.0, c, want)
    assert iterations == 0 and len(calls) == 1 and w is want
    start = want + 1e-3 * random_poly(rng, 3, 4, 0, complex_field).coefficient(0)
    w, iterations = polycore.pcg(gram_apply, lambda r: r / 12.0, c, start)
    assert 1 <= iterations < 100
    assert np.linalg.norm(w - want) <= 1e-13 * np.linalg.norm(want)


def test_cg_cap_stops_an_ill_conditioned_solve_and_the_gate_refuses_it(rng):
    """A wide matrix whose Gram matrix has 150 distinct eigenvalues from 1 to
    1e-12, unpreconditioned: `pcg` stops at its cap of 100 iterations, short
    of its residual target, and `min_norm_solve` refuses what it returns."""
    m, width = 150, 200
    u = np.linalg.qr(rng.standard_normal((m, m)))[0]
    v = np.linalg.qr(rng.standard_normal((width, m)))[0]
    a = (u * np.logspace(0, -6, m)) @ v.T
    gram = a @ a.T
    assert 1e11 <= np.linalg.cond(gram) <= 1e13
    c = rng.standard_normal((1, m, 1))

    def gram_apply(w):
        return (gram @ w.reshape(-1)).reshape(w.shape)

    _, iterations = polycore.pcg(gram_apply, lambda r: r, c)
    assert iterations == 100
    with pytest.raises(NumericalError, match="solve residual"):
        polycore.min_norm_solve(
            lambda x: (a @ x).reshape(c.shape), lambda w: a.T @ w.reshape(-1), gram_apply,
            np.eye(m), 1, c,
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_min_norm_solve_gate_refuses_a_non_finite_residual(rng, bad):
    """An operator whose image is NaN or inf is refused by the residual gate:
    a NaN residual compares False with any bound, so it must not pass."""
    a = rng.standard_normal((6, 10))
    c = rng.standard_normal((1, 3, 2))
    with pytest.raises(NumericalError, match="solve residual"):
        polycore.min_norm_solve(
            lambda x: np.full(c.shape, bad), lambda w: a.T @ w.reshape(-1),
            lambda w: (a @ (a.T @ w.reshape(-1))).reshape(c.shape), np.eye(6), 1, c,
        )


def test_pcg_zero_rhs_returns_exact_zeros():
    def never(v):
        raise AssertionError("no operator call for a zero right-hand side")

    w, iterations = polycore.pcg(never, never, np.zeros((2, 3, 3), dtype=complex))
    assert iterations == 0 and w.shape == (2, 3, 3) and not w.any()
