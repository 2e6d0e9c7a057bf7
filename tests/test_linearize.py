import json

import numpy as np
import pytest

from strukt import (
    StructureKind,
    assemble,
    build_Lk,
    frob_norm,
    mobius,
    placement_stacked,
    placement_tridiagonal,
    random_structured,
    recover,
    star_adjoint,
    structure_project,
)
from strukt import linearize, minbases, polycore
from strukt.errors import GradeError, StructureError, StruktError
from strukt.linearize import build_linearization

from conftest import ALL_KINDS, expected_tridiagonal_grade5, integer_structured_poly, with_entry
from oracles import check_placement, is_structured, permutation_to_tridiagonal, tridiagonal_form


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("placement", ["tridiagonal", "stacked"])
@pytest.mark.parametrize("g", [3, 5, 7])
def test_placements_satisfy_condition(kind, placement, g, rng):
    p = integer_structured_poly(kind, g, 2, rng)
    m = linearize.PLACEMENTS[placement](p, kind)
    assert check_placement(m, p, kind)
    s = structure_project(m, kind)
    assert check_placement(s, p, kind)
    assert is_structured(s, kind, tol=1e-14)


def test_check_placement_rejects_zero_and_perturbed(rng):
    p = integer_structured_poly(StructureKind.symmetric, 5, 2, rng)
    m = placement_tridiagonal(p, StructureKind.symmetric)
    zero = polycore.zeros(m.rows, m.cols, 1)
    assert not check_placement(zero, p, StructureKind.symmetric)
    bumped = m.coeffs.copy()
    bumped[0, 0, 0] += 1.0
    assert not check_placement(
        polycore.MatrixPolynomial(bumped), p, StructureKind.symmetric
    )


def test_placement_rejects_even_grade(rng):
    coeffs = [np.eye(2) for _ in range(5)]  # grade 4, symmetric
    p = polycore.from_coeff_list(coeffs)
    with pytest.raises(GradeError, match="odd grade required"):
        placement_tridiagonal(p, StructureKind.symmetric)


@pytest.mark.parametrize("kind", list(StructureKind))
def test_build_linearization_refuses_grade_1(kind):
    """k = 0 is refused, as `run_certification` refuses it; `assemble` with
    k = 0 stays available in code."""
    p = random_structured(2, 1, kind, 1.0, seed=5, field=polycore.COMPLEX)
    with pytest.raises(GradeError, match="grade >= 3"):
        build_linearization(p, kind, "tridiagonal")


def test_placement_rejects_wrong_structure(rng):
    p = random_structured(2, 5, StructureKind.symmetric, 1.0, seed=1)
    with pytest.raises(StructureError):
        placement_stacked(p, StructureKind.palindromic)


def test_assemble_rejects_unstructured_block(rng):
    raw = polycore.MatrixPolynomial(rng.standard_normal((2, 6, 6)))
    with pytest.raises(StructureError):
        assemble(raw, 2, 2, StructureKind.symmetric)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_assemble_structure_and_offdiagonal_blocks(kind, rng):
    p = integer_structured_poly(kind, 5, 2, rng)
    pencil = build_linearization(p, kind, "stacked")
    assert is_structured(pencil.poly, kind, tol=1e-13)
    # cross-module consistency of the (1,2) block
    b12 = star_adjoint(mobius(build_Lk(2, 2), kind.mobius))
    top, size = 6, 10
    assert np.array_equal(pencil.l0[:top, top:], b12.coefficient(0))
    assert np.array_equal(pencil.l1[:top, top:], b12.coefficient(1))
    lk = build_Lk(2, 2)
    assert np.array_equal(pencil.l0[top:, :top], lk.coefficient(0))
    assert np.array_equal(pencil.l1[top:, :top], lk.coefficient(1))
    assert not pencil.l0[top:, top:].any() and not pencil.l1[top:, top:].any()


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("placement", ["tridiagonal", "stacked"])
def test_roundtrip_identity(kind, placement):
    for g in (3, 5, 7):
        p = random_structured(2, g, kind, 1.0, seed=g)
        pencil = build_linearization(p, kind, placement)
        back = recover(pencil)
        assert frob_norm(back - p) <= 1e-13 * frob_norm(p)


def test_recover_zero_m_gives_zero():
    m = polycore.zeros(6, 6, 1)
    out = linearize.recover_from_m(m, minbases.build_Lambda(2, 2), StructureKind.symmetric)
    assert frob_norm(out) == 0.0


def test_recover_k0_is_the_pencil(rng):
    p = random_structured(3, 1, StructureKind.even, 1.0, seed=2)
    pencil = assemble(p, 0, 3, StructureKind.even)
    assert frob_norm(recover(pencil) - p) == 0.0


def test_recover_linear_in_m(rng):
    kind = StructureKind.symmetric
    p1 = random_structured(2, 5, kind, 1.0, seed=10)
    p2 = random_structured(2, 5, kind, 1.0, seed=11)
    m1 = structure_project(placement_tridiagonal(p1, kind), kind)
    m2 = structure_project(placement_stacked(p2, kind), kind)
    row = minbases.build_Lambda(2, 2)
    lhs = linearize.recover_from_m(2.0 * m1 + 3.0 * m2, row, kind)
    rhs = 2.0 * linearize.recover_from_m(m1, row, kind) + 3.0 * linearize.recover_from_m(
        m2, row, kind
    )
    assert frob_norm(lhs - rhs) <= 1e-13


def test_congruence_preserves_structure(rng):
    kind = StructureKind.palindromic
    p = random_structured(2, 5, kind, 1.0, seed=3)
    pencil = build_linearization(p, kind, "tridiagonal")
    x = rng.standard_normal((10, 10))
    x += 10.0 * np.eye(10)  # keep it nonsingular
    poly = pencil.poly
    transformed = polycore.from_coeff_list(
        [x.T @ poly.coefficient(0) @ x, x.T @ poly.coefficient(1) @ x]
    )
    assert is_structured(transformed, kind, tol=1e-12)


def test_permutation_is_orthogonal():
    for kind in (StructureKind.symmetric, StructureKind.palindromic):
        perm = permutation_to_tridiagonal(2, 3, kind)
        assert np.array_equal(perm @ perm.T, np.eye(15))


# ---------------------------------------------------------------------------
# exact reproduction of the canonical grade-7 and grade-5 layouts
# ---------------------------------------------------------------------------

def test_stacked_grade7_symmetric_layout(rng):
    n = 2
    p = integer_structured_poly(StructureKind.symmetric, 7, n, rng)
    c = [p.coefficient(i) for i in range(8)]
    z = np.zeros((n, n))
    m = placement_stacked(p, StructureKind.symmetric)
    assert np.array_equal(
        m.coefficient(1),
        np.block([[c[7], z, z, z], [c[6], z, z, z], [z, z, z, z], [z, z, z, z]]),
    )
    assert np.array_equal(
        m.coefficient(0),
        np.block(
            [[z, z, z, z], [c[5], c[4], c[3], z], [z, z, c[2], z], [z, z, c[1], c[0]]]
        ),
    )
    s = structure_project(m, StructureKind.symmetric)
    assert np.array_equal(
        s.coefficient(0),
        np.block(
            [
                [z, c[5] / 2, z, z],
                [c[5] / 2, c[4], c[3] / 2, z],
                [z, c[3] / 2, c[2], c[1] / 2],
                [z, z, c[1] / 2, c[0]],
            ]
        ),
    )
    assert np.array_equal(
        s.coefficient(1),
        np.block(
            [[c[7], c[6] / 2, z, z], [c[6] / 2, z, z, z], [z, z, z, z], [z, z, z, z]]
        ),
    )


def test_stacked_grade7_palindromic_layout(rng):
    n = 2
    p = integer_structured_poly(StructureKind.palindromic, 7, n, rng)
    c = [p.coefficient(i) for i in range(8)]
    z = np.zeros((n, n))
    m = placement_stacked(p, StructureKind.palindromic)
    assert np.array_equal(
        m.coefficient(0),
        np.block([[z, z, c[1], c[0]], [z, c[3], c[2], z], [z, c[4], z, z], [z, z, z, z]]),
    )
    assert np.array_equal(
        m.coefficient(1),
        np.block([[z, z, z, z], [z, z, z, z], [c[6], c[5], z, z], [c[7], z, z, z]]),
    )
    s = structure_project(m, StructureKind.palindromic)
    assert np.array_equal(
        s.coefficient(0),
        np.block(
            [[z, z, c[1], c[0]], [z, c[3] / 2, c[2], z], [z, c[4] / 2, z, z], [z, z, z, z]]
        ),
    )
    assert np.array_equal(
        s.coefficient(1),
        np.block(
            [[z, z, z, z], [z, c[4] / 2, c[3] / 2, z], [c[6], c[5], z, z], [c[7], z, z, z]]
        ),
    )


def test_stacked_grade7_even_layout(rng):
    n = 2
    p = integer_structured_poly(StructureKind.even, 7, n, rng)
    c = [p.coefficient(i) for i in range(8)]
    z = np.zeros((n, n))
    m = placement_stacked(p, StructureKind.even)
    assert np.array_equal(
        m.coefficient(1),
        np.block([[-c[7], z, z, z], [c[6], c[5], z, z], [z, z, z, z], [z, z, z, c[1]]]),
    )
    assert np.array_equal(
        m.coefficient(0),
        np.block([[z, z, z, z], [z, c[4], c[3], z], [z, z, -c[2], z], [z, z, z, c[0]]]),
    )
    s = structure_project(m, StructureKind.even)
    assert np.array_equal(
        s.coefficient(1),
        np.block(
            [[-c[7], -c[6] / 2, z, z], [c[6] / 2, c[5], z, z], [z, z, z, z], [z, z, z, c[1]]]
        ),
    )
    assert np.array_equal(
        s.coefficient(0),
        np.block(
            [[z, z, z, z], [z, c[4], c[3] / 2, z], [z, -c[3] / 2, -c[2], z], [z, z, z, c[0]]]
        ),
    )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_tridiagonal_permuted_form_exact(kind, rng):
    n = 2
    p = integer_structured_poly(kind, 5, n, rng)
    c = [p.coefficient(i) for i in range(6)]
    m = placement_tridiagonal(p, kind)
    # these placements already carry the structure, so symmetrization fixes them
    assert np.array_equal(structure_project(m, kind).coeffs, m.coeffs)
    pencil = assemble(m, 2, n, kind)
    _, tri = tridiagonal_form(pencil)
    const, lam = expected_tridiagonal_grade5(c, kind, n)
    assert np.array_equal(tri.coefficient(0), const)
    assert np.array_equal(tri.coefficient(1), lam)


# ---------------------------------------------------------------------------
# pencil files
# ---------------------------------------------------------------------------

def test_pencil_file_roundtrip(tmp_path):
    kind = StructureKind.odd
    p = random_structured(2, 5, kind, 1.0, seed=8)
    pencil = build_linearization(p, kind, "tridiagonal")
    path = tmp_path / "pencil.json"
    linearize.save_pencil(pencil, path)
    loaded = linearize.load_pencil(path)
    assert loaded.k == 2 and loaded.n == 2
    assert loaded.kind is StructureKind.odd
    assert json.loads(linearize.sidecar_path(path).read_text())["sign"] == kind.recovery_sign(2)
    assert np.array_equal(loaded.l0, pencil.l0)
    m11, _, _, b22 = linearize.natural_blocks(loaded.poly.coeffs, 2, 2)
    assert np.array_equal(m11[0], pencil.m_pencil.coeffs[0])
    assert not b22.any()


@pytest.mark.parametrize("field", [polycore.REAL, polycore.COMPLEX])
@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("grade", [3, 5])
def test_load_pencil_gives_back_the_saved_pencil_bit_for_bit(grade, kind, field, tmp_path):
    """`load_pencil` of a `save_pencil` file is the same pencil: equal k, n
    and kind, the same coefficient bytes, and the same recovered polynomial.
    At grade 3 (k = 1) the negated kinds store recovery sign -1."""
    p = random_structured(2, grade, kind, 1.0, seed=11, field=field)
    pencil = build_linearization(p, kind, "stacked")
    path = tmp_path / "pencil.json"
    linearize.save_pencil(pencil, path)
    loaded = linearize.load_pencil(path)
    assert (loaded.k, loaded.n, loaded.kind) == (pencil.k, pencil.n, pencil.kind)
    assert loaded.poly.field == field
    assert loaded.poly.coeffs.tobytes() == pencil.poly.coeffs.tobytes()
    assert recover(loaded).coeffs.tobytes() == recover(pencil).coeffs.tobytes()


@pytest.mark.parametrize("kind", ["banana", 5, None, ["x"]])
def test_load_pencil_refuses_an_unknown_sidecar_kind(kind, tmp_path):
    """A sidecar kind that names none of the six kinds, of any JSON type, is
    refused with `StruktError` naming the six, not with a bare ValueError."""
    p = random_structured(2, 3, StructureKind.even, 1.0, seed=4)
    path = tmp_path / "pencil.json"
    linearize.save_pencil(build_linearization(p, StructureKind.even, "tridiagonal"), path)
    sidecar = linearize.sidecar_path(path)
    record = json.loads(sidecar.read_text())
    record["kind"] = kind
    sidecar.write_text(json.dumps(record))
    with pytest.raises(StruktError, match="unknown structure kind") as err:
        linearize.load_pencil(path)
    assert all(repr(k.value) in str(err.value) for k in StructureKind)


def test_natural_blocks_are_views_that_tile_the_stack():
    k, n = 2, 3
    stack = np.arange(2 * 15 * 15, dtype=float).reshape(2, 15, 15)
    blocks = linearize.natural_blocks(stack, k, n)
    b11, b21, b12, b22 = blocks
    assert [b.shape for b in blocks] == [(2, 9, 9), (2, 6, 9), (2, 9, 6), (2, 6, 6)]
    assert all(np.shares_memory(b, stack) for b in blocks)
    assert np.array_equal(np.block([[b11, b12], [b21, b22]]), stack)
    stack.setflags(write=False)
    for b in linearize.natural_blocks(stack, k, n):
        assert not b.flags.writeable


def test_complex_field_roundtrip():
    for kind in ALL_KINDS:
        p = random_structured(2, 5, kind, 1.0, seed=3, field=polycore.COMPLEX)
        assert is_structured(p, kind, tol=1e-13)
        pencil = build_linearization(p, kind, "tridiagonal")
        assert is_structured(pencil.poly, kind, tol=1e-13)
        assert frob_norm(recover(pencil) - p) <= 1e-13


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("placement", sorted(linearize.PLACEMENTS))
def test_build_linearization_refuses_non_finite_coefficients(bad, placement):
    p = with_entry(random_structured(2, 3, StructureKind.symmetric, seed=1), bad)
    with pytest.raises(StruktError, match="finite"):
        build_linearization(p, StructureKind.symmetric, placement)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_recover_refuses_a_non_finite_12_block(bad):
    """Recovery never reads the (1,2) block, so the dL gate is all that sees
    a NaN or inf there; a NaN residual compares False with any bound."""
    kind = StructureKind.symmetric
    pencil = build_linearization(random_structured(2, 5, kind, 1.0, seed=4), kind, "tridiagonal")
    coeffs = pencil.poly.coeffs.copy()
    linearize.natural_blocks(coeffs, 2, 2)[2][1, 0, 0] = bad
    bad_pencil = linearize.BlockKroneckerPencil(polycore.MatrixPolynomial(coeffs), 2, 2, kind)
    with pytest.raises(StruktError, match="finite"):
        recover(bad_pencil)
