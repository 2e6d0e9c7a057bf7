"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (also echoed into the pytest terminal summary)."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import conftest
from strukt import (
    MatrixPolynomial,
    MobiusMatrix,
    StructureKind,
    assemble,
    build_Lambda,
    build_Lk,
    build_TA,
    compare_spectra,
    frob_norm,
    from_coeff_list,
    minimal_indices,
    mobius,
    pencil_eigs,
    poly_matmul,
    random_structured,
    recover,
    reference_polyeigs,
    reversal,
    sigma_min_formula,
    structure_project,
    symmetry_check,
    transpose_poly,
)
from strukt import polycore, sylvester
from strukt.backward import (
    congruence_zero_block,
    random_structured_perturbation,
    reconstruct_perturbed_polynomial,
    theorem_bound,
)
from strukt.errors import ThresholdError
from strukt.linearize import build_linearization, placement_tridiagonal

from conftest import (
    ALL_KINDS,
    expected_tridiagonal_grade5,
    integer_structured_coeffs,
    with_scaled_22_block,
)
from oracles import (
    MOBIUS_REVERSAL,
    compose,
    is_structured,
    iterate_norm_cap,
    tridiagonal_form,
    x_norm_bound,
)


@contextmanager
def criterion(num, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        line = f"[criterion {num}] {name}: FAIL"
        print(line)
        conftest.ACCEPTANCE_LINES.append(line)
        raise
    elapsed = time.perf_counter() - start
    line = f"[criterion {num}] {name}: PASS ({elapsed:.1f}s)"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


# ---------------------------------------------------------------------------
# 1. smallest-singular-value law of the vectorized Sylvester system
# ---------------------------------------------------------------------------

def test_criterion_1_sigma_min_law():
    with criterion(1, "sigma_min law and full/reduced agreement"):
        start = time.perf_counter()
        for kind in ALL_KINDS:
            for k in range(1, 9):
                want = sigma_min_formula(k)
                sv_red = np.linalg.svd(build_TA(k, 1, kind), compute_uv=False)
                for n in (1, 2):
                    sv = np.linalg.svd(build_TA(k, n, kind), compute_uv=False)
                    assert abs(sv[-1] - want) <= 1e-10 * want
                    repeated = np.sort(np.repeat(sv_red, n * n))[::-1]
                    assert np.max(np.abs(sv - repeated)) <= 1e-12
        assert time.perf_counter() - start <= 60.0


# ---------------------------------------------------------------------------
# 2. round-trip identity of the build/recover pipeline
# ---------------------------------------------------------------------------

def test_criterion_2_roundtrip():
    with criterion(2, "build/recover round-trip at 1e-13"):
        start = time.perf_counter()
        for kind in ALL_KINDS:
            for g in (3, 5, 7):
                for n in (2, 3):
                    for trial in range(50):
                        p = random_structured(n, g, kind, 1.0, seed=trial + 1000 * g + 17 * n)
                        for placement in ("tridiagonal", "stacked"):
                            pencil = build_linearization(p, kind, placement)
                            back = recover(pencil)
                            assert frob_norm(back - p) <= 1e-13 * frob_norm(p)
        assert time.perf_counter() - start <= 60.0


# ---------------------------------------------------------------------------
# 3. entry-for-entry reproduction of the canonical layouts
# ---------------------------------------------------------------------------

def _expected_grade7_pencil(kind, c, n):
    z = np.zeros((n, n))
    eye = np.eye(n)
    if kind is StructureKind.symmetric:
        m_const = np.block(
            [
                [z, c[5] / 2, z, z],
                [c[5] / 2, c[4], c[3] / 2, z],
                [z, c[3] / 2, c[2], c[1] / 2],
                [z, z, c[1] / 2, c[0]],
            ]
        )
        m_lam = np.block(
            [[c[7], c[6] / 2, z, z], [c[6] / 2, z, z, z], [z, z, z, z], [z, z, z, z]]
        )
        b12_const = np.block([[-eye, z, z], [z, -eye, z], [z, z, -eye], [z, z, z]])
        b12_lam = np.block([[z, z, z], [eye, z, z], [z, eye, z], [z, z, eye]])
    elif kind is StructureKind.palindromic:
        m_const = np.block(
            [
                [z, z, c[1], c[0]],
                [z, c[3] / 2, c[2], z],
                [z, c[4] / 2, z, z],
                [z, z, z, z],
            ]
        )
        m_lam = np.block(
            [
                [z, z, z, z],
                [z, c[4] / 2, c[3] / 2, z],
                [c[6], c[5], z, z],
                [c[7], z, z, z],
            ]
        )
        b12_const = np.block([[z, z, z], [eye, z, z], [z, eye, z], [z, z, eye]])
        b12_lam = np.block([[-eye, z, z], [z, -eye, z], [z, z, -eye], [z, z, z]])
    else:  # even
        m_const = np.block(
            [
                [z, z, z, z],
                [z, c[4], c[3] / 2, z],
                [z, -c[3] / 2, -c[2], z],
                [z, z, z, c[0]],
            ]
        )
        m_lam = np.block(
            [
                [-c[7], -c[6] / 2, z, z],
                [c[6] / 2, c[5], z, z],
                [z, z, z, z],
                [z, z, z, c[1]],
            ]
        )
        b12_const = np.block([[-eye, z, z], [z, -eye, z], [z, z, -eye], [z, z, z]])
        b12_lam = np.block([[z, z, z], [-eye, z, z], [z, -eye, z], [z, z, -eye]])
    b21_const = np.block(
        [[-eye, z, z, z], [z, -eye, z, z], [z, z, -eye, z]]
    )
    b21_lam = np.block([[z, eye, z, z], [z, z, eye, z], [z, z, z, eye]])
    zz = np.zeros((3 * n, 3 * n))
    const = np.block([[m_const, b12_const], [b21_const, zz]])
    lam = np.block([[m_lam, b12_lam], [b21_lam, zz]])
    return const, lam


def test_criterion_3_canonical_layouts():
    with criterion(3, "grade-7 stacked and grade-5 tridiagonal layouts exact"):
        rng = np.random.default_rng(20240808)
        n = 2
        for kind in (StructureKind.symmetric, StructureKind.palindromic, StructureKind.even):
            coeffs = integer_structured_coeffs(kind, 7, n, rng)
            p = from_coeff_list(coeffs)
            pencil = build_linearization(p, kind, "stacked")
            const, lam = _expected_grade7_pencil(kind, coeffs, n)
            assert np.array_equal(pencil.l0, const)
            assert np.array_equal(pencil.l1, lam)
        for kind in ALL_KINDS:
            coeffs = integer_structured_coeffs(kind, 5, n, rng)
            p = from_coeff_list(coeffs)
            m = placement_tridiagonal(p, kind)
            assert np.array_equal(structure_project(m, kind).coeffs, m.coeffs)
            _, tri = tridiagonal_form(assemble(m, 2, n, kind))
            const, lam = expected_tridiagonal_grade5(coeffs, kind, n)
            assert np.array_equal(tri.coefficient(0), const)
            assert np.array_equal(tri.coefficient(1), lam)


# ---------------------------------------------------------------------------
# 4. eigenvalue transport between pencil and polynomial
# ---------------------------------------------------------------------------

def _transport_case(kind, n):
    for trial in range(20):
        p = random_structured(n, 5, kind, 1.0, seed=900 + trial)
        pencil = build_linearization(p, kind, "tridiagonal")
        got = pencil_eigs(pencil.l0, pencil.l1)
        want = reference_polyeigs(p)
        assert compare_spectra(got, want).max_distance <= 1e-6
        assert symmetry_check(got, kind) <= 1e-8


@pytest.mark.parametrize(
    "kind",
    [
        pytest.param(
            k,
            marks=pytest.mark.xfail(
                reason="transpose-skew-symmetric polynomials of odd size are "
                "identically singular, so no regular instance exists at n=3",
                strict=True,
            ),
        )
        if k is StructureKind.skew_symmetric
        else k
        for k in ALL_KINDS
    ],
)
def test_criterion_4_eigenvalue_transport(kind):
    with criterion(4, f"eigenvalue transport, kind={kind.value}, n=3"):
        _transport_case(kind, n=3)


def test_criterion_4_supplement_skew_even_size():
    # nearest size at which regular skew-symmetric instances exist
    with criterion(4, "eigenvalue transport, kind=skew-symmetric, n=4"):
        _transport_case(StructureKind.skew_symmetric, n=4)


# ---------------------------------------------------------------------------
# 5. backward certification
# ---------------------------------------------------------------------------

def test_criterion_5_backward_certification():
    with criterion(5, "backward certification 100/100 per kind and norm"):
        start = time.perf_counter()
        g, n, k = 5, 2, 2
        dr_factor = 6.0 * math.sqrt(2.0) * (k + 1) / math.pi
        for kind in ALL_KINDS:
            p = random_structured(n, g, kind, 1.0, seed=2024)
            pencil = build_linearization(p, kind, "tridiagonal")
            tb = theorem_bound(p, pencil)
            for ni, norm_dl in enumerate((1e-10, 1e-8, 1e-6)):
                assert norm_dl < tb.threshold
                for trial in range(100):
                    seed = np.random.SeedSequence(entropy=555, spawn_key=(ni, trial))
                    dl = random_structured_perturbation(k, n, kind, norm_dl, seed)
                    a = pencil.perturbed(dl)
                    cong = congruence_zero_block(a)
                    theta = cong.state.theta
                    assert cong.state.residuals[-1] <= 1e-12 * theta
                    assert np.linalg.norm(cong.state.x) <= x_norm_bound(k, frob_norm(dl))
                    recon = reconstruct_perturbed_polynomial(a.m_pencil, cong.b21, kind)
                    norm_dtilde21 = frob_norm(cong.b21 - build_Lk(k, n))
                    assert recon.norm_dr <= dr_factor * norm_dtilde21
                    assert recon.norm_dr < 1.0 / math.sqrt(2.0)
                    dp = recon.poly - p
                    assert polycore.structure_residual(dp, kind) <= 1e-11
                    ratio = frob_norm(dp) / frob_norm(p)
                    assert ratio <= tb.ratio_bound(frob_norm(dl))
        assert time.perf_counter() - start <= 300.0


# ---------------------------------------------------------------------------
# 6. norm inequalities
# ---------------------------------------------------------------------------

def _spectral_stack(p):
    return math.sqrt(sum(np.linalg.norm(c, 2) ** 2 for c in p.coeffs))


def test_criterion_6_norm_lemmas():
    with criterion(6, "product and quotient norm inequalities"):
        rng = np.random.default_rng(606)
        slack = 1e-14
        for _ in range(200):
            g, t = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            m, r, c = (int(rng.integers(1, 4)) for _ in range(3))
            p = MatrixPolynomial(rng.standard_normal((g + 1, m, r)))
            q = MatrixPolynomial(rng.standard_normal((t + 1, r, c)))
            prod = frob_norm(poly_matmul(p, q))
            assert prod <= math.sqrt(g + 1) * _spectral_stack(p) * frob_norm(q) + slack
            assert prod <= math.sqrt(t + 1) * frob_norm(p) * _spectral_stack(q) + slack
            assert (
                prod
                <= min(math.sqrt(g + 1), math.sqrt(t + 1)) * frob_norm(p) * frob_norm(q)
                + slack
            )
            k, pp = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            wide = MatrixPolynomial(rng.standard_normal((g + 1, m, (k + 1) * pp)))
            right = frob_norm(poly_matmul(wide, transpose_poly(build_Lambda(k, pp))))
            assert right <= min(math.sqrt(g + 1), math.sqrt(k + 1)) * frob_norm(wide) + slack
            tall = MatrixPolynomial(rng.standard_normal((t + 1, (k + 1) * pp, c)))
            left = frob_norm(poly_matmul(build_Lambda(k, pp), tall))
            assert left <= min(math.sqrt(t + 1), math.sqrt(k + 1)) * frob_norm(tall) + slack
        for trial in range(200):
            kind = ALL_KINDS[trial % 6]
            g = int(rng.choice([3, 5, 7]))
            n = int(rng.integers(2, 4))
            k = (g - 1) // 2
            scale = float(np.exp(rng.uniform(-3, 3)))
            p = random_structured(n, g, kind, scale, seed=trial)
            placement = "tridiagonal" if trial % 2 == 0 else "stacked"
            pencil = build_linearization(p, kind, placement)
            norm_p = frob_norm(p)
            norm_m = frob_norm(pencil.m_pencil)
            norm_l = frob_norm(pencil.poly)
            assert abs(norm_l / norm_p - math.sqrt((norm_m / norm_p) ** 2 + 4 * n * k / norm_p**2)) <= 1e-12 * (norm_l / norm_p)
            assert norm_l / norm_p >= 1.0 / math.sqrt(2 * (k + 1)) - slack
            assert norm_m >= norm_p / math.sqrt(2 * (k + 1)) - slack


# ---------------------------------------------------------------------------
# 7. minimal-index shift
# ---------------------------------------------------------------------------

def test_criterion_7_minimal_index_shift():
    with criterion(7, "minimal indices shift by k under linearization"):
        for g in (3, 5):
            k = (g - 1) // 2
            coeffs = np.zeros((g + 1, 2, 2))
            coeffs[0, 1, 1] = 3.0
            coeffs[1, 1, 1] = 1.0
            coeffs[g, 1, 1] = 2.0
            p = MatrixPolynomial(coeffs)
            assert is_structured(p, StructureKind.symmetric)
            rep = minimal_indices(p)
            assert rep.right == (0,) and rep.left == (0,)
            pencil = build_linearization(p, StructureKind.symmetric, "tridiagonal")
            rep_l = minimal_indices(pencil.poly)
            assert rep_l.right == (k,) and rep_l.left == (k,)


# ---------------------------------------------------------------------------
# 8. Mobius algebra
# ---------------------------------------------------------------------------

def test_criterion_8_mobius_algebra():
    with criterion(8, "substitution composition, block action, reversal"):
        rng = np.random.default_rng(808)
        done = 0
        while done < 200:
            g = int(rng.integers(0, 6))
            rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            p = MatrixPolynomial(rng.standard_normal((g + 1, rows, cols)))
            a = MobiusMatrix(*rng.uniform(-1, 1, size=4))
            b = MobiusMatrix(*rng.uniform(-1, 1, size=4))
            if abs(a.det) < 0.2 or abs(b.det) < 0.2:
                continue
            done += 1
            tol = 1e-12 * max(1.0, frob_norm(p))
            assert frob_norm(mobius(mobius(p, a), b) - mobius(p, compose(a, b))) <= tol
            sub_rows = sorted(rng.choice(rows, size=max(1, rows // 2), replace=False))
            sub_cols = sorted(rng.choice(cols, size=max(1, cols // 2), replace=False))
            block = MatrixPolynomial(p.coeffs[:, sub_rows, :][:, :, sub_cols])
            got = mobius(p, a).coeffs[:, sub_rows, :][:, :, sub_cols]
            assert np.linalg.norm(got - mobius(block, a).coeffs) <= tol
            assert frob_norm(reversal(p, g) - mobius(p, MOBIUS_REVERSAL)) <= tol


# ---------------------------------------------------------------------------
# 9. fixed-point theory
# ---------------------------------------------------------------------------

def test_criterion_9_fixed_point_theory():
    with criterion(9, "iterate norm cap and admissibility guard"):
        rng = np.random.default_rng(909)
        k, n = 2, 2
        for trial in range(50):
            kind = ALL_KINDS[trial % 6]
            p = random_structured(n, 2 * k + 1, kind, 1.0, seed=3000 + trial)
            pencil = build_linearization(p, kind, "tridiagonal")
            norm_dl = float(rng.uniform(1e-8, 3e-2))
            dl = random_structured_perturbation(k, n, kind, norm_dl, seed=trial)
            state = sylvester.quadratic_fixed_point(pencil.perturbed(dl))
            assert state.residuals[-1] <= 1e-12 * state.theta
            assert state.kappa1 < 0.25
            cap = iterate_norm_cap(state)
            assert max(state.x_norms) <= cap + 1e-12 * max(1.0, cap)
        # forced inadmissibility raises the documented precondition error
        kind = StructureKind.palindromic
        p = random_structured(n, 5, kind, 1.0, seed=4000)
        pencil = build_linearization(p, kind, "tridiagonal")
        dl = random_structured_perturbation(k, n, kind, 1e-4, seed=4001)
        forced = with_scaled_22_block(dl, k, n, 1e7)
        with pytest.raises(ThresholdError) as err:
            sylvester.quadratic_fixed_point(pencil.perturbed(forced))
        assert err.value.value >= 0.25 and err.value.bound == 0.25
