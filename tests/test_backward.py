import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strukt import (
    StructureKind,
    congruence_zero_block,
    frob_norm,
    pair_norm,
    random_structured,
    random_structured_perturbation,
    reconstruct_perturbed_polynomial,
    run_certification,
    theorem_bound,
)
from strukt import backward, errors, linearize, minbases, polycore, spectra, sylvester
from strukt.errors import GradeError, StruktError, ThresholdError
from strukt.linearize import build_linearization

from conftest import ALL_KINDS, noisy_22_pencil, perturbation_blocks, with_entry
from oracles import is_structured, reports_from_csv, reports_from_json, x_norm_bound


def make_case(kind, seed=0, g=5, n=2, norm=1e-8, placement="tridiagonal"):
    k = (g - 1) // 2
    p = random_structured(n, g, kind, 1.0, seed=seed)
    pencil = build_linearization(p, kind, placement)
    dl = random_structured_perturbation(k, n, kind, norm, seed=seed + 1)
    return p, pencil, dl


# ---------------------------------------------------------------------------
# structured perturbations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_perturbation_is_structured_with_exact_norm(kind):
    """A trial adds its draw to L with no structure gate, so the draw must be
    exactly structured, in both fields and at every size and norm: the kind's
    involution only permutes, negates or conjugates entries, and scaling
    keeps the residual at 0.0. Its (2,2) block is nonzero."""
    for field_tag in (polycore.REAL, polycore.COMPLEX):
        for k, n in ((1, 2), (2, 3), (4, 4)):
            for norm in (0.0, 1e-10, 1e-6, 0.3):
                for seed in range(4):
                    dl = random_structured_perturbation(k, n, kind, norm, seed, field_tag)
                    assert polycore.structure_residual(dl, kind) == 0.0
                    assert abs(frob_norm(dl) - norm) <= 1e-14 * norm
                    *_, da22, db22 = perturbation_blocks(dl, k, n)
                    assert (pair_norm(da22, db22) > 0) == (norm > 0)


def test_perturbation_blocks_roundtrip_bit_exact():
    """An exact draw passes the structure gate as itself at distance 0.0,
    and A = L + dL holds dL's (2,2) block, where L is zero, bit for bit."""
    kind = StructureKind.anti_palindromic
    _, pencil, dl = make_case(kind, seed=8, norm=1e-3)
    again, distance = polycore.admit_structured(dl, kind, "perturbation")
    assert again is dl and distance == 0.0
    a22 = linearize.natural_blocks(pencil.perturbed(dl).poly.coeffs, 2, 2)[3]
    assert np.array_equal(a22, linearize.natural_blocks(dl.coeffs, 2, 2)[3])


def test_array_values_compare_by_identity_and_hash():
    """A polynomial and a pencil each equal themselves only: an
    equal-coefficient copy compares unequal, and each value hashes."""
    p, pencil, _ = make_case(StructureKind.even, seed=2)
    copies = (polycore.MatrixPolynomial(p.coeffs.copy()), dataclasses.replace(pencil))
    for value, copy in zip((p, pencil), copies):
        assert value == value and value != copy
        assert len({value, value, copy}) == 2


@pytest.mark.parametrize("field_tag", [polycore.REAL, polycore.COMPLEX])
@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize(
    "block, norm",
    [("11", 1.0), ("22", 1.0), ("12", 1e-11)],
    ids=["unstructured-11", "unstructured-22", "tiny-arbitrary-12"],
)
def test_from_pencil_rejects_inconsistent_offdiagonal(block, norm, kind, field_tag, rng):
    """A pencil L + dL whose structured draw dL has one natural-partition
    block replaced by random entries of the same norm is refused by
    `linearize.recover`, however small ||dL|| is: an unstructured (1,1) or
    (2,2) block, or an arbitrary (1,2) block at ||dL|| = 1e-11. The gate
    refuses such a dL itself too."""
    k, n = 2, 2
    top = (k + 1) * n
    head, tail = slice(0, top), slice(top, None)
    rows, cols = {"11": (head, head), "22": (tail, tail), "12": (head, tail)}[block]
    p = random_structured(n, 2 * k + 1, kind, 1.0, seed=2, field=field_tag)
    pencil = build_linearization(p, kind)
    dl = random_structured_perturbation(k, n, kind, norm, seed=3, field_tag=field_tag)
    coeffs = dl.coeffs.copy()
    old = coeffs[:, rows, cols]
    noise = rng.standard_normal(old.shape)
    if field_tag == polycore.COMPLEX:
        noise = noise + 1j * rng.standard_normal(old.shape)
    coeffs[:, rows, cols] = noise * (np.linalg.norm(old) / np.linalg.norm(noise))
    dl = polycore.MatrixPolynomial(coeffs)
    assert polycore.structure_residual(dl, kind) > 0.1 * frob_norm(dl)
    with pytest.raises(errors.StructureError, match=f"is not {kind.value}"):
        polycore.admit_structured(dl, kind, "perturbation")
    with pytest.raises(errors.StructureError, match=f"is not {kind.value}"):
        linearize.recover(pencil.perturbed(dl))


@pytest.mark.parametrize("size, grade", [(9, 1), (10, 2)], ids=["9x9-pencil", "grade-2"])
def test_perturbed_refuses_a_perturbation_of_the_wrong_size_or_grade(size, grade):
    """At (k, n) = (2, 2) only a 10 x 10 pencil of grade 1 is a perturbation;
    anything else is a typed `StructureError`, not a bare `ValueError`."""
    _, pencil, _ = make_case(StructureKind.symmetric)
    dl = polycore.zeros(size, size, grade)
    with pytest.raises(errors.StructureError, match="10 x 10 pencil of grade 1"):
        pencil.perturbed(dl)


def test_recover_refuses_a_perturbation_of_another_kind():
    """A dL carries no kind of its own: an odd dL added to an even pencil is
    refused where a pencil enters from outside, by `linearize.recover`'s
    admissions."""
    _, pencil, _ = make_case(StructureKind.even)
    dl = random_structured_perturbation(2, 2, StructureKind.odd, 1e-8, seed=4)
    with pytest.raises(errors.StructureError, match="is not even"):
        linearize.recover(pencil.perturbed(dl))


# ---------------------------------------------------------------------------
# congruence
# ---------------------------------------------------------------------------

def dense_congruence(a, x):
    """Oracle: [[I, 0], [X, I]] A [[I, X^*], [0, I]], formed densely."""
    top = (a.k + 1) * a.n
    g = np.eye(a.size, dtype=np.result_type(x, a.l0))
    g[top:, :top] = x
    return polycore.MatrixPolynomial(g @ a.poly.coeffs @ polycore.star(g))


def test_congruence_zero_perturbation_is_identity():
    kind = StructureKind.symmetric
    p, pencil, _ = make_case(kind, seed=3)
    a = pencil.perturbed(polycore.zeros(10, 10, 1))
    res = congruence_zero_block(a)
    assert not res.state.x.any()
    assert a.m_pencil.coeffs.tobytes() == pencil.m_pencil.coeffs.tobytes()
    # Bit for bit but for the sign of zeros: adding dL = 0 turns the -0.0
    # entries of L_k's -I blocks into +0.0.
    assert np.array_equal(res.b21.coeffs, minbases.build_Lk(2, 2).coeffs)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("field", [polycore.REAL, polycore.COMPLEX])
@pytest.mark.parametrize("placement", ["tridiagonal", "stacked"])
def test_congruence_blocks_match_the_dense_congruence(kind, field, placement):
    """The blocks the congruence forms are those of the dense product, which
    is structured and whose (2,2) block has the reported residual."""
    p = random_structured(2, 5, kind, 1.0, seed=17, field=field)
    pencil = build_linearization(p, kind, placement)
    dl = random_structured_perturbation(2, 2, kind, 1e-6, seed=18, field_tag=field)
    a = pencil.perturbed(dl)
    res = congruence_zero_block(a)
    dense = dense_congruence(a, res.state.x)
    assert is_structured(dense, kind, tol=1e-12)
    d11, d21, _, d22 = linearize.natural_blocks(dense.coeffs, 2, 2)
    for got, want in ((a.m_pencil.coeffs, d11), (res.b21.coeffs, d21)):
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
    # Both are the rounding residue of one block summed in different orders,
    # so they agree in size, not in bits.
    assert pair_norm(*d22) == pytest.approx(res.residual22, rel=0.1)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_congruence_pipeline_small_perturbation(kind):
    p, pencil, dl = make_case(kind, seed=17, norm=1e-8)
    norm_dl = frob_norm(dl)
    res = congruence_zero_block(pencil.perturbed(dl))
    assert res.residual22 <= 1e-14
    assert np.linalg.norm(res.state.x) <= x_norm_bound(2, norm_dl)
    # growth of the (2,1) defect obeys the stated amplification factor
    grow = norm_dl * (
        1.0
        + 3.0 * 2 / (1.0 - 3.0 * 2 * norm_dl)
        * (frob_norm(pencil.m_pencil) + norm_dl)
    )
    assert frob_norm(res.b21 - minbases.build_Lk(2, 2)) <= grow + 1e-15


def test_congruence_threshold_certified_mode():
    """A perturbation far above the threshold is refused by the contraction
    gate of the fixed point."""
    kind = StructureKind.even
    p, pencil, _ = make_case(kind, seed=23)
    big = random_structured_perturbation(2, 2, kind, 0.5, seed=2)
    with pytest.raises(ThresholdError) as err:
        congruence_zero_block(pencil.perturbed(big))
    assert err.value.bound == 0.25


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_zero_perturbation_exact():
    kind = StructureKind.odd
    p, pencil, _ = make_case(kind, seed=29)
    recon = reconstruct_perturbed_polynomial(pencil.m_pencil, minbases.build_Lk(2, 2), kind)
    assert frob_norm(recon.poly - p) <= 1e-14
    assert recon.norm_dr == 0.0


def test_reconstruct_refuses_defect_at_the_completion_bound(rng):
    """The completion refuses a (2,1) defect beyond its bound, carrying the
    defect and `completion_threshold(k)`."""
    kind = StructureKind.palindromic
    _, pencil, _ = make_case(kind, seed=31)
    coeffs = minbases.build_Lk(2, 2).coeffs.copy()
    bump = rng.standard_normal((4, 6))
    coeffs[0] += 0.98 * bump / np.linalg.norm(bump)
    with pytest.raises(ThresholdError) as err:
        reconstruct_perturbed_polynomial(pencil.m_pencil, polycore.MatrixPolynomial(coeffs), kind)
    assert err.value.bound == minbases.completion_threshold(2)
    assert err.value.value == pytest.approx(0.98, rel=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("g", [3, 5])
def test_reconstruct_structure_and_norm_bound(kind, g):
    k = (g - 1) // 2
    for trial in range(10):
        p, pencil, dl = make_case(kind, seed=trial * 7, g=g, norm=1e-6)
        a = pencil.perturbed(dl)
        cong = congruence_zero_block(a)
        recon = reconstruct_perturbed_polynomial(a.m_pencil, cong.b21, kind)
        assert is_structured(recon.poly, kind, tol=1e-11)
        dp = recon.poly - p
        assert polycore.structure_residual(dp, kind) <= 1e-11
        # stated perturbation bound in terms of the (1,1) defect and the dual correction
        d11 = polycore.from_coeff_list(perturbation_blocks(dl, k, 2)[:2])
        cap = math.sqrt(k + 1) * (
            5.0 * frob_norm(d11)
            + 4.0 * frob_norm(pencil.m_pencil) * recon.norm_dr
        )
        assert frob_norm(dp) <= cap + 1e-15


@pytest.mark.parametrize("field", [polycore.REAL, polycore.COMPLEX])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_no_solve_shortcut_reads_the_perturbed_pencil(monkeypatch, kind, field):
    """When A22 = 0 and A21 = L_k (x) I_n, recovery runs neither solve and is
    the monomial sandwich of A's own (1,1) block, bit for bit: for dL = 0 and
    for a structured dL confined to the (1,1) block, which moves P."""

    def refuse(*args, **kwargs):
        raise AssertionError("a solve ran on the no-solve path")

    k, n = 2, 2
    p = random_structured(n, 2 * k + 1, kind, 1.0, seed=41, field=field)
    pencil = build_linearization(p, kind, "stacked")
    top = (k + 1) * n
    coeffs = np.zeros((2, pencil.size, pencil.size), dtype=pencil.poly.coeffs.dtype)
    coeffs[:, :top, :top] = random_structured(top, 1, kind, 1e-3, seed=42, field=field).coeffs
    monkeypatch.setattr(sylvester, "quadratic_fixed_point", refuse)
    monkeypatch.setattr(minbases, "dual_basis_complete", refuse)
    zero = polycore.zeros(pencil.size, pencil.size, 1)
    for dl, moves in ((zero, False), (polycore.MatrixPolynomial(coeffs), True)):
        a = pencil.perturbed(dl)
        want = linearize.recover_from_m(a.m_pencil, minbases.build_Lambda(k, n), kind)
        rec = backward.recover_perturbed(a)
        assert rec.poly.coeffs.tobytes() == want.coeffs.tobytes()
        assert (rec.norm_x, rec.norm_dr, rec.iterations) == (0.0, 0.0, 0)
        assert linearize.recover(a).coeffs.tobytes() == want.coeffs.tobytes()
        assert (frob_norm(rec.poly - p) > 1e-6) == moves


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_recover_takes_a_pencil_whose_perturbation_is_structured_to_rounding(kind):
    """A structured X cannot remove the unstructured part of a (2,2) block,
    so a dL that is structured only to rounding must be admitted by its
    projection. With the (2,2) block scaled by 1, 1e-3 or 0 plus noise of
    3e-14 ||dL|| per entry, each pencil recovers within its certified bound
    and its spectrum is the recovered polynomial's."""
    for draw in range(3):
        for scale in (1.0, 1e-3, 0.0):
            p, pencil, dl, a = noisy_22_pencil(kind, draw, scale)
            got = linearize.recover(a)
            tb = theorem_bound(p, pencil)
            assert frob_norm(got - p) / tb.norm_p <= tb.ratio_bound(frob_norm(dl))
            want = spectra.reference_polyeigs(got)
            assert spectra.compare_spectra(spectra.pencil_eigs(a.l0, a.l1), want).max_distance <= 1e-13


@pytest.mark.parametrize("norm", [0.0, 1e-6])
def test_recover_takes_a_pencil_whose_11_block_is_structured_to_rounding(norm):
    """`assemble` judges A11's own defect against ||A11||, so dL is admitted
    with its (1,1) block zeroed: a one-ulp asymmetry of A11 stays far below
    1e-12 ||A11|| but would not be below 1e-12 ||dL||."""
    k, n, kind = 2, 2, StructureKind.symmetric
    p, pencil, dl = make_case(kind, norm=norm)
    coeffs = pencil.perturbed(dl).poly.coeffs.copy()
    coeffs[1, 0, 1] = np.nextafter(coeffs[1, 0, 1], math.inf)
    a = linearize.BlockKroneckerPencil(polycore.MatrixPolynomial(coeffs), k, n, kind)
    assert polycore.structure_residual(a.m_pencil, kind) > 0.0
    got = linearize.recover(a)
    tb = theorem_bound(p, pencil)
    assert frob_norm(got - p) / tb.norm_p <= max(tb.ratio_bound(norm), 1e-14)


def test_admit_structured_returns_the_projection_of_a_noisy_perturbation():
    """dL off its structure by rounding is admitted as its exactly structured
    projection, and ||projection|| plus the projection distance bounds
    ||dL||; an exactly structured dL is admitted as it is."""
    for kind in ALL_KINDS:
        *_, dl, _ = noisy_22_pencil(kind, 0, 1.0)
        assert polycore.structure_residual(dl, kind) > 0.0
        exact, distance = polycore.admit_structured(dl, kind, "perturbation")
        assert polycore.structure_residual(exact, kind) == 0.0
        assert frob_norm(exact) + distance >= frob_norm(dl)
        again, distance = polycore.admit_structured(exact, kind, "perturbation")
        assert again is exact and distance == 0.0


def test_the_congruence_gate_has_no_absolute_floor(monkeypatch):
    """At ||dL|| = 1e-10 an X off by a relative 1e-6 leaves a (2,2) block
    far below 1e-12 but far above 4e-12 theta; the gate is relative to
    theta alone, so it refuses that X."""
    _, pencil, dl = make_case(StructureKind.symmetric, norm=1e-10)
    a = pencil.perturbed(dl)
    congruence_zero_block(a)  # the fixed point's own X passes
    fixed_point = sylvester.quadratic_fixed_point

    def off_by_a_millionth(a):
        state = fixed_point(a)
        state.x = state.x * (1.0 + 1e-6)
        return state

    monkeypatch.setattr(sylvester, "quadratic_fixed_point", off_by_a_millionth)
    with pytest.raises(StruktError, match=r"\(2,2\) block residual"):
        congruence_zero_block(a)


@pytest.mark.parametrize(
    "block, value, error",
    [
        ("11", math.nan, "finite"),
        ("11", math.inf, "finite"),
        ("12", math.nan, "finite"),
        pytest.param("12", 5.0, "perturbation is not symmetric", id="12-5.0-not structured"),
    ],
)
def test_recover_refuses_a_nonfinite_or_unstructured_pencil(block, value, error):
    """A built pencil with one entry of its (1,1) or (1,2) block made
    non-finite or unstructured is refused by `linearize.recover`'s two
    admissions, the (1,1) block's `assemble` and dL's, without
    forming inf - inf, instead of being returned through the no-solve
    shortcut."""
    k, n, kind = 2, 2, StructureKind.symmetric
    pencil = build_linearization(random_structured(n, 2 * k + 1, kind, 1.0, seed=3), kind)
    coeffs = pencil.poly.coeffs.copy()
    coeffs[1, 0, (k + 1) * n if block == "12" else 0] = value
    a = linearize.BlockKroneckerPencil(polycore.MatrixPolynomial(coeffs), k, n, kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StruktError, match=error):
            linearize.recover(a)


def test_a_trial_checks_the_pencils_structure_once(monkeypatch):
    """A trial's draw dL, and so A = L + dL, is finite and structured by
    construction, so a trial neither gates nor takes the structure residual
    of a (2k+1)n pencil. `linearize.recover` gates one, the dL of a pencil
    from outside the library, once."""
    callers = []

    def counting(check):
        def counted(p, kind, *what):
            if p.shape == (10, 10):  # (2k+1)n at k = n = 2
                callers.append(sys._getframe(1).f_code.co_name)
            return check(p, kind, *what)

        return counted

    for name in ("admit_structured", "structure_residual"):
        monkeypatch.setattr(polycore, name, counting(getattr(polycore, name)))
    monkeypatch.setattr(backward, "structure_residual", polycore.structure_residual)
    kind = StructureKind.even
    p = random_structured(2, 5, kind, 1.0, seed=8)
    [rep] = run_certification(p, kind, "tridiagonal", [1e-6], trials=1, seed=9)
    assert rep.error is None and rep.ratio_le_bound and rep.structure_ok
    assert callers == []
    pencil = build_linearization(p, kind)
    linearize.recover(pencil.perturbed(random_structured_perturbation(2, 2, kind, 1e-6, seed=9)))
    assert callers == ["recover"]


# ---------------------------------------------------------------------------
# theorem bound bookkeeping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("placement", ["tridiagonal", "stacked"])
def test_pencil_norm_identities(kind, placement):
    for seed in range(10):
        g, n, k = 5, 2, 2
        p = random_structured(n, g, kind, float(np.exp(seed - 5)), seed=seed)
        pencil = build_linearization(p, kind, placement)
        norm_p = frob_norm(p)
        norm_m = frob_norm(pencil.m_pencil)
        norm_l = frob_norm(pencil.poly)
        assert norm_l == pytest.approx(
            math.sqrt(norm_m**2 + 4.0 * n * k), rel=1e-13
        )
        assert norm_l / norm_p >= 1.0 / math.sqrt(2.0 * (k + 1)) - 1e-14
        assert norm_m >= norm_p / math.sqrt(2.0 * (k + 1)) - 1e-14


def test_theorem_bound_values():
    kind = StructureKind.symmetric
    p, pencil, _ = make_case(kind, seed=31)
    tb = theorem_bound(p, pencil)
    norm_m = frob_norm(pencil.m_pencil)
    assert tb.threshold == pytest.approx(
        (math.pi / 16.0) ** 2 / (3**2.5 * (1.0 + norm_m))
    )
    norm_l = frob_norm(pencil.poly)
    assert tb.c_pl == pytest.approx(
        68.0 * 3**2.5 * norm_l * (1.0 + norm_m + norm_m**2)
    )
    assert tb.ratio_bound(1e-8) == pytest.approx(tb.c_pl * 1e-8 / norm_l)


# ---------------------------------------------------------------------------
# runner and reports
# ---------------------------------------------------------------------------

def test_run_certification_small_campaign():
    p = random_structured(2, 5, StructureKind.palindromic, 1.0, seed=1)
    reports = run_certification(
        p, StructureKind.palindromic, "tridiagonal", [0.0, 1e-8], trials=5, seed=42
    )
    assert len(reports) == 10
    zero_rows = [r for r in reports if r.norm_dL == 0.0]
    assert all(r.ratio == 0.0 for r in zero_rows)
    live = [r for r in reports if r.norm_dL > 0.0]
    assert all(r.error is None for r in live)
    assert all(r.ratio_le_bound and r.structure_ok and r.threshold_ok for r in live)


def test_run_certification_deterministic():
    p = random_structured(2, 5, StructureKind.even, 1.0, seed=6)
    a = run_certification(p, StructureKind.even, "stacked", [1e-7], trials=3, seed=9)
    b = run_certification(p, StructureKind.even, "stacked", [1e-7], trials=3, seed=9)
    for ra, rb in zip(a, b):
        assert ra.ratio == rb.ratio and ra.norm_dP == rb.norm_dP


def test_run_certification_records_threshold_failures():
    p = random_structured(2, 5, StructureKind.symmetric, 1.0, seed=2)
    reports = run_certification(
        p, StructureKind.symmetric, "tridiagonal", [0.1], trials=2, seed=3
    )
    assert all(not r.threshold_ok for r in reports)
    assert all(r.error is not None for r in reports)


def test_run_certification_rejects_grade_1():
    p = random_structured(2, 1, StructureKind.symmetric, 1.0, seed=2)
    with pytest.raises(GradeError):
        run_certification(p, StructureKind.symmetric, "tridiagonal", [1e-8], trials=1, seed=3)


@pytest.mark.parametrize("norms", [[], (), np.array([])], ids=["list", "tuple", "array"])
def test_run_certification_refuses_no_perturbation_norms(norms):
    """No norm means no trial: refused, not an empty certificate."""
    p = random_structured(2, 3, StructureKind.even, 1.0, seed=2)
    with pytest.raises(StruktError, match="at least one perturbation norm"):
        run_certification(p, StructureKind.even, "tridiagonal", norms, trials=1, seed=3)


def test_run_certification_runs_every_norm_of_a_one_shot_iterable():
    """The range check does not use up a generator of norms."""
    p = random_structured(2, 3, StructureKind.even, 1.0, seed=2)
    reports = run_certification(
        p, StructureKind.even, "tridiagonal", (nrm for nrm in [0.0, 1e-8]), trials=1, seed=3
    )
    assert [r.norm_dL for r in reports] == [0.0, 1e-8]


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_run_certification_refuses_non_finite_coefficients(bad):
    """Refused before the polynomial is scaled to unit norm, where an inf
    would turn every coefficient into NaN."""
    p = with_entry(random_structured(2, 3, StructureKind.odd, 1.0, seed=2), bad)
    with pytest.raises(StruktError, match="finite"):
        run_certification(p, StructureKind.odd, "tridiagonal", [1e-8], trials=1, seed=3)


def test_certification_never_forms_the_dense_system(monkeypatch):
    """The dense vectorized star-Sylvester matrix, the convolution matrix,
    Cholesky factors and dense solves are for oracles only: the two cached
    preconditioners read the n = 1 dense forms once, and a trial at n = 2
    forms neither dense system. With every dense form refused once the
    caches are warm, every kind still certifies."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense system formed or solved on the certification path")

    matrix, convolution = sylvester.StarSylvesterOperator.matrix, minbases.convolution_matrix
    formed = []

    def n1_matrix(op):
        assert op.n == 1, "dense star-Sylvester system formed at n >= 2"
        formed.append("matrix")
        return matrix(op)

    def n1_convolution(K, target_degree):
        assert K.cols - K.rows == 1, "dense convolution matrix formed at n >= 2"
        formed.append("convolution_matrix")
        return convolution(K, target_degree)

    def certify_every_kind():
        for kind in ALL_KINDS:
            p = random_structured(2, 5, kind, 1.0, seed=8)
            reports = run_certification(p, kind, "tridiagonal", [1e-6], trials=2, seed=9)
            assert all(r.error is None and r.ratio_le_bound and r.structure_ok for r in reports)

    sylvester._reference.cache_clear()
    minbases._completion_preconditioner.cache_clear()
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(scipy.linalg, "cho_factor", refuse)
    monkeypatch.setattr(scipy.linalg, "cholesky", refuse)
    monkeypatch.setattr(sylvester.StarSylvesterOperator, "matrix", n1_matrix)
    monkeypatch.setattr(minbases, "convolution_matrix", n1_convolution)
    certify_every_kind()
    assert set(formed) == {"matrix", "convolution_matrix"}
    monkeypatch.setattr(sylvester.StarSylvesterOperator, "matrix", refuse)
    monkeypatch.setattr(minbases, "convolution_matrix", refuse)
    certify_every_kind()


def test_certification_checks_the_gap_independently_of_the_formula(monkeypatch):
    """`certified_gap` computes sigma_min(T_A) itself: with `sigma_min_formula`
    made to raise, every row still certifies and equals the unpatched one."""
    p = random_structured(2, 5, StructureKind.even, 1.0, seed=8)

    def certify():
        sylvester._reference.cache_clear()
        reports = run_certification(
            p, StructureKind.even, "tridiagonal", [1e-8, 1e-6], trials=2, seed=9
        )
        return [(r.error, dict(r.row(), wall_ms=0.0)) for r in reports]

    want = certify()

    def refuse(k):
        raise AssertionError("the closed form was read on the certification path")

    monkeypatch.setattr(sylvester, "sigma_min_formula", refuse)
    got = certify()
    assert all(err is None and row["ratio_le_bound"] for err, row in got)
    assert got == want


def _clear_shape_caches():
    """Empty every lru_cache of the library, so the next trial builds each
    per-shape constant afresh."""
    for module in (polycore, minbases, linearize, sylvester, backward, spectra):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_a_repeated_certification_rebuilds_no_shape_constant(monkeypatch):
    """Mobius weight tables and the selector identities of L_k depend only
    on (k, n, kind): once a trial at a shape has run, a second certification
    at that shape builds neither again."""
    calls = {"binom": 0, "selector eye": 0}
    binom_poly, eye = polycore._binom_poly, np.eye

    def counting_binom_poly(*args):
        calls["binom"] += 1
        return binom_poly(*args)

    def counting_eye(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "build_Lk":
            calls["selector eye"] += 1
        return eye(*args, **kwargs)

    monkeypatch.setattr(polycore, "_binom_poly", counting_binom_poly)
    monkeypatch.setattr(np, "eye", counting_eye)
    kind = StructureKind.palindromic
    p = random_structured(2, 5, kind, 1.0, seed=8)

    def certify():
        [rep] = run_certification(p, kind, "tridiagonal", [1e-6], trials=1, seed=9)
        assert rep.error is None and rep.ratio_le_bound and rep.structure_ok

    _clear_shape_caches()
    certify()
    assert calls["binom"] > 0 and calls["selector eye"] > 0
    calls.update(dict.fromkeys(calls, 0))
    certify()
    assert calls == {"binom": 0, "selector eye": 0}


def test_a_repeated_certification_forms_no_full_size_identity(monkeypatch):
    """The congruence forms blocks only: once a trial at a shape has run, a
    second certification calls np.eye at no size of (2k+1)n or more."""
    kind = StructureKind.palindromic
    p = random_structured(2, 5, kind, 1.0, seed=8)
    run_certification(p, kind, "tridiagonal", [1e-6], trials=1, seed=9)
    sizes = []
    eye = np.eye

    def counting_eye(n, m=None, *args, **kwargs):
        sizes.append(max(n, m or n))
        return eye(n, m, *args, **kwargs)

    monkeypatch.setattr(np, "eye", counting_eye)
    [rep] = run_certification(p, kind, "tridiagonal", [1e-6], trials=1, seed=9)
    assert rep.error is None and rep.ratio_le_bound
    assert [size for size in sizes if size >= 5 * 2] == []


_FRESH_PROCESS_ROWS = """
import sys
from strukt import StructureKind, random_structured, run_certification
kind = StructureKind(sys.argv[1])
p = random_structured(2, 5, kind, 1.0, seed=8)
reports = run_certification(p, kind, "tridiagonal", [1e-8, 1e-6], trials=2, seed=9)
print(repr([(r.error, dict(r.row(), wall_ms=0.0)) for r in reports]))
"""


def test_shared_constants_give_the_rows_of_fresh_processes():
    """Kinds share the (k, n) constants and differ in the Mobius ones: with
    every cache emptied, symmetric and palindromic certifications at the same
    (k, n), interleaved in either order, give the rows that each kind gives
    alone in a fresh process."""
    kinds = (StructureKind.symmetric, StructureKind.palindromic)
    env = dict(os.environ, PYTHONPATH=str(Path(polycore.__file__).parents[1]))
    fresh = {
        kind: subprocess.run(
            [sys.executable, "-c", _FRESH_PROCESS_ROWS, kind.value],
            capture_output=True, text=True, check=True, env=env,
        ).stdout.strip()
        for kind in kinds
    }
    polys = {kind: random_structured(2, 5, kind, 1.0, seed=8) for kind in kinds}
    for order in (kinds, kinds[::-1]):
        _clear_shape_caches()
        for kind in order + order:
            reports = run_certification(
                polys[kind], kind, "tridiagonal", [1e-8, 1e-6], trials=2, seed=9
            )
            assert repr([(r.error, dict(r.row(), wall_ms=0.0)) for r in reports]) == fresh[kind]


def test_shared_constants_and_built_pencils_are_read_only():
    kind = StructureKind.even
    pencil = build_linearization(random_structured(2, 5, kind, 1.0, seed=1), kind)
    shared = [
        polycore.mobius_weights(kind.mobius, 5),
        minbases.build_Lk(2, 2).coeffs,
        minbases.build_Lambda(2, 2).coeffs,
        pencil.l0,
        pencil.l1,
        pencil.m_pencil.coeffs[0],
        pencil.m_pencil.coeffs[1],
    ]
    for arr in shared:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 7.0


@pytest.mark.parametrize("norm", [1e160, 1e300, 1.7e308])
def test_huge_perturbation_norms_end_in_a_typed_row_without_overflow(norm):
    """Norms whose squares overflow are computed without overflow, so an
    empirical run far above every bound ends in a `ThresholdError` row and
    warns of nothing."""
    p = random_structured(2, 5, StructureKind.palindromic, 1.0, seed=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = run_certification(
            p, StructureKind.palindromic, "tridiagonal", [norm], trials=2, seed=9,
            mode="empirical",
        )
    assert all(r.error.startswith("ThresholdError:") for r in reports)


@pytest.mark.parametrize("norm", [-1.0, math.nan, math.inf])
def test_random_structured_perturbation_refuses_bad_norm(norm):
    with pytest.raises(StruktError):
        random_structured_perturbation(2, 2, StructureKind.even, norm, seed=1)


@pytest.mark.parametrize("mode", ["certified", "empirical"])
@pytest.mark.parametrize(
    "norms, trials",
    [([math.nan], 1), ([1e-8, math.inf], 1), ([-1e-8], 1), ([1e-8], 0)],
)
def test_run_certification_refuses_bad_arguments_before_any_trial(monkeypatch, mode, norms, trials):
    monkeypatch.setattr(backward, "_run_single_trial", None)
    p = random_structured(2, 3, StructureKind.symmetric, 1.0, seed=2)
    with pytest.raises(StruktError):
        run_certification(
            p, StructureKind.symmetric, "tridiagonal", norms, trials=trials, seed=3, mode=mode
        )


@pytest.mark.parametrize("mode", ["certifed", "Certified", "", None])
def test_run_certification_refuses_an_unknown_mode_before_any_trial(monkeypatch, mode):
    """A misspelt mode is refused, not run as an empirical trial that then
    fails on the contraction condition above the certified threshold."""
    monkeypatch.setattr(backward, "_run_single_trial", None)
    p = random_structured(2, 3, StructureKind.symmetric, 1.0, seed=2)
    with pytest.raises(StruktError, match="mode must be"):
        run_certification(
            p, StructureKind.symmetric, "tridiagonal", [1.0], trials=1, seed=3, mode=mode
        )


@pytest.mark.parametrize("scale", [0.0, 1e-320])
def test_run_certification_refuses_a_zero_computed_norm_before_any_trial(monkeypatch, scale):
    """P = 0, and a nonzero P whose squares underflow, both have computed
    norm 0 and cannot be scaled to unit norm."""
    monkeypatch.setattr(backward, "_run_single_trial", None)
    p = random_structured(2, 3, StructureKind.symmetric, 1.0, seed=2) * scale
    assert p.coeffs.any() == (scale > 0)
    with pytest.raises(StruktError, match="norm is 0"):
        run_certification(p, StructureKind.symmetric, "tridiagonal", [1e-8], trials=1, seed=3)


def _same_cell(a, b):
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


def test_reports_roundtrip_csv_and_json(tmp_path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    p = random_structured(2, 5, StructureKind.odd, 1.0, seed=4)
    for compute_eigs in (True, False):
        reports = run_certification(
            p, StructureKind.odd, "tridiagonal", [1e-8], trials=3, seed=5, compute_eigs=compute_eigs
        )
        for rep in reports:
            rep.wall_ms = 0.0
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        backward.reports_to_csv(reports, csv_path)
        backward.reports_to_json(reports, json_path)
        header = csv_path.read_text().splitlines()[0]
        assert header == (
            "seed,kind,g,n,k,placement,norm_P,norm_L,norm_M,norm_dL,threshold_ok,norm_X,"
            "norm_dR,norm_dP,ratio,C_PL,bound,ratio_le_bound,structure_ok,eig_chordal_max,"
            "iters,wall_ms"
        )
        rows = json.loads(json_path.read_text(), parse_constant=reject)
        assert all((row["eig_chordal_max"] is None) != compute_eigs for row in rows)
        for loaded in (reports_from_csv(csv_path), reports_from_json(json_path)):
            assert len(loaded) == len(reports)
            for got, want in zip(loaded, reports):
                got_row, want_row = got.row(), want.row()
                assert all(_same_cell(got_row[name], want_row[name]) for name in want_row)


def test_eigenvalue_transport_in_certified_trials():
    kind = StructureKind.palindromic
    p = random_structured(2, 5, kind, 1.0, seed=12)
    reports = run_certification(
        p, kind, "tridiagonal", [1e-6], trials=5, seed=13, compute_eigs=True
    )
    assert all(r.eig_chordal_max <= 1e-6 for r in reports)


def test_minimal_index_shift_under_perturbation():
    # odd-size skew polynomials stay singular under structured perturbations,
    # so the index shift is observable after the full pipeline
    from strukt import minimal_indices

    kind = StructureKind.skew_symmetric
    n, g, k = 3, 5, 2
    p = random_structured(n, g, kind, 1.0, seed=8)
    pencil = build_linearization(p, kind, "tridiagonal")
    a = pencil.perturbed(random_structured_perturbation(k, n, kind, 1e-8, seed=9))
    cong = congruence_zero_block(a)
    recon = reconstruct_perturbed_polynomial(a.m_pencil, cong.b21, kind)
    rep_poly = minimal_indices(recon.poly)
    rep_pencil = minimal_indices(a.poly, tol=1e-7)
    assert rep_poly.right == rep_poly.left
    assert rep_pencil.right == tuple(e + k for e in rep_poly.right)
    assert rep_pencil.left == rep_pencil.right


def test_complex_field_pipeline():
    kind = StructureKind.palindromic
    p = random_structured(2, 5, kind, 1.0, seed=3, field=polycore.COMPLEX)
    pencil = build_linearization(p, kind, "tridiagonal")
    a = pencil.perturbed(
        random_structured_perturbation(2, 2, kind, 1e-8, seed=5, field_tag=polycore.COMPLEX)
    )
    cong = congruence_zero_block(a)
    recon = reconstruct_perturbed_polynomial(a.m_pencil, cong.b21, kind)
    dp = recon.poly - p
    assert cong.residual22 <= 1e-14
    assert polycore.structure_residual(dp, kind) <= 1e-11
    assert frob_norm(dp) <= 1e-7


def test_ratio_bound_monotone_in_perturbation_norm():
    kind = StructureKind.symmetric
    p, pencil, _ = make_case(kind, seed=37)
    tb = theorem_bound(p, pencil)
    norms = [1e-6 / 2**i for i in range(8)]
    bounds = [tb.ratio_bound(nrm) for nrm in norms]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


@given(
    kind=st.sampled_from(ALL_KINDS),
    k=st.integers(0, 4),
    n=st.integers(1, 3),
    field_tag=st.sampled_from([polycore.REAL, polycore.COMPLEX]),
    norm=st.one_of(st.just(0.0), st.floats(-10.0, -2.0).map(lambda e: 10.0**e)),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_every_trial_certifies_or_names_a_typed_error(kind, k, n, field_tag, norm):
    """k = 0 is refused with `GradeError`. Otherwise a trial below the
    theorem's threshold certifies, and any other trial records the name of
    a `StruktError` subclass. The draw is exactly structured."""
    # A real skew-symmetric 1 x 1 polynomial is zero and cannot be normalized.
    assume(not (kind == StructureKind.skew_symmetric and n == 1 and field_tag == polycore.REAL))
    p = random_structured(n, 2 * k + 1, kind, 1.0, seed=k + 7 * n, field=field_tag)
    if k == 0:
        with pytest.raises(GradeError):
            run_certification(p, kind, "tridiagonal", [norm], trials=1, seed=5)
        return
    [row] = run_certification(p, kind, "tridiagonal", [norm], trials=1, seed=5)
    trial_seed = np.random.SeedSequence(entropy=5, spawn_key=(0, 0))
    dl = random_structured_perturbation(k, n, kind, norm, trial_seed, field_tag=field_tag)
    assert polycore.structure_residual(dl, kind) == 0.0
    if row.threshold_ok:
        assert row.error is None and row.ratio_le_bound and row.structure_ok, row.error
    else:
        assert issubclass(getattr(errors, row.error.split(":")[0]), StruktError)
