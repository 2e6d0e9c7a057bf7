import json
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strukt import (
    StructureKind,
    congruence_zero_block,
    frob_norm,
    is_structured,
    random_structured,
    random_structured_perturbation,
    reconstruct_perturbed_polynomial,
    run_certification,
    theorem_bound,
)
from strukt import backward, errors, minbases, polycore, sylvester
from strukt.backward import StructuredPerturbation, x_norm_bound
from strukt.errors import GradeError, StruktError, ThresholdError
from strukt.linearize import build_linearization

from conftest import ALL_KINDS, perturbation_blocks


def make_case(kind, seed=0, g=5, n=2, norm=1e-8, placement="tridiagonal"):
    k = (g - 1) // 2
    p = random_structured(n, g, kind, 1.0, seed=seed)
    pencil = build_linearization(p, kind, placement)
    pert = random_structured_perturbation(k, n, kind, norm, seed=seed + 1)
    return p, pencil, pert


# ---------------------------------------------------------------------------
# structured perturbations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_perturbation_is_structured_with_exact_norm(kind):
    pert = random_structured_perturbation(2, 2, kind, 3e-4, seed=5)
    assert polycore.structure_residual(pert.pencil, kind) == 0.0
    assert abs(frob_norm(pert.pencil) - 3e-4) <= 1e-14 * 3e-4
    *_, da22, db22 = perturbation_blocks(pert)
    assert np.linalg.norm(da22) > 0 or np.linalg.norm(db22) > 0


def test_perturbation_blocks_roundtrip_bit_exact():
    kind = StructureKind.anti_palindromic
    pert = random_structured_perturbation(2, 2, kind, 1e-3, seed=9)
    again = StructuredPerturbation.from_pencil(pert.pencil, 2, 2, kind)
    assert (again.kind, again.k, again.n) == (kind, 2, 2)
    assert np.array_equal(again.pencil.coeffs, pert.pencil.coeffs)


@pytest.mark.parametrize("field_tag", [polycore.REAL, polycore.COMPLEX])
@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize(
    "block, norm",
    [("11", 1.0), ("22", 1.0), ("12", 1e-11)],
    ids=["unstructured-11", "unstructured-22", "tiny-arbitrary-12"],
)
def test_from_pencil_rejects_inconsistent_offdiagonal(block, norm, kind, field_tag, rng):
    """A structured draw with one natural-partition block replaced by random
    entries of the same norm is refused, however small ||dL|| is: an
    unstructured (1,1) or (2,2) block, or an arbitrary (1,2) block at
    ||dL|| = 1e-11."""
    k, n = 2, 2
    top = (k + 1) * n
    head, tail = slice(0, top), slice(top, None)
    rows, cols = {"11": (head, head), "22": (tail, tail), "12": (head, tail)}[block]
    pert = random_structured_perturbation(k, n, kind, norm, seed=3, field_tag=field_tag)
    coeffs = pert.pencil.coeffs.copy()
    old = coeffs[:, rows, cols]
    noise = rng.standard_normal(old.shape)
    if field_tag == polycore.COMPLEX:
        noise = noise + 1j * rng.standard_normal(old.shape)
    coeffs[:, rows, cols] = noise * (np.linalg.norm(old) / np.linalg.norm(noise))
    dl = polycore.MatrixPolynomial(coeffs, field_tag)
    assert polycore.structure_residual(dl, kind) > 0.1 * frob_norm(dl)
    with pytest.raises(errors.StructureError):
        StructuredPerturbation.from_pencil(dl, k, n, kind)


# ---------------------------------------------------------------------------
# congruence
# ---------------------------------------------------------------------------

def test_congruence_zero_perturbation_is_identity():
    kind = StructureKind.symmetric
    p, pencil, _ = make_case(kind, seed=3)
    zero = StructuredPerturbation.from_pencil(polycore.zeros(10, 10, 1), 2, 2, kind)
    res = congruence_zero_block(pencil, zero)
    assert not res.x.any()
    assert np.array_equal(res.ltilde.coeffs, pencil.as_polynomial().coeffs)
    assert frob_norm(res.dtilde21) == 0.0


def test_congruence_refuses_a_perturbation_of_another_kind():
    p, pencil, _ = make_case(StructureKind.even, seed=3)
    odd = random_structured_perturbation(2, 2, StructureKind.odd, 1e-8, seed=4)
    with pytest.raises(errors.StructureError):
        congruence_zero_block(pencil, odd)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_congruence_pipeline_small_perturbation(kind):
    p, pencil, pert = make_case(kind, seed=17, norm=1e-8)
    res = congruence_zero_block(pencil, pert)
    assert res.residual22 <= 1e-14
    assert is_structured(res.ltilde, kind, tol=1e-12)
    assert np.linalg.norm(res.x) <= x_norm_bound(2, res.norm_dl)
    # growth of the (2,1) defect obeys the stated amplification factor
    grow = res.norm_dl * (
        1.0
        + 3.0 * 2 / (1.0 - 3.0 * 2 * res.norm_dl)
        * (frob_norm(pencil.m_pencil) + res.norm_dl)
    )
    assert frob_norm(res.dtilde21) <= grow + 1e-15


def test_congruence_threshold_certified_mode():
    """A perturbation far above the threshold is refused by the contraction
    gate of the fixed point."""
    kind = StructureKind.even
    p, pencil, _ = make_case(kind, seed=23)
    big = random_structured_perturbation(2, 2, kind, 0.5, seed=2)
    with pytest.raises(ThresholdError) as err:
        congruence_zero_block(pencil, big)
    assert err.value.bound == 0.25


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_zero_perturbation_exact():
    kind = StructureKind.odd
    p, pencil, _ = make_case(kind, seed=29)
    recon = reconstruct_perturbed_polynomial(pencil.as_polynomial(), 2, 2, kind)
    assert frob_norm(recon.poly - p) <= 1e-14
    assert recon.norm_dr == 0.0


def test_reconstruct_refuses_defect_at_the_completion_bound(rng):
    """The completion refuses a (2,1) defect beyond its bound, carrying the
    defect and `completion_threshold(k)`."""
    kind = StructureKind.palindromic
    _, pencil, _ = make_case(kind, seed=31)
    coeffs = pencil.as_polynomial().coeffs.copy()
    bump = rng.standard_normal((4, 6))
    coeffs[0, 6:, :6] += 0.98 * bump / np.linalg.norm(bump)
    with pytest.raises(ThresholdError) as err:
        reconstruct_perturbed_polynomial(polycore.MatrixPolynomial(coeffs), 2, 2, kind)
    assert err.value.bound == minbases.completion_threshold(2)
    assert err.value.value == pytest.approx(0.98, rel=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("g", [3, 5])
def test_reconstruct_structure_and_norm_bound(kind, g):
    k = (g - 1) // 2
    for trial in range(10):
        p, pencil, pert = make_case(kind, seed=trial * 7, g=g, norm=1e-6)
        cong = congruence_zero_block(pencil, pert)
        recon = reconstruct_perturbed_polynomial(cong.ltilde, k, 2, kind)
        assert is_structured(recon.poly, kind, tol=1e-11)
        dp = recon.poly - p
        assert polycore.structure_residual(dp, kind) <= 1e-11
        # stated perturbation bound in terms of the (1,1) defect and the dual correction
        d11 = polycore.from_coeff_list(perturbation_blocks(pert)[:2])
        cap = math.sqrt(k + 1) * (
            5.0 * frob_norm(d11)
            + 4.0 * frob_norm(pencil.m_pencil) * recon.norm_dr
        )
        assert frob_norm(dp) <= cap + 1e-15


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
        norm_l = frob_norm(pencil.as_polynomial())
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
    norm_l = frob_norm(pencil.as_polynomial())
    assert tb.c_pl == pytest.approx(
        68.0 * 3**2.5 * norm_l * (1.0 + norm_m + norm_m**2)
    )
    assert tb.ratio_bound(1e-8, norm_l) == pytest.approx(tb.c_pl * 1e-8 / norm_l)


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


def test_certification_never_forms_the_dense_system(monkeypatch):
    """The dense vectorized star-Sylvester matrix, the convolution matrix,
    Cholesky factors and dense solves are for oracles only: with them
    disabled, every kind still certifies."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense system formed or solved on the certification path")

    sylvester._reference.cache_clear()
    monkeypatch.setattr(sylvester.StarSylvesterOperator, "matrix", refuse)
    monkeypatch.setattr(minbases, "convolution_matrix", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(scipy.linalg, "cho_factor", refuse)
    monkeypatch.setattr(scipy.linalg, "cholesky", refuse)
    for kind in ALL_KINDS:
        p = random_structured(2, 5, kind, 1.0, seed=8)
        reports = run_certification(p, kind, "tridiagonal", [1e-6], trials=2, seed=9)
        assert all(r.error is None and r.ratio_le_bound and r.structure_ok for r in reports)


def test_certification_checks_the_gap_independently_of_the_formula(monkeypatch):
    """The solver computes sigma_min(T_A) itself: with `sigma_min_formula`
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
        for loaded in (backward.reports_from_csv(csv_path), backward.reports_from_json(json_path)):
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
    pert = random_structured_perturbation(k, n, kind, 1e-8, seed=9)
    cong = congruence_zero_block(pencil, pert)
    recon = reconstruct_perturbed_polynomial(cong.ltilde, k, n, kind)
    lpert = pencil.as_polynomial() + pert.pencil
    rep_poly = minimal_indices(recon.poly)
    rep_pencil = minimal_indices(lpert, tol=1e-7)
    assert rep_poly.right == rep_poly.left
    assert rep_pencil.right == tuple(e + k for e in rep_poly.right)
    assert rep_pencil.left == rep_pencil.right


def test_complex_field_pipeline():
    kind = StructureKind.palindromic
    p = random_structured(2, 5, kind, 1.0, seed=3, field=polycore.COMPLEX)
    pencil = build_linearization(p, kind, "tridiagonal")
    pert = random_structured_perturbation(
        2, 2, kind, 1e-8, seed=5, field_tag=polycore.COMPLEX
    )
    cong = congruence_zero_block(pencil, pert)
    recon = reconstruct_perturbed_polynomial(cong.ltilde, 2, 2, kind)
    dp = recon.poly - p
    assert cong.residual22 <= 1e-14
    assert polycore.structure_residual(dp, kind) <= 1e-11
    assert frob_norm(dp) <= 1e-7


def test_ratio_bound_monotone_in_perturbation_norm():
    kind = StructureKind.symmetric
    p, pencil, _ = make_case(kind, seed=37)
    tb = theorem_bound(p, pencil)
    norm_l = frob_norm(pencil.as_polynomial())
    norms = [1e-6 / 2**i for i in range(8)]
    bounds = [tb.ratio_bound(nrm, norm_l) for nrm in norms]
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
    a `StruktError` subclass. The draw is exactly structured and passes
    through `from_pencil` bit-exactly."""
    # A real skew-symmetric 1 x 1 polynomial is zero and cannot be normalized.
    assume(not (kind == StructureKind.skew_symmetric and n == 1 and field_tag == polycore.REAL))
    p = random_structured(n, 2 * k + 1, kind, 1.0, seed=k + 7 * n, field=field_tag)
    if k == 0:
        with pytest.raises(GradeError):
            run_certification(p, kind, "tridiagonal", [norm], trials=1, seed=5)
        return
    [row] = run_certification(p, kind, "tridiagonal", [norm], trials=1, seed=5)
    trial_seed = np.random.SeedSequence(entropy=5, spawn_key=(0, 0))
    pert = random_structured_perturbation(k, n, kind, norm, trial_seed, field_tag=field_tag)
    assert polycore.structure_residual(pert.pencil, kind) == 0.0
    again = StructuredPerturbation.from_pencil(pert.pencil, k, n, kind)
    assert np.array_equal(again.pencil.coeffs, pert.pencil.coeffs)
    if row.threshold_ok:
        assert row.error is None and row.ratio_le_bound and row.structure_ok, row.error
    else:
        assert issubclass(getattr(errors, row.error.split(":")[0]), StruktError)
