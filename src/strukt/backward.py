"""End-to-end certification that structured pencil perturbations map back to
structured polynomial perturbations within explicit bounds.

Pipeline per trial: draw a structured perturbation dL of the assembled pencil
L, form A = L + dL once (`StructuredPerturbation.perturbed`), recover the
polynomial A linearizes from A alone (`recover_perturbed`: rezero its trailing
block by a structure-preserving congruence, a quadratic star-Sylvester fixed
point; complete its rezeroed (2,1) block to a dual basis of degree k; sandwich
its (1,1) block with it), and compare the achieved backward error against the
certified multiplier. `linearize.recover` runs the same recovery on a pencil
read from a file.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from . import linearize, minbases, polycore, spectra, sylvester
from .errors import GradeError, StructureError, StruktError, ThresholdError
from .linearize import BlockKroneckerPencil
from .polycore import (
    MatrixPolynomial,
    StructureKind,
    frob_norm,
    pair_norm,
    star,
    structure_residual,
)


# ---------------------------------------------------------------------------
# Structured perturbations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StructuredPerturbation:
    """A structured pencil perturbation dL of a (2k+1)n block Kronecker pencil.

    `from_pencil` admits dL by `polycore.admit_structured` and stores its
    projection with ``norm`` = ||projection||_F plus the projection distance,
    which bounds ||dL||_F. `perturbed` forms A = L + dL, the one pencil
    recovery reads.
    """

    pencil: MatrixPolynomial
    kind: StructureKind
    k: int
    n: int
    norm: float

    @classmethod
    def from_pencil(
        cls, dl: MatrixPolynomial, k: int, n: int, kind: StructureKind
    ) -> "StructuredPerturbation":
        size = (2 * k + 1) * n
        if dl.shape != (size, size) or dl.grade != 1:
            raise StructureError(
                f"expected a {size} x {size} pencil of grade 1, "
                f"got {dl.rows} x {dl.cols} of grade {dl.grade}"
            )
        pencil, distance = polycore.admit_structured(dl, kind, "perturbation")
        return cls(pencil, kind, k, n, frob_norm(pencil) + distance)

    def perturbed(self, pencil: BlockKroneckerPencil) -> BlockKroneckerPencil:
        """The perturbed pencil A = L + dL of the pencil L; a pencil of another
        kind or other block sizes is refused with `StructureError`."""
        if (self.kind, self.k, self.n) != (pencil.kind, pencil.k, pencil.n):
            raise StructureError("perturbation kind or block sizes differ from the pencil's")
        return BlockKroneckerPencil(pencil.poly + self.pencil, self.k, self.n, self.kind)


def random_structured_perturbation(
    k: int,
    n: int,
    kind: StructureKind,
    target_norm: float,
    seed,
    field_tag: str = polycore.REAL,
) -> StructuredPerturbation:
    """Random structured pencil perturbation with the requested Frobenius norm.

    A unit-norm structured pencil, scaled; the kind's involution only
    permutes, negates or conjugates entries, so the draw is exactly
    structured and its (2,2) block is generically nonzero.
    """
    if not 0 <= target_norm < math.inf:
        raise StruktError(f"perturbation norm must be finite and nonnegative, got {target_norm!r}")
    unit = polycore.random_structured(
        (2 * k + 1) * n, 1, kind, target_norm=1.0, seed=seed, field=field_tag
    )
    return StructuredPerturbation.from_pencil(unit * target_norm, k, n, kind)


# ---------------------------------------------------------------------------
# Congruence and reconstruction
# ---------------------------------------------------------------------------

@dataclass
class CongruenceResult:
    """The (2,1) block X A11 + A21 of the rezeroed pencil, which
    reconstruction reads with A's untouched (1,1) block, and the fixed
    point's state, whose ``x`` is X."""

    b21: MatrixPolynomial
    state: sylvester.FixedPointState
    residual22: float


def congruence_zero_block(a: BlockKroneckerPencil) -> CongruenceResult:
    """Rezero the (2,2) block of the perturbed pencil A by a
    structure-preserving congruence [[I, 0], [X, I]] A [[I, X^*], [0, I]].

    Only blocks are formed: the (2,1) block b21 = X A11 + A21 and the (2,2)
    block b21 X^* + X A12 + A22, which X leaves as a residual.
    `quadratic_fixed_point` refuses an inadmissible perturbation with
    `ThresholdError`. No norm threshold is checked here: certified runs refuse
    norms at or above `theorem_bound(...).threshold` before they get here.
    The (2,2) block left by X is refused unless it is at most 4e-12*theta.
    """
    state = sylvester.quadratic_fixed_point(a)
    x = state.x
    a11, a21, a12, a22 = linearize.natural_blocks(a.poly.coeffs, a.k, a.n)
    b21 = x @ a11 + a21
    r22 = b21 @ star(x) + x @ a12 + a22
    residual22 = pair_norm(r22[0], r22[1])
    if not residual22 <= 4e-12 * state.theta:
        raise StruktError(
            f"(2,2) block residual {residual22:.3e} above tolerance after congruence"
        )
    return CongruenceResult(b21=MatrixPolynomial(b21), state=state, residual22=residual22)


@dataclass
class ReconstructionResult:
    poly: MatrixPolynomial
    norm_dr: float


def reconstruct_perturbed_polynomial(
    m11: MatrixPolynomial, b21: MatrixPolynomial, kind: StructureKind
) -> ReconstructionResult:
    """Grade 2k+1 polynomial strongly linearized by the rezeroed pencil with
    (1,1) block ``m11`` and (2,1) block ``b21``.

    The kn x (k+1)n shape of ``b21`` fixes k and n. Completes ``b21`` to a
    dual basis pair and sandwiches ``m11`` with `linearize.recover_from_m`,
    the completed basis taking the place of the monomial row. The completion
    refuses a (2,1) defect at or above `minbases.completion_threshold(k)`
    with `ThresholdError`.
    """
    kn, width = b21.shape
    n = width - kn
    k = kn // n
    pair = minbases.dual_basis_complete(b21, k, n)
    return ReconstructionResult(
        poly=linearize.recover_from_m(m11, pair.N, kind),
        norm_dr=frob_norm(pair.correction),
    )


@dataclass(frozen=True)
class Recovery:
    """The polynomial that A linearizes, with what a report reads of its
    recovery: ||X||_F, the completion's ||N - Lambda||_F and the fixed point's
    sweeps."""

    poly: MatrixPolynomial
    norm_x: float
    norm_dr: float
    iterations: int


def recover_perturbed(a: BlockKroneckerPencil) -> Recovery:
    """Grade 2k+1 polynomial strongly linearized by the perturbed pencil A:
    `congruence_zero_block`, then `reconstruct_perturbed_polynomial` of A's
    (1,1) block and the rezeroed (2,1) block.

    Precondition, not checked here: A is a built pencil plus a dL that
    `StructuredPerturbation.from_pencil` admitted, so it is finite and
    structured. A trial's `perturbed` and `linearize.recover` ensure it.

    When A22 is zero and A21 is exactly L_k (x) I_n, as in a built pencil,
    the congruence is X = 0 and the completion N = Lambda exactly, so
    neither solve runs: the result is the monomial sandwich of A11, the
    inverse of the builder.
    """
    _, a21, _, a22 = linearize.natural_blocks(a.poly.coeffs, a.k, a.n)
    if not a22.any() and np.array_equal(a21, minbases.build_Lk(a.k, a.n).coeffs):
        row = minbases.build_Lambda(a.k, a.n)
        return Recovery(linearize.recover_from_m(a.m_pencil, row, a.kind), 0.0, 0.0, 0)
    cong = congruence_zero_block(a)
    recon = reconstruct_perturbed_polynomial(a.m_pencil, cong.b21, a.kind)
    return Recovery(
        recon.poly, polycore.array_norm(cong.state.x), recon.norm_dr, cong.state.iterations
    )


# ---------------------------------------------------------------------------
# Certified bound bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremBound:
    """Admissibility threshold and backward-error multiplier for a (P, L) pair,
    with the three Frobenius norms they are computed from."""

    threshold: float
    c_pl: float
    norm_p: float
    norm_l: float
    norm_m: float

    def ratio_bound(self, norm_dl: float) -> float:
        return self.c_pl * norm_dl / self.norm_l


def theorem_bound(p: MatrixPolynomial, pencil: BlockKroneckerPencil) -> TheoremBound:
    k = pencil.k
    norm_m = frob_norm(pencil.m_pencil)
    norm_p = frob_norm(p)
    norm_l = frob_norm(pencil.poly)
    threshold = (math.pi / 16.0) ** 2 / ((k + 1) ** 2.5 * (1.0 + norm_m))
    c_pl = 68.0 * (k + 1) ** 2.5 * (norm_l / norm_p) * (1.0 + norm_m + norm_m**2)
    return TheoremBound(threshold, c_pl, norm_p, norm_l, norm_m)


def corollary_factor(k: int, n: int) -> float:
    """Simplified multiplier (k+1)^3 sqrt(n); meaningful when ||M|| is close to
    ||P||, which the tridiagonal placement achieves at unit polynomial norm."""
    return (k + 1) ** 3 * math.sqrt(n)


# ---------------------------------------------------------------------------
# Certification runner
# ---------------------------------------------------------------------------

@dataclass
class BackwardErrorReport:
    """One certification trial; the field order matches the CSV schema."""

    seed: int
    kind: str
    g: int
    n: int
    k: int
    placement: str
    norm_P: float
    norm_L: float
    norm_M: float
    norm_dL: float
    threshold_ok: bool
    norm_X: float
    norm_dR: float = math.nan
    norm_dP: float = math.nan
    ratio: float = math.nan
    C_PL: float = math.nan
    bound: float = math.nan
    ratio_le_bound: bool = False
    structure_ok: bool = False
    eig_chordal_max: float = math.nan
    iters: int = 0
    wall_ms: float = 0.0
    error: str | None = None  # not serialized; diagnostic only

    def row(self) -> dict:
        return {name: getattr(self, name) for name in REPORT_COLUMNS}


#: The modes of `run_certification`: "certified" refuses a trial above the
#: certified threshold, "empirical" runs it.
MODES = ("certified", "empirical")

#: Serialized columns, in field order.
REPORT_COLUMNS = [f.name for f in fields(BackwardErrorReport) if f.name != "error"]


def _run_single_trial(
    p,
    pencil,
    tb,
    placement_name,
    norm_dl_target,
    trial_seed,
    seed_label,
    mode,
    compute_eigs,
):
    start = time.perf_counter()
    norm_p = tb.norm_p
    report = BackwardErrorReport(
        seed=seed_label,
        kind=pencil.kind.value,
        g=p.grade,
        n=p.rows,
        k=pencil.k,
        placement=placement_name,
        norm_P=norm_p,
        norm_L=tb.norm_l,
        norm_M=tb.norm_m,
        norm_dL=norm_dl_target,
        threshold_ok=norm_dl_target < tb.threshold,
        norm_X=math.nan,
        C_PL=tb.c_pl,
    )
    try:
        if mode == "certified" and not report.threshold_ok:
            raise ThresholdError(
                "perturbation above the certified threshold",
                value=norm_dl_target,
                bound=tb.threshold,
            )
        pert = random_structured_perturbation(
            pencil.k, pencil.n, pencil.kind, norm_dl_target, trial_seed, field_tag=p.field
        )
        a = pert.perturbed(pencil)
        rec = recover_perturbed(a)
        dp = rec.poly - p
        report.norm_X = rec.norm_x
        report.norm_dR = rec.norm_dr
        report.norm_dP = frob_norm(dp)
        report.ratio = report.norm_dP / norm_p
        report.bound = tb.ratio_bound(pert.norm)
        report.ratio_le_bound = bool(report.ratio <= report.bound)
        report.structure_ok = bool(
            structure_residual(dp, pencil.kind) <= 1e-11 * max(1.0, norm_p)
        )
        report.iters = rec.iterations
        if compute_eigs:
            got = spectra.pencil_eigs(a.l0, a.l1)
            want = spectra.reference_polyeigs(rec.poly)
            report.eig_chordal_max = spectra.compare_spectra(got, want).max_distance
    except StruktError as exc:
        report.error = f"{type(exc).__name__}: {exc}"
    report.wall_ms = (time.perf_counter() - start) * 1000.0
    return report


def run_certification(
    p: MatrixPolynomial,
    kind: StructureKind,
    placement: str,
    pert_norms,
    trials: int,
    seed: int,
    mode: str = "certified",
    compute_eigs: bool = False,
) -> list[BackwardErrorReport]:
    """Run the full pipeline over a grid of perturbation norms and trials.

    ``p`` is scaled to unit Frobenius norm first. Trials run one after
    another and are deterministic per (seed, norm index, trial index);
    per-trial failures are recorded in the report, never raised. A grade
    below 3, a non-finite coefficient, a computed ||P||_F of zero (P = 0, or
    so small that its squares underflow), fewer than one trial, an empty
    ``pert_norms``, a norm outside [0, inf) or a ``mode`` other than
    "certified" and "empirical" is refused with a `StruktError` before any
    trial.
    """
    if mode not in MODES:
        raise StruktError(f"mode must be 'certified' or 'empirical', got {mode!r}")
    if p.grade < 3:
        raise GradeError(f"certification needs grade >= 3 (k >= 1), got {p.grade}")
    polycore.require_finite(p)
    if trials < 1:
        raise StruktError("trials must be >= 1")
    pert_norms = list(pert_norms)
    if not pert_norms:
        raise StruktError("pert_norms must hold at least one perturbation norm")
    if not all(0 <= nrm < math.inf for nrm in pert_norms):
        raise StruktError("perturbation norms must be finite and nonnegative")
    norm_p = frob_norm(p)
    if norm_p == 0.0:
        raise StruktError("cannot scale P to unit norm: its computed Frobenius norm is 0")
    p = p * (1.0 / norm_p)
    pencil = linearize.build_linearization(p, kind, placement)
    tb = theorem_bound(p, pencil)
    return [
        _run_single_trial(
            p,
            pencil,
            tb,
            placement,
            nrm,
            np.random.SeedSequence(entropy=seed, spawn_key=(ni, ti)),
            seed,
            mode,
            compute_eigs,
        )
        for ni, nrm in enumerate(pert_norms)
        for ti in range(trials)
    ]


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def reports_to_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for rep in reports:
            row = rep.row()
            writer.writerow([_format_cell(row[name]) for name in REPORT_COLUMNS])


def _format_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reports_to_json(reports, path) -> None:
    """Strict JSON: non-finite floats (NaN where a trial has no value) become null."""
    rows = [
        {
            name: None if isinstance(value, float) and not math.isfinite(value) else value
            for name, value in rep.row().items()
        }
        for rep in reports
    ]
    with open(path, "w") as fh:
        json.dump(rows, fh, allow_nan=False)
