"""End-to-end certification that structured pencil perturbations map back to
structured polynomial perturbations within explicit bounds.

Pipeline per trial: draw a structured perturbation of the assembled pencil,
rezero its trailing block by a structure-preserving congruence (quadratic
star-Sylvester fixed point), complete the perturbed bidiagonal block to a dual
basis of degree k, reconstruct the perturbed polynomial by the monomial
sandwich, and compare the achieved backward error against the certified
multiplier.
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

@dataclass(frozen=True)
class StructuredPerturbation:
    """A structured pencil perturbation dL of a (2k+1)n block Kronecker pencil.

    Only the pencil is stored; the fixed point cuts its natural-partition
    blocks from it. `from_pencil` admits dL only when it is structured to
    within 1e-12 of its own norm.
    """

    pencil: MatrixPolynomial
    kind: StructureKind
    k: int
    n: int

    def norm(self) -> float:
        return frob_norm(self.pencil)

    @classmethod
    def from_pencil(
        cls, dl: MatrixPolynomial, k: int, n: int, kind: StructureKind
    ) -> "StructuredPerturbation":
        size = (2 * k + 1) * n
        if dl.shape != (size, size) or dl.grade != 1:
            raise ValueError(f"expected a {size} square pencil")
        residual, norm = structure_residual(dl, kind), frob_norm(dl)
        if residual > 1e-12 * norm:
            raise StructureError(
                f"perturbation is not structured (residual {residual:.3e} at norm {norm:.3e})"
            )
        return cls(dl, kind, k, n)


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

def x_norm_bound(k: int, norm_dl: float) -> float:
    """Guaranteed bound 3k||dL|| / (1 - 3k||dL||) on the congruence factor."""
    denom = 1.0 - 3.0 * k * norm_dl
    return 3.0 * k * norm_dl / denom if denom > 0 else math.inf


@dataclass
class CongruenceResult:
    x: np.ndarray
    ltilde: MatrixPolynomial
    dtilde21: MatrixPolynomial
    state: sylvester.FixedPointState
    residual22: float
    norm_dl: float


def congruence_zero_block(
    pencil: BlockKroneckerPencil, pert: StructuredPerturbation
) -> CongruenceResult:
    """Rezero the (2,2) block of the perturbed pencil by a structure-preserving
    congruence [[I, 0], [X, I]] (L + dL) [[I, X^*], [0, I]].

    `quadratic_fixed_point` refuses an inadmissible perturbation with
    `ThresholdError`. No norm threshold is checked here: certified runs refuse
    norms at or above `theorem_bound(...).threshold` before they get here.
    The (2,2) block left by X is refused above max(1e-12, 4e-12*theta).
    """
    k, n = pencil.k, pencil.n
    if (pert.kind, pert.k, pert.n) != (pencil.kind, k, n):
        raise StructureError("perturbation kind or block sizes differ from the pencil's")
    state = sylvester.quadratic_fixed_point(pert, pencil.m0, pencil.m1)
    x = state.x
    size = pencil.size
    top = (k + 1) * n
    g_left = np.eye(size, dtype=np.result_type(x, pencil.l0))
    g_left[top:, :top] = x
    g_right = np.eye(size, dtype=g_left.dtype)
    g_right[:top, top:] = star(x)

    perturbed = pencil.as_polynomial() + pert.pencil
    t0 = g_left @ perturbed.coefficient(0) @ g_right
    t1 = g_left @ perturbed.coefficient(1) @ g_right
    residual22 = pair_norm(t0[top:, top:], t1[top:, top:])
    if residual22 > max(1e-12, 4e-12 * state.theta):
        raise StruktError(
            f"(2,2) block residual {residual22:.3e} above tolerance after congruence"
        )
    t0[top:, top:] = 0.0
    t1[top:, top:] = 0.0
    ltilde = polycore.from_coeff_list([t0, t1], perturbed.field)
    base = minbases.build_Lk(k, n)
    dtilde21 = polycore.from_coeff_list(
        [t0[top:, :top], t1[top:, :top]], perturbed.field
    ) - base
    return CongruenceResult(
        x=x,
        ltilde=ltilde,
        dtilde21=dtilde21,
        state=state,
        residual22=residual22,
        norm_dl=pert.norm(),
    )


@dataclass
class ReconstructionResult:
    poly: MatrixPolynomial
    dual: minbases.DualBasisPair
    norm_dtilde21: float
    norm_dr: float


def reconstruct_perturbed_polynomial(
    ltilde: MatrixPolynomial,
    k: int,
    n: int,
    kind: StructureKind,
) -> ReconstructionResult:
    """Grade 2k+1 polynomial strongly linearized by the rezeroed pencil.

    Completes the perturbed (2,1) block to a dual basis pair and sandwiches
    the (1,1) block with `linearize.recover_from_m`, the completed basis
    taking the place of the monomial row. The completion refuses a (2,1)
    defect at or above `minbases.completion_threshold(k)` with
    `ThresholdError`.
    """
    m11, b21, _, _ = linearize.split_natural_partition(ltilde, k, n)
    pair = minbases.dual_basis_complete(b21, k, n)
    return ReconstructionResult(
        poly=linearize.recover_from_m(m11, pair.N, kind),
        dual=pair,
        norm_dtilde21=frob_norm(b21 - minbases.build_Lk(k, n)),
        norm_dr=frob_norm(pair.correction),
    )


# ---------------------------------------------------------------------------
# Certified bound bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremBound:
    """Admissibility threshold and backward-error multiplier for a (P, L) pair."""

    threshold: float
    c_pl: float

    def ratio_bound(self, norm_dl: float, norm_l: float) -> float:
        return self.c_pl * norm_dl / norm_l


def theorem_bound(p: MatrixPolynomial, pencil: BlockKroneckerPencil) -> TheoremBound:
    k = pencil.k
    norm_m = frob_norm(pencil.m_pencil)
    norm_p = frob_norm(p)
    norm_l = frob_norm(pencil.as_polynomial())
    threshold = (math.pi / 16.0) ** 2 / ((k + 1) ** 2.5 * (1.0 + norm_m))
    c_pl = 68.0 * (k + 1) ** 2.5 * (norm_l / norm_p) * (1.0 + norm_m + norm_m**2)
    return TheoremBound(threshold=threshold, c_pl=c_pl)


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


# Serialized column name -> annotated type name, in field order.
_COLUMN_TYPES = {
    f.name: f.type for f in fields(BackwardErrorReport) if f.name != "error"
}
REPORT_COLUMNS = list(_COLUMN_TYPES)


def _run_single_trial(
    p,
    pencil,
    tb,
    kind,
    placement_name,
    norm_dl_target,
    trial_seed,
    seed_label,
    mode,
    compute_eigs,
):
    start = time.perf_counter()
    norm_p = frob_norm(p)
    norm_l = frob_norm(pencil.as_polynomial())
    norm_m = frob_norm(pencil.m_pencil)
    report = BackwardErrorReport(
        seed=seed_label,
        kind=kind.value,
        g=p.grade,
        n=p.rows,
        k=pencil.k,
        placement=placement_name,
        norm_P=norm_p,
        norm_L=norm_l,
        norm_M=norm_m,
        norm_dL=norm_dl_target,
        threshold_ok=norm_dl_target < tb.threshold,
        norm_X=math.nan,
        C_PL=tb.c_pl,
    )
    try:
        if norm_dl_target == 0.0:
            report.norm_X = 0.0
            report.norm_dR = 0.0
            report.norm_dP = 0.0
            report.ratio = 0.0
            report.bound = 0.0
            report.ratio_le_bound = True
            report.structure_ok = True
            report.iters = 0
            pert = None
        else:
            if mode == "certified" and not report.threshold_ok:
                raise ThresholdError(
                    "perturbation above the certified threshold",
                    value=norm_dl_target,
                    bound=tb.threshold,
                )
            pert = random_structured_perturbation(
                pencil.k, pencil.n, kind, norm_dl_target, trial_seed, field_tag=p.field
            )
            cong = congruence_zero_block(pencil, pert)
            recon = reconstruct_perturbed_polynomial(cong.ltilde, pencil.k, pencil.n, kind)
            dp = recon.poly - p
            report.norm_X = float(np.linalg.norm(cong.x))
            report.norm_dR = recon.norm_dr
            report.norm_dP = frob_norm(dp)
            report.ratio = report.norm_dP / norm_p
            report.bound = tb.ratio_bound(cong.norm_dl, norm_l)
            report.ratio_le_bound = bool(report.ratio <= report.bound)
            report.structure_ok = bool(
                structure_residual(dp, kind) <= 1e-11 * max(1.0, norm_p)
            )
            report.iters = cong.state.iterations
            if compute_eigs:
                lpert = pencil.as_polynomial() + pert.pencil
                got = spectra.pencil_eigs(lpert.coefficient(0), lpert.coefficient(1))
                want = spectra.reference_polyeigs(recon.poly)
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
    below 3, fewer than one trial or a norm outside [0, inf) is refused with
    a `StruktError` before any trial.
    """
    if p.grade < 3:
        raise GradeError(f"certification needs grade >= 3 (k >= 1), got {p.grade}")
    if trials < 1:
        raise StruktError("trials must be >= 1")
    if not all(0 <= nrm < math.inf for nrm in pert_norms):
        raise StruktError("perturbation norms must be finite and nonnegative")
    p = p * (1.0 / frob_norm(p))
    pencil = linearize.build_linearization(p, kind, placement)
    tb = theorem_bound(p, pencil)
    return [
        _run_single_trial(
            p,
            pencil,
            tb,
            kind,
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


def _parse_cell(name: str, text: str):
    type_name = _COLUMN_TYPES[name]
    if type_name == "bool":
        return text == "true"
    if type_name == "int":
        return int(text)
    if type_name == "str":
        return text
    return float(text)


def reports_from_csv(path) -> list[BackwardErrorReport]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [
            BackwardErrorReport(**{k: _parse_cell(k, v) for k, v in row.items()})
            for row in reader
        ]


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


def reports_from_json(path) -> list[BackwardErrorReport]:
    with open(path) as fh:
        return [
            BackwardErrorReport(
                **{name: math.nan if value is None else value for name, value in row.items()}
            )
            for row in json.load(fh)
        ]
