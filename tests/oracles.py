"""Oracles that only the tests read: dense reductions and a-priori bounds of
the star-Sylvester system (the paper's proof objects, checked against the
library's operator, gap and solve), the star-Sylvester operator of a (2,1)
perturbation, the matrix of a linear map probed with unit arrays, the
placement condition, the permuted tridiagonal form, a
minimality test, two fixed Mobius matrices and their product, the finite
eigenvalues and infinite count of a spectrum report, the spectral pairings
tabulated per kind, report rows read back from CSV and JSON, and reference
kernels: the Frobenius norm, polynomial product, structure projection and
dual-row sandwich written out plainly, which the library's kernels must
match bit for bit, and a boolean structure test with an adjustable
tolerance."""

import csv
import json
import math
from dataclasses import fields

import numpy as np

from strukt import minbases, polycore
from strukt.backward import BackwardErrorReport
from strukt.errors import GradeError, ThresholdError
from strukt.linearize import BlockKroneckerPencil
from strukt.polycore import (
    MatrixPolynomial,
    MobiusMatrix,
    StructureKind,
    driver_matrix,
    frob_norm,
    mobius,
    pad_to_grade,
    star_adjoint,
    transpose_poly,
)
from strukt.spectra import SpectrumReport, _normalize_pairs, compare_spectra
from strukt.sylvester import StarSylvesterOperator

MOBIUS_IDENTITY = MobiusMatrix(1, 0, 0, 1)
#: Swap matrix: substituting with it reverses the coefficient order at fixed grade.
MOBIUS_REVERSAL = MobiusMatrix(0, 1, 1, 0)


def compose(a: MobiusMatrix, b: MobiusMatrix) -> MobiusMatrix:
    """The Mobius matrix A B: substituting by it is substituting by A, then B."""
    m = a.array @ b.array
    return MobiusMatrix(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def is_structured(p: MatrixPolynomial, kind, tol: float = 1e-12) -> bool:
    """True when P's structure residual is at most tol * max(1, ||P||_F)."""
    return polycore.structure_residual(p, kind) <= tol * max(1.0, frob_norm(p))


def is_coninvolutory(a: MobiusMatrix, tol: float = 1e-14) -> bool:
    """True when A @ conj(A) equals the identity within tol."""
    arr = a.array
    return bool(np.linalg.norm(arr @ np.conj(arr) - np.eye(2)) <= tol)


def selectors(k: int, n: int):
    """E = [I_k 0] (x) I_n and F = [0 I_k] (x) I_n, read off L_k = -E + l*F."""
    lk = minbases.build_Lk(k, n).coeffs
    return -lk[0], lk[1]


def build_TA_mid(k: int, n: int, kind) -> np.ndarray:
    """Intermediate reduction with one identity factor peeled off."""
    a = driver_matrix(kind)
    e_n, f_n = selectors(k, n)
    e_1, f_1 = selectors(k, 1)
    eye_k = np.eye(k)
    eye_kn = np.eye(k * n)
    top = np.hstack([np.kron(a.b * f_n - a.d * e_n, eye_k), -np.kron(eye_kn, e_1)])
    bot = np.hstack([np.kron(a.a * f_n - a.c * e_n, eye_k), np.kron(eye_kn, f_1)])
    return np.vstack([top, bot])


def reference_reduced(k: int) -> np.ndarray:
    """The all-positive reduced reference matrix every kind is sign/permutation
    equivalent to."""
    e, f = selectors(k, 1)
    eye = np.eye(k)
    return np.vstack(
        [
            np.hstack([np.kron(eye, e), np.kron(e, eye)]),
            np.hstack([np.kron(eye, f), np.kron(f, eye)]),
        ]
    )


def sign_diagonals(k: int):
    """Alternating-sign diagonal pair used in the alternating-kind reduction."""
    s_k = np.diag([(-1.0) ** i for i in range(k)])
    s_k1 = np.diag([(-1.0) ** i for i in range(k + 1)])
    return s_k, s_k1


def delta_lower_bound(k: int, norm_dl: float) -> float:
    """A-priori lower bound on the perturbed minimum singular value gap."""
    if not 0 <= norm_dl < 1.0 / (3.0 * k):
        raise ThresholdError(
            f"perturbation norm {norm_dl:.3e} not below 1/(3k) = {1.0 / (3 * k):.3e}",
            value=norm_dl,
            bound=1.0 / (3.0 * k),
        )
    return (math.pi / (4.0 * k)) * (1.0 - 3.0 * k * norm_dl)


def x_norm_bound(k: int, norm_dl: float) -> float:
    """Guaranteed bound 3k||dL|| / (1 - 3k||dL||) on the congruence factor."""
    denom = 1.0 - 3.0 * k * norm_dl
    return 3.0 * k * norm_dl / denom if denom > 0 else math.inf


def gram_matrix(gram_apply, shape) -> np.ndarray:
    """Matrix of the linear map ``gram_apply`` on arrays of ``shape``, one
    column per unit array, rows and columns in row-major order."""
    size = math.prod(shape)
    cols = [gram_apply(unit.reshape(shape)).reshape(size) for unit in np.eye(size)]
    return np.stack(cols, axis=1)


def operator_for(da21: np.ndarray, db21: np.ndarray, kind) -> StarSylvesterOperator:
    """The star-Sylvester operator of the perturbed (2,1) block
    L_k (x) I_n + (dA21 + l*dB21), whose kn x (k+1)n shape fixes k and n."""
    kn, width = da21.shape
    n = width - kn
    a21 = minbases.build_Lk(kn // n, n).coeffs + np.stack([da21, db21])
    return StarSylvesterOperator(a21, kind)


def iterate_norm_cap(state) -> float:
    """Cap theta/delta * (1 + kappa) on the norm of every fixed-point iterate,
    kappa = kappa1 (1 + kappa)^2 the smaller root, kappa1 = theta*omega/delta^2."""
    kappa1 = state.kappa1
    kappa = 0.0
    if kappa1 > 0:
        kappa = 2.0 * kappa1 / (1.0 - 2.0 * kappa1 + math.sqrt(1.0 - 4.0 * kappa1))
    return state.theta / state.delta * (1.0 + kappa)


def _blocks(mat: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    return mat[(i - 1) * n:i * n, (j - 1) * n:j * n]


def condition_residuals(
    m: MatrixPolynomial, p: MatrixPolynomial, kind: StructureKind
) -> np.ndarray:
    """Per-coefficient residual of the kind's block placement condition."""
    g = p.grade
    if g % 2 == 0:
        raise GradeError("odd grade required")
    k = (g - 1) // 2
    n = p.rows
    if m.shape != ((k + 1) * n, (k + 1) * n) or m.grade != 1:
        raise ValueError("pencil size does not match the polynomial grade")
    family = kind.condition_family
    m0, m1 = m.coefficient(0), m.coefficient(1)
    res = np.zeros(g + 1)
    for ell in range(g + 1):
        acc = np.zeros((n, n), dtype=m.coeffs.dtype)
        for i in range(1, k + 2):
            for j in range(1, k + 2):
                if family == "diff":
                    w1 = 1.0 if i - j == ell - k - 1 else 0.0
                    w0 = 1.0 if i - j == ell - k else 0.0
                else:
                    sgn = (-1) ** (k - i + 1) if family == "alt" else 1.0
                    w1 = sgn if i + j == g + 2 - ell else 0.0
                    w0 = sgn if i + j == g + 1 - ell else 0.0
                if w1:
                    acc += w1 * _blocks(m1, n, i, j)
                if w0:
                    acc += w0 * _blocks(m0, n, i, j)
        res[ell] = np.linalg.norm(acc - p.coefficient(ell))
    return res


def check_placement(
    m: MatrixPolynomial, p: MatrixPolynomial, kind: StructureKind, tol: float = 1e-12
) -> bool:
    res = condition_residuals(m, p, kind)
    return bool(np.all(res <= tol * max(1.0, frob_norm(p))))


def permutation_to_tridiagonal(k: int, n: int, kind: StructureKind) -> np.ndarray:
    """Odd-even block interleave Pi with Pi L Pi^T block-(anti)tridiagonal.

    Odd block positions take the (1,1)-block rows in order; even positions take
    the bidiagonal rows, reversed for the palindromic family so the result is
    antitridiagonal.
    """
    if k < 1:
        raise ValueError("permutation requires k >= 1")
    target = []
    for pos in range(1, 2 * k + 2):
        if pos % 2 == 1:
            target.append((pos + 1) // 2)
        else:
            j = pos // 2
            target.append(2 * k + 2 - j if kind.condition_family == "diff" else k + 1 + j)
    size = (2 * k + 1) * n
    perm = np.zeros((size, size))
    for pos, src in enumerate(target, start=1):
        perm[(pos - 1) * n:pos * n, (src - 1) * n:src * n] = np.eye(n)
    return perm


def tridiagonal_form(pencil: BlockKroneckerPencil):
    """Apply the interleave congruence; returns (Pi, permuted pencil)."""
    perm = permutation_to_tridiagonal(pencil.k, pencil.n, pencil.kind)
    l0 = perm @ pencil.l0 @ perm.T
    l1 = perm @ pencil.l1 @ perm.T
    return perm, polycore.from_coeff_list([l0, l1])


def is_minimal_basis(Q: MatrixPolynomial, tol: float = 1e-10) -> bool:
    """Deterministic minimality test for constant-row-degree candidates.

    Checks that the leading coefficient has full row rank and that Q keeps
    full row rank on a fixed sweep of sample points: the origin, two circles
    of radius 1 and 3, and the generic point 0.37 + 1.91i, which lies on
    neither circle.  A rank drop off the sweep goes unseen, so a "true"
    answer holds for generic inputs but is not a certificate.
    """
    m, ncols = Q.rows, Q.cols
    if m >= ncols:
        raise ValueError("minimal basis candidates must have more columns than rows")
    deg = Q.degree
    if deg < 0:
        return False

    def full_row_rank(mat: np.ndarray) -> bool:
        s = np.linalg.svd(mat, compute_uv=False)
        return s[0] > 0 and s[m - 1] > tol * s[0]

    if not full_row_rank(Q.coeffs[deg]):
        return False
    nsweep = 2 * deg + 5
    points = [0j]
    points += [
        r * np.exp(2j * np.pi * t / nsweep)
        for r in (1.0, 3.0)
        for t in range(nsweep)
    ]
    points.append(0.37 + 1.91j)
    return all(full_row_rank(polycore.evaluate(Q, pt)) for pt in points)


# ---------------------------------------------------------------------------
# Reference kernels
# ---------------------------------------------------------------------------

@np.errstate(over="ignore")
def reference_norm(a: np.ndarray) -> float:
    """`polycore.array_norm` as np.linalg.norm under np.errstate."""
    nrm = float(np.linalg.norm(a))
    if nrm == math.inf:
        scale = math.ldexp(1.0, -math.frexp(float(np.max(np.abs(a))))[1])
        nrm = float(np.linalg.norm(a * scale)) / scale
    return nrm


def reference_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`polycore._coeff_product` with one 2-D product per pair of coefficients."""
    dtype = np.result_type(a.dtype, b.dtype)
    out = np.zeros((len(a) + len(b) - 1, a.shape[1], b.shape[2]), dtype=dtype)
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] += a[i] @ b[j]
    return out


def reference_poly_matmul(p: MatrixPolynomial, q: MatrixPolynomial) -> MatrixPolynomial:
    """`polycore.poly_matmul` by `reference_product`."""
    if p.cols != q.rows:
        raise ValueError(f"size mismatch {p.shape} x {q.shape}")
    return MatrixPolynomial(reference_product(p.coeffs, q.coeffs))


def reference_structure_project(p: MatrixPolynomial, kind) -> MatrixPolynomial:
    """`polycore.structure_project` in polynomial arithmetic."""
    return (p + star_adjoint(mobius(p, driver_matrix(kind)))) * 0.5


def reference_recover_from_m(
    m: MatrixPolynomial, row: MatrixPolynomial, kind: StructureKind
) -> MatrixPolynomial:
    """`linearize.recover_from_m` on transposed copies and reference products."""
    col = transpose_poly(row)
    left = star_adjoint(mobius(col, kind.mobius))
    raw = reference_poly_matmul(reference_poly_matmul(left, pad_to_grade(m, 1)), col)
    return kind.recovery_sign(row.grade) * raw


def finite_values(spec: SpectrumReport) -> np.ndarray:
    """The finite eigenvalues alpha/beta of a spectrum report, in its order."""
    mask = ~spec.infinite_mask
    return spec.alpha[mask] / spec.beta[mask]


def n_infinite(spec: SpectrumReport) -> int:
    """How many eigenvalues of a spectrum report are infinite."""
    return int(np.count_nonzero(spec.infinite_mask))


#: The spectral pairing of each kind as a hand-written table on projective
#: pairs (alpha, beta), from Mackey, Mackey, Mehl and Mehrmann, "Good
#: vibrations from good linearizations", SIMAX 28(4), 2006.
INVOLUTIONS = {
    StructureKind.palindromic: lambda a, b: (np.conj(b), np.conj(a)),
    StructureKind.anti_palindromic: lambda a, b: (np.conj(b), np.conj(a)),
    StructureKind.even: lambda a, b: (-np.conj(a), np.conj(b)),
    StructureKind.odd: lambda a, b: (-np.conj(a), np.conj(b)),
    StructureKind.symmetric: lambda a, b: (np.conj(a), np.conj(b)),
    StructureKind.skew_symmetric: lambda a, b: (np.conj(a), np.conj(b)),
}


def symmetry_by_table(spec: SpectrumReport, kind: StructureKind) -> float:
    """`spectra.symmetry_check` scored against the `INVOLUTIONS` table."""
    image = _normalize_pairs(*INVOLUTIONS[kind](spec.alpha, spec.beta))
    return compare_spectra(spec, image).max_distance


# ---------------------------------------------------------------------------
# Report rows read back
# ---------------------------------------------------------------------------

#: Serialized column name -> annotated type name, in field order.
_COLUMN_TYPES = {f.name: f.type for f in fields(BackwardErrorReport) if f.name != "error"}


def _parse_cell(name: str, text: str):
    type_name = _COLUMN_TYPES[name]
    if type_name == "bool":
        return text == "true"
    if type_name == "int":
        return int(text)
    if type_name == "str":
        return text
    return float(text)


def reports_from_csv(path) -> list:
    """The `BackwardErrorReport` rows of a `backward.reports_to_csv` file."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [
            BackwardErrorReport(**{k: _parse_cell(k, v) for k, v in row.items()})
            for row in reader
        ]


def reports_from_json(path) -> list:
    """The `BackwardErrorReport` rows of a `backward.reports_to_json` file,
    null read back as NaN."""
    with open(path) as fh:
        return [
            BackwardErrorReport(
                **{name: math.nan if value is None else value for name, value in row.items()}
            )
            for row in json.load(fh)
        ]
