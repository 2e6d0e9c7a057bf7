"""Matrix polynomials over the real or complex field.

The central object is a dense coefficient stack P(l) = sum_i P_i * l**i with
an explicit grade; the grade may exceed the degree, and trailing zero
coefficients are meaningful (reversal and Mobius substitution depend on the
grade, the Frobenius norm does not).  On top of that this module provides
Horner evaluation, grade-aware reversal, Mobius transformations driven by a
nonsingular 2x2 matrix, and the six classical structure classes (symmetric,
skew-symmetric, palindromic, anti-palindromic, even, odd) together with a
structure test, a structure projector, and a seeded random sampler. `pcg`
is the matrix-free conjugate-gradient solve that both minimum-norm solves
of the certification pipeline share.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GradeError, StructureError, StruktError

REAL = "real"
COMPLEX = "complex"

_FIELD_DTYPES = {REAL: np.float64, COMPLEX: np.complex128}

DEFAULT_STRUCTURE_TOL = 1e-12


# ---------------------------------------------------------------------------
# Mobius matrices and structure kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MobiusMatrix:
    """Nonsingular 2x2 matrix [[a, b], [c, d]] driving a Mobius substitution."""

    a: complex
    b: complex
    c: complex
    d: complex

    @property
    def array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def is_coninvolutory(self, tol: float = 1e-14) -> bool:
        """True when A @ conj(A) equals the identity within tol."""
        a = self.array
        return bool(np.linalg.norm(a @ np.conj(a) - np.eye(2)) <= tol)

    def __matmul__(self, other: "MobiusMatrix") -> "MobiusMatrix":
        m = self.array @ other.array
        return MobiusMatrix(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


MOBIUS_IDENTITY = MobiusMatrix(1, 0, 0, 1)
#: Swap matrix: substituting with it reverses the coefficient order at fixed grade.
MOBIUS_REVERSAL = MobiusMatrix(0, 1, 1, 0)


class StructureKind(str, Enum):
    """The six classical structure classes, each tied to a fixed 2x2 matrix.

    A square polynomial P has the structure when the Mobius substitution by
    the kind's matrix equals the coefficient-wise (conjugate) transpose of P.
    """

    symmetric = "symmetric"
    skew_symmetric = "skew-symmetric"
    palindromic = "palindromic"
    anti_palindromic = "anti-palindromic"
    even = "even"
    odd = "odd"

    @property
    def mobius(self) -> MobiusMatrix:
        return _STRUCTURE_MOBIUS[self]

    @property
    def condition_family(self) -> str:
        """Which block-coefficient condition the kind obeys in linearizations.

        "sum" sums blocks along antidiagonals i+j, "diff" along diagonals i-j,
        "alt" along antidiagonals with alternating row signs.
        """
        return _CONDITION_FAMILY[self]

    @property
    def flips_sign(self) -> bool:
        """True for the kinds whose substitution matrix is the negated partner."""
        return self in (
            StructureKind.skew_symmetric,
            StructureKind.anti_palindromic,
            StructureKind.odd,
        )

    def recovery_sign(self, k: int) -> int:
        """Sign relating a built pencil's recovered polynomial to the original."""
        return -1 if (self.flips_sign and k % 2 == 1) else 1

    @property
    def sigma(self) -> int:
        """Canonical sign of the (anti)tridiagonal permuted form for this kind."""
        return -1 if self.flips_sign else 1


_STRUCTURE_MOBIUS = {
    StructureKind.symmetric: MobiusMatrix(1, 0, 0, 1),
    StructureKind.skew_symmetric: MobiusMatrix(-1, 0, 0, -1),
    StructureKind.palindromic: MobiusMatrix(0, 1, 1, 0),
    StructureKind.anti_palindromic: MobiusMatrix(0, -1, -1, 0),
    StructureKind.even: MobiusMatrix(-1, 0, 0, 1),
    StructureKind.odd: MobiusMatrix(1, 0, 0, -1),
}

_CONDITION_FAMILY = {
    StructureKind.symmetric: "sum",
    StructureKind.skew_symmetric: "sum",
    StructureKind.palindromic: "diff",
    StructureKind.anti_palindromic: "diff",
    StructureKind.even: "alt",
    StructureKind.odd: "alt",
}


def driver_matrix(kind) -> MobiusMatrix:
    """Accept a StructureKind or a bare MobiusMatrix wherever either works."""
    return kind.mobius if isinstance(kind, StructureKind) else kind


# ---------------------------------------------------------------------------
# Matrix polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixPolynomial:
    """Dense matrix polynomial with an explicit grade.

    ``coeffs`` has shape (grade + 1, rows, cols) in ascending powers.  The
    coefficient stack is copied and frozen on construction, so instances are
    safe to share between workers.
    """

    coeffs: np.ndarray
    field: str = REAL

    def __post_init__(self):
        if self.field not in _FIELD_DTYPES:
            raise ValueError(f"unknown field tag {self.field!r}")
        arr = np.asarray(self.coeffs, dtype=_FIELD_DTYPES[self.field])
        if arr.ndim != 3:
            raise ValueError("coeffs must have shape (grade+1, rows, cols)")
        if arr.shape[0] < 1:
            raise ValueError("need at least the constant coefficient")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def grade(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def rows(self) -> int:
        return self.coeffs.shape[1]

    @property
    def cols(self) -> int:
        return self.coeffs.shape[2]

    @property
    def shape(self):
        return self.coeffs.shape[1], self.coeffs.shape[2]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def degree(self) -> int:
        """Largest power with a nonzero coefficient; -1 for the zero polynomial."""
        for i in range(self.grade, -1, -1):
            if np.any(self.coeffs[i]):
                return i
        return -1

    def coefficient(self, i: int) -> np.ndarray:
        return self.coeffs[i]

    # Small arithmetic helpers used throughout the pipelines.  Operands of
    # different grades are padded to the larger grade first.
    def __add__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        g = max(self.grade, other.grade)
        a, b = pad_to_grade(self, g), pad_to_grade(other, g)
        return MatrixPolynomial(a.coeffs + b.coeffs, _join_fields(a, b))

    def __sub__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        g = max(self.grade, other.grade)
        a, b = pad_to_grade(self, g), pad_to_grade(other, g)
        return MatrixPolynomial(a.coeffs - b.coeffs, _join_fields(a, b))

    def __neg__(self):
        return MatrixPolynomial(-self.coeffs, self.field)

    def __mul__(self, scalar):
        if isinstance(scalar, MatrixPolynomial):
            return NotImplemented
        out = self.coeffs * scalar
        field = COMPLEX if np.iscomplexobj(out) else self.field
        return MatrixPolynomial(out, field)

    __rmul__ = __mul__


def _join_fields(a: MatrixPolynomial, b: MatrixPolynomial) -> str:
    return COMPLEX if COMPLEX in (a.field, b.field) else REAL


def zeros(rows: int, cols: int, grade: int, field: str = REAL) -> MatrixPolynomial:
    return MatrixPolynomial(np.zeros((grade + 1, rows, cols)), field)


def from_coeff_list(mats, field: str | None = None) -> MatrixPolynomial:
    """Stack a list of equally sized coefficient matrices, ascending powers."""
    arr = np.stack([np.asarray(m) for m in mats])
    if field is None:
        field = COMPLEX if np.iscomplexobj(arr) else REAL
    return MatrixPolynomial(arr, field)


def pad_to_grade(p: MatrixPolynomial, grade: int) -> MatrixPolynomial:
    """Append zero coefficients up to the requested grade."""
    if grade < p.grade:
        raise GradeError(f"cannot pad grade {p.grade} down to {grade}")
    if grade == p.grade:
        return p
    extra = np.zeros((grade - p.grade, p.rows, p.cols), dtype=p.coeffs.dtype)
    return MatrixPolynomial(np.concatenate([p.coeffs, extra]), p.field)


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

@np.errstate(over="ignore")
def _norm(a: np.ndarray) -> float:
    """Frobenius norm of an array whose squares may overflow.

    Only when the plain norm is inf is it recomputed on the entries scaled by
    a power of two, so every finite plain norm is returned as it is.
    """
    nrm = float(np.linalg.norm(a))
    if nrm == math.inf:
        scale = math.ldexp(1.0, -math.frexp(float(np.max(np.abs(a))))[1])
        nrm = float(np.linalg.norm(a * scale)) / scale
    return nrm


def frob_norm(p: MatrixPolynomial) -> float:
    """Frobenius norm sqrt(sum_i ||P_i||_F^2); padding-invariant by design."""
    return _norm(p.coeffs)


def pair_norm(c: np.ndarray, d: np.ndarray) -> float:
    """Frobenius norm of a pair of matrices of possibly different sizes."""
    return math.hypot(_norm(c), _norm(d))


# ---------------------------------------------------------------------------
# Matrix-free minimum-norm solves
# ---------------------------------------------------------------------------

def pcg(gram_apply, precondition, c: np.ndarray):
    """Solve G w = c by preconditioned conjugate gradients; return (w, iterations).

    G is Hermitian positive definite and given only through ``gram_apply``;
    ``precondition`` applies an approximation of G^{-1}. ``c`` is an ndarray
    of any shape. Inner products are Re vdot, so the complex field works. A
    zero ``c`` returns exact zeros after no iteration. The run stops once the
    recurred residual is at most 1e-14 ||c||_F, or after 100 iterations; the
    caller checks the true residual of what it builds from w.
    """
    w = np.zeros_like(c)
    norm_c = np.linalg.norm(c)
    if norm_c == 0.0:
        return w, 0
    r = c
    p = z = precondition(r)
    rz = np.vdot(r, z).real
    for it in range(1, 101):
        q = gram_apply(p)
        alpha = rz / np.vdot(p, q).real
        w = w + alpha * p
        r = r - alpha * q
        if np.linalg.norm(r) <= 1e-14 * norm_c:
            break
        z = precondition(r)
        rz, rz_prev = np.vdot(r, z).real, rz
        p = z + (rz / rz_prev) * p
    return w, it


# ---------------------------------------------------------------------------
# Evaluation, reversal, adjoints, products
# ---------------------------------------------------------------------------

def evaluate(p: MatrixPolynomial, lam) -> np.ndarray:
    """Evaluate P at a scalar point by Horner's scheme."""
    dtype = np.result_type(p.coeffs.dtype, np.asarray(lam).dtype)
    val = np.array(p.coeffs[-1], dtype=dtype)
    for i in range(p.grade - 1, -1, -1):
        val = val * lam + p.coeffs[i]
    return val


def reversal(p: MatrixPolynomial, grade: int | None = None) -> MatrixPolynomial:
    """Reverse the coefficient order after padding to the requested grade."""
    g = p.grade if grade is None else grade
    if g < p.degree:
        raise GradeError(f"reversal grade {g} below degree {p.degree}")
    padded = pad_to_grade(p, g)
    return MatrixPolynomial(padded.coeffs[::-1], p.field)


def transpose_poly(p: MatrixPolynomial) -> MatrixPolynomial:
    """Coefficient-wise plain transpose (no conjugation)."""
    return MatrixPolynomial(np.swapaxes(p.coeffs, 1, 2), p.field)


def star(a: np.ndarray) -> np.ndarray:
    """Transpose of a real matrix, conjugate transpose of a complex one."""
    return np.conj(a.T) if np.iscomplexobj(a) else a.T


def star_adjoint(p: MatrixPolynomial) -> MatrixPolynomial:
    """Coefficient-wise transpose (real field) or conjugate transpose (complex)."""
    out = np.swapaxes(p.coeffs, 1, 2)
    if p.field == COMPLEX:
        out = np.conj(out)
    return MatrixPolynomial(out, p.field)


def poly_matmul(p: MatrixPolynomial, q: MatrixPolynomial) -> MatrixPolynomial:
    """Product polynomial with grade equal to the sum of the factor grades."""
    if p.cols != q.rows:
        raise ValueError(f"size mismatch {p.shape} x {q.shape}")
    g = p.grade + q.grade
    dtype = np.result_type(p.coeffs.dtype, q.coeffs.dtype)
    out = np.zeros((g + 1, p.rows, q.cols), dtype=dtype)
    for i in range(p.grade + 1):
        for j in range(q.grade + 1):
            out[i + j] += p.coeffs[i] @ q.coeffs[j]
    field = COMPLEX if np.iscomplexobj(out) else REAL
    return MatrixPolynomial(out, field)


# ---------------------------------------------------------------------------
# Mobius transformations
# ---------------------------------------------------------------------------

def _binom_poly(x, y, m: int) -> np.ndarray:
    # ascending coefficients of (x*l + y)**m
    return np.array([math.comb(m, r) * x**r * y ** (m - r) for r in range(m + 1)])


def mobius_weights(a: MobiusMatrix, grade: int) -> np.ndarray:
    """Weight table W with W[i, j] = coefficient of l**j in (al+b)^i (cl+d)^(g-i).

    The substituted polynomial's j-th coefficient is sum_i W[i, j] * P_i.  For
    the six structure matrices the entries are exact signed integers.
    """
    rows = []
    for i in range(grade + 1):
        rows.append(np.convolve(_binom_poly(a.a, a.b, i), _binom_poly(a.c, a.d, grade - i)))
    return np.vstack(rows)


def mobius(p: MatrixPolynomial, a: MobiusMatrix) -> MatrixPolynomial:
    """Substitution P(l) -> sum_i P_i (al+b)^i (cl+d)^(g-i) at P's grade."""
    scale = max(abs(a.a), abs(a.b), abs(a.c), abs(a.d), 1.0)
    if abs(a.det) <= 1e-14 * scale * scale:
        raise StruktError("Mobius matrix is singular")
    w = mobius_weights(a, p.grade)
    out = np.einsum("ij,irc->jrc", w, p.coeffs)
    field = COMPLEX if np.iscomplexobj(out) else p.field
    return MatrixPolynomial(out, field)


# ---------------------------------------------------------------------------
# Structure test, projection, random sampling
# ---------------------------------------------------------------------------

def structure_residual(p: MatrixPolynomial, kind) -> float:
    """Frobenius norm of the defect between the substituted and adjoint forms.

    ``kind`` may be a StructureKind or any coninvolutory MobiusMatrix.
    """
    if not p.is_square:
        raise StructureError("structure checks require a square polynomial")
    return frob_norm(mobius(p, driver_matrix(kind)) - star_adjoint(p))


def is_structured(
    p: MatrixPolynomial, kind, tol: float = DEFAULT_STRUCTURE_TOL
) -> bool:
    """Structure test with tolerance relative to max(1, ||P||_F)."""
    return structure_residual(p, kind) <= tol * max(1.0, frob_norm(p))


def structure_project(p: MatrixPolynomial, kind) -> MatrixPolynomial:
    """Average P with its substituted adjoint; idempotent, fixes structured inputs."""
    if not p.is_square:
        raise StructureError("structure projection requires a square polynomial")
    return (p + star_adjoint(mobius(p, driver_matrix(kind)))) * 0.5


def random_structured(
    n: int,
    g: int,
    kind: StructureKind,
    target_norm: float = 1.0,
    seed: int | np.random.SeedSequence = 0,
    field: str = REAL,
) -> MatrixPolynomial:
    """Random structured polynomial with exactly the requested Frobenius norm.

    Deterministic per seed: coefficients are i.i.d. standard normal draws from
    a counter-based generator, projected onto the structure class and rescaled.
    """
    if target_norm <= 0:
        raise ValueError("target_norm must be positive")
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(8):
        raw = rng.standard_normal((g + 1, n, n))
        if field == COMPLEX:
            raw = raw + 1j * rng.standard_normal((g + 1, n, n))
        proj = structure_project(MatrixPolynomial(raw, field), kind)
        nrm = frob_norm(proj)
        if nrm > 1e-8:
            return proj * (target_norm / nrm)
    raise StruktError("structure projection annihilated every sample")


# ---------------------------------------------------------------------------
# JSON file format
# ---------------------------------------------------------------------------

def _encode_matrix(m: np.ndarray, field: str):
    if field == COMPLEX:
        return [[[float(v.real), float(v.imag)] for v in row] for row in m]
    return [[float(v) for v in row] for row in m]


def _decode_matrix(rows, field: str) -> np.ndarray:
    if field == COMPLEX:
        return np.array([[complex(v[0], v[1]) for v in row] for row in rows])
    return np.array(rows, dtype=np.float64)


def to_json_dict(p: MatrixPolynomial) -> dict:
    return {
        "rows": p.rows,
        "cols": p.cols,
        "grade": p.grade,
        "field": p.field,
        "coeffs": [_encode_matrix(c, p.field) for c in p.coeffs],
    }


def require_keys(doc, keys, what: str) -> dict:
    """``doc`` itself, once it is known to be a JSON object holding ``keys``."""
    if not isinstance(doc, dict):
        raise StruktError(f"{what} must be a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise StruktError(f"{what} lacks the keys {missing}")
    return doc


def require_ints(doc: dict, keys, what: str) -> None:
    """Refuse ``doc`` unless each of ``keys`` holds a JSON integer (not a bool)."""
    bad = [key for key in keys if isinstance(doc[key], bool) or not isinstance(doc[key], int)]
    if bad:
        raise StruktError(f"{what} keys {bad} must be integers")


def from_json_dict(doc: dict) -> MatrixPolynomial:
    require_keys(doc, ("rows", "cols", "grade", "field", "coeffs"), "polynomial record")
    require_ints(doc, ("rows", "cols", "grade"), "polynomial record")
    field = doc["field"]
    if field not in _FIELD_DTYPES:
        raise StruktError(f"unknown field tag {field!r}")
    coeffs = [_decode_matrix(c, field) for c in doc["coeffs"]]
    if len(coeffs) != doc["grade"] + 1:
        raise StruktError("coefficient count does not match the declared grade")
    p = from_coeff_list(coeffs, field)
    if p.shape != (doc["rows"], doc["cols"]):
        raise StruktError("coefficient shapes do not match the declared size")
    return p


def save_polynomial(p: MatrixPolynomial, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(p), fh)


def load_polynomial(path) -> MatrixPolynomial:
    with open(path) as fh:
        return from_json_dict(json.load(fh))
