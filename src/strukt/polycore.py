"""Matrix polynomials over the real or complex field.

The central object is a dense coefficient stack P(l) = sum_i P_i * l**i with
an explicit grade; its field is its dtype, complex128 or float64. The grade
may exceed the degree, and trailing zero coefficients are meaningful
(reversal and Mobius substitution depend on the grade, the Frobenius norm
does not).  On top of that this module provides
Horner evaluation, grade-aware reversal, Mobius transformations driven by a
nonsingular 2x2 matrix, and the six classical structure classes (symmetric,
skew-symmetric, palindromic, anti-palindromic, even, odd) together with a
structure gate, a structure projector, and a seeded random sampler.
`min_norm_solve` is the gated matrix-free solve that both minimum-norm solves
of the certification pipeline call.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GradeError, NumericalError, StructureError, StruktError

REAL = "real"
COMPLEX = "complex"


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


def parse_kind(name) -> StructureKind:
    """The StructureKind named ``name``; any other value, of any type, is
    refused with `StruktError` naming the six kinds."""
    try:
        return StructureKind(name)
    except ValueError:
        raise StruktError(
            f"unknown structure kind {name!r}; expected one of {[k.value for k in StructureKind]}"
        ) from None


# ---------------------------------------------------------------------------
# Matrix polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MatrixPolynomial:
    """Dense matrix polynomial with an explicit grade.

    ``coeffs`` has shape (grade + 1, rows, cols) in ascending powers.  The
    coefficient stack is copied in row-major order, to complex128 when it is
    complex and to float64 otherwise, and frozen, so instances are safe to
    share between workers.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs)
        if arr.ndim != 3:
            raise ValueError("coeffs must have shape (grade+1, rows, cols)")
        if arr.shape[0] < 1:
            raise ValueError("need at least the constant coefficient")
        arr = arr.astype(np.complex128 if arr.dtype.kind == "c" else np.float64, order="C")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def field(self) -> str:
        """`COMPLEX` for a complex128 coefficient stack, `REAL` for float64."""
        return COMPLEX if self.coeffs.dtype.kind == "c" else REAL

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
        return MatrixPolynomial(a.coeffs + b.coeffs)

    def __sub__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        g = max(self.grade, other.grade)
        a, b = pad_to_grade(self, g), pad_to_grade(other, g)
        return MatrixPolynomial(a.coeffs - b.coeffs)

    def __neg__(self):
        return MatrixPolynomial(-self.coeffs)

    def __mul__(self, scalar):
        if isinstance(scalar, MatrixPolynomial):
            return NotImplemented
        return MatrixPolynomial(self.coeffs * scalar)

    __rmul__ = __mul__


def zeros(rows: int, cols: int, grade: int) -> MatrixPolynomial:
    return MatrixPolynomial(np.zeros((grade + 1, rows, cols)))


def from_coeff_list(mats) -> MatrixPolynomial:
    """Stack a list of equally sized coefficient matrices, ascending powers."""
    return MatrixPolynomial(np.stack(mats))


def pad_to_grade(p: MatrixPolynomial, grade: int) -> MatrixPolynomial:
    """Append zero coefficients up to the requested grade."""
    if grade < p.grade:
        raise GradeError(f"cannot pad grade {p.grade} down to {grade}")
    if grade == p.grade:
        return p
    extra = np.zeros((grade - p.grade, p.rows, p.cols), dtype=p.coeffs.dtype)
    return MatrixPolynomial(np.concatenate([p.coeffs, extra]))


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def _plain_norm(a: np.ndarray) -> float:
    # The dot products of np.linalg.norm, bit for bit, on the same order="K"
    # ravel and, like it, in float64 for an integer or bool array. np.vdot
    # overflows to inf without the warning that np.dot and @ raise, and the
    # real and imaginary sums add as Python floats, which do not warn either.
    x = np.asarray(a).ravel(order="K")
    if x.dtype.kind == "c":
        return math.sqrt(float(np.vdot(x.real, x.real)) + float(np.vdot(x.imag, x.imag)))
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    return math.sqrt(float(np.vdot(x, x)))


def array_norm(a: np.ndarray) -> float:
    """Frobenius norm of an array whose squares may overflow.

    Only when the plain norm is inf is it recomputed on the entries scaled by
    a power of two, so every finite plain norm is returned as it is.
    """
    nrm = _plain_norm(a)
    if nrm == math.inf:
        with np.errstate(over="ignore"):  # |z| of a complex entry may overflow
            scale = math.ldexp(1.0, -math.frexp(float(np.max(np.abs(a))))[1])
        nrm = _plain_norm(a * scale) / scale
    return nrm


def frob_norm(p: MatrixPolynomial) -> float:
    """Frobenius norm sqrt(sum_i ||P_i||_F^2); padding-invariant by design."""
    return array_norm(p.coeffs)


def pair_norm(c: np.ndarray, d: np.ndarray) -> float:
    """Frobenius norm of a pair of matrices of possibly different sizes."""
    return math.hypot(array_norm(c), array_norm(d))


# ---------------------------------------------------------------------------
# Matrix-free minimum-norm solves
# ---------------------------------------------------------------------------

def pcg(gram_apply, precondition, c: np.ndarray, w: np.ndarray | None = None):
    """Solve G w = c by preconditioned conjugate gradients; return (w, iterations).

    G is Hermitian positive definite and given only through ``gram_apply``;
    ``precondition`` applies an approximation of G^{-1}. ``c`` is an ndarray
    of any shape, and ``w``, if given, the start: its true residual costs one
    ``gram_apply``. Inner products are Re vdot, so the complex field works. A
    zero ``c`` returns exact zeros after no iteration, and a start whose true
    residual is at most 1e-14 ||c||_F is returned after no iteration.
    Otherwise the run stops once the recurred residual is at most
    1e-14 ||c||_F, or after 100 iterations; the caller checks the true
    residual of what it builds from w.
    """
    norm_c = array_norm(c)
    if norm_c == 0.0:
        return np.zeros_like(c), 0
    if w is None:
        w, r = np.zeros_like(c), c
    else:
        r = c - gram_apply(w)
        if array_norm(r) <= 1e-14 * norm_c:
            return w, 0
    p = z = precondition(r)
    rz = np.vdot(r, z).real
    for it in range(1, 101):
        q = gram_apply(p)
        alpha = rz / np.vdot(p, q).real
        w = w + alpha * p
        r = r - alpha * q
        if array_norm(r) <= 1e-14 * norm_c:
            break
        z = precondition(r)
        rz, rz_prev = np.vdot(r, z).real, rz
        p = z + (rz / rz_prev) * p
    return w, it


def kron_precondition(pinv: np.ndarray, n: int, r: np.ndarray) -> np.ndarray:
    """``pinv`` applied to the n^2 channels of an (e, p*n, q*n) stack: channel
    (i, j) is the (e, p, q) array of entry (i, j) of each n x n block."""
    e, pn, qn = r.shape
    p, q = pn // n, qn // n
    channels = r.reshape(e, p, n, q, n).transpose(0, 1, 3, 2, 4).reshape(e * p * q, n * n)
    out = (pinv @ channels).reshape(e, p, q, n, n)
    return out.transpose(0, 1, 3, 2, 4).reshape(r.shape)


def min_norm_solve(apply, adjoint, gram, pinv: np.ndarray, n: int, c: np.ndarray, w=None):
    """Minimum Frobenius norm x with apply(x) = c; return (x, w, iterations).

    ``apply`` is a wide linear map A, never formed, ``adjoint`` its A^* and
    ``gram`` applies A A^*. `pcg` solves A A^* w = c, from the start ``w`` if
    given, and x = A^* w: any w gives an x in the range of A^*, so x is the
    minimum-norm solution. At zero perturbation A A^* is a permutation of
    G (x) I_{n^2}, G the n = 1 Gram matrix on an (e, p*n, q*n) ``c``, so
    ``pinv`` = G^{-1} preconditions by `kron_precondition`. Raises
    `NumericalError` unless ||apply(x) - c||_F <= 1e-12 max(||c||_F, 1e-300).
    """
    w, iterations = pcg(gram, lambda r: kron_precondition(pinv, n, r), c, w)
    x = adjoint(w)
    resid = array_norm(apply(x) - c)
    if not resid <= 1e-12 * max(array_norm(c), 1e-300):
        raise NumericalError(f"minimum-norm solve residual {resid:.3e} above 1e-12 relative")
    return x, w, iterations


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
    return MatrixPolynomial(padded.coeffs[::-1])


def transpose_poly(p: MatrixPolynomial) -> MatrixPolynomial:
    """Coefficient-wise plain transpose (no conjugation)."""
    return MatrixPolynomial(np.swapaxes(p.coeffs, 1, 2))


def star(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes of a real array, conjugate transpose of
    a complex one."""
    t = a.swapaxes(-1, -2)
    return np.conj(t) if a.dtype.kind == "c" else t


def star_adjoint(p: MatrixPolynomial) -> MatrixPolynomial:
    """Coefficient-wise transpose (real field) or conjugate transpose (complex)."""
    return MatrixPolynomial(star(p.coeffs))


def poly_matmul(p: MatrixPolynomial, q: MatrixPolynomial) -> MatrixPolynomial:
    """Product polynomial with grade equal to the sum of the factor grades."""
    if p.cols != q.rows:
        raise ValueError(f"size mismatch {p.shape} x {q.shape}")
    return MatrixPolynomial(_coeff_product(p.coeffs, q.coeffs))


def _coeff_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient stack of the product of the polynomials with stacks ``a``
    and ``b``: one stacked product per coefficient of ``a``, each added in
    ascending powers of ``a``."""
    out = np.zeros((len(a) + len(b) - 1, a.shape[1], b.shape[2]), dtype=np.result_type(a, b))
    for i, ai in enumerate(a):
        out[i:i + len(b)] += ai @ b
    return out


# ---------------------------------------------------------------------------
# Mobius transformations
# ---------------------------------------------------------------------------

def _binom_poly(x, y, m: int) -> np.ndarray:
    # ascending coefficients of (x*l + y)**m
    return np.array([math.comb(m, r) * x**r * y ** (m - r) for r in range(m + 1)])


def mobius_weights(a: MobiusMatrix, grade: int) -> np.ndarray:
    """Weight table W with W[i, j] = coefficient of l**j in (al+b)^i (cl+d)^(g-i).

    The substituted polynomial's j-th coefficient is sum_i W[i, j] * P_i.  For
    the six structure matrices the entries are exact signed integers.  The
    table is built once per (entries, grade) and shared, so it is read-only.
    """
    return _mobius_weights(a.a, a.b, a.c, a.d, grade)


# Keyed on the four entries with their types: MobiusMatrix(1, 0, 0, 1) and
# MobiusMatrix(1+0j, 0, 0, 1) compare equal but give tables of different dtypes.
@functools.lru_cache(maxsize=None, typed=True)
def _mobius_weights(a, b, c, d, grade: int) -> np.ndarray:
    w = np.vstack(
        [np.convolve(_binom_poly(a, b, i), _binom_poly(c, d, grade - i)) for i in range(grade + 1)]
    )
    w.setflags(write=False)
    return w


def _substituted(coeffs: np.ndarray, a: MobiusMatrix) -> np.ndarray:
    """`mobius` by ``a`` of the polynomial with coefficient stack ``coeffs``,
    as a stack; a singular ``a`` is refused."""
    scale = max(abs(a.a), abs(a.b), abs(a.c), abs(a.d), 1.0)
    if abs(a.det) <= 1e-14 * scale * scale:
        raise StruktError("Mobius matrix is singular")
    return np.einsum("ij,irc->jrc", mobius_weights(a, len(coeffs) - 1), coeffs)


def mobius(p: MatrixPolynomial, a: MobiusMatrix) -> MatrixPolynomial:
    """Substitution P(l) -> sum_i P_i (al+b)^i (cl+d)^(g-i) at P's grade."""
    return MatrixPolynomial(_substituted(p.coeffs, a))


# ---------------------------------------------------------------------------
# Structure residual, gate, projection, random sampling
# ---------------------------------------------------------------------------

def structure_residual(p: MatrixPolynomial, kind) -> float:
    """Frobenius norm of the defect between the substituted and adjoint forms.

    ``kind`` may be a StructureKind or any coninvolutory MobiusMatrix.  The
    defect is formed on the coefficient arrays, with the same arithmetic as
    ``frob_norm(mobius(p, A) - star_adjoint(p))``.
    """
    if not p.is_square:
        raise StructureError("structure checks require a square polynomial")
    return array_norm(_substituted(p.coeffs, driver_matrix(kind)) - star(p.coeffs))


def admit_structured(p: MatrixPolynomial, kind: StructureKind, what: str):
    """The one structure gate: (projection, distance) of ``p``, named ``what``
    in its refusals: `StructureError` unless square and structured to within
    1e-12 ||p||_F, `StruktError` unless finite. One substitution gives the
    residual and the projection (P + (substituted P)^*)/2; an exactly
    structured ``p`` is itself at distance 0.0, any other one is at half its
    residual, rounded up."""
    if not p.is_square:
        raise StructureError(f"{what} must be square, got {p.rows} x {p.cols}")
    require_finite(p)
    sub = _substituted(p.coeffs, driver_matrix(kind))
    residual, norm = array_norm(sub - star(p.coeffs)), array_norm(p.coeffs)
    if not residual <= 1e-12 * norm:
        raise StructureError(
            f"{what} is not {kind.value} (residual {residual:.3e} at norm {norm:.3e})"
        )
    if residual == 0.0:
        return p, 0.0
    return MatrixPolynomial(_average(p.coeffs, sub)), math.nextafter(0.5 * residual, math.inf)


def structure_project(p: MatrixPolynomial, kind) -> MatrixPolynomial:
    """Average P with its substituted adjoint; idempotent, fixes structured inputs."""
    if not p.is_square:
        raise StructureError("structure projection requires a square polynomial")
    return MatrixPolynomial(_average(p.coeffs, _substituted(p.coeffs, driver_matrix(kind))))


def _average(coeffs: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """The structure projection of a square coefficient stack, given its
    substituted stack ``sub``."""
    return (coeffs + star(sub)) * 0.5


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
    A zero structure class (say n = 1, skew-symmetric, odd grade) annihilates
    the one draw and is refused with `StruktError`.
    """
    if not 0 < target_norm < math.inf:
        raise ValueError(f"target_norm must be positive and finite, got {target_norm!r}")
    if field not in (REAL, COMPLEX):
        raise ValueError(f"unknown field tag {field!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    raw = rng.standard_normal((g + 1, n, n))
    if field == COMPLEX:
        raw = raw + 1j * rng.standard_normal((g + 1, n, n))
    proj = _average(raw, _substituted(raw, driver_matrix(kind)))
    nrm = array_norm(proj)
    if not nrm > 1e-8:
        raise StruktError("structure projection annihilated the sample: the class is zero")
    return MatrixPolynomial(proj * (target_norm / nrm))


# ---------------------------------------------------------------------------
# JSON file format
# ---------------------------------------------------------------------------

def _encode_matrix(m: np.ndarray, field: str):
    if field == COMPLEX:
        return [[[float(v.real), float(v.imag)] for v in row] for row in m]
    return [[float(v) for v in row] for row in m]


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


def require_finite(p: MatrixPolynomial) -> None:
    """Refuse a polynomial with an infinite or NaN coefficient with `StruktError`."""
    if not np.isfinite(p.coeffs).all():
        raise StruktError("polynomial coefficients must be finite")


def _is_number_tree(x) -> bool:
    """True for a JSON number (not a bool) or nested lists of them."""
    if isinstance(x, list):
        return all(map(_is_number_tree, x))
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def from_json_dict(doc: dict) -> MatrixPolynomial:
    """The polynomial a `to_json_dict` record describes; complex entries are
    [re, im] pairs. A record of another layout, or with a coefficient that is
    not a finite number, is refused with `StruktError`."""
    require_keys(doc, ("rows", "cols", "grade", "field", "coeffs"), "polynomial record")
    require_ints(doc, ("rows", "cols", "grade"), "polynomial record")
    field = doc["field"]
    if not isinstance(field, str) or field not in (REAL, COMPLEX):
        raise StruktError(f"unknown field tag {field!r}")
    malformed = StruktError("coefficients must be equally sized nested lists of finite numbers")
    if not _is_number_tree(doc["coeffs"]):
        raise malformed
    try:
        arr = np.array(doc["coeffs"], dtype=np.float64)
    except (ValueError, OverflowError):
        raise malformed from None
    if arr.ndim < 1 or len(arr) != doc["grade"] + 1:
        raise StruktError("coefficient count does not match the declared grade")
    entry = (2,) if field == COMPLEX else ()
    if arr.shape[1:] != (doc["rows"], doc["cols"]) + entry:
        raise StruktError(
            "coefficient shapes do not match the declared size"
            + (" of [re, im] entries" if entry else "")
        )
    if field == COMPLEX:
        arr = arr.view(np.complex128)[..., 0]
    p = MatrixPolynomial(arr)
    require_finite(p)
    return p


def save_polynomial(p: MatrixPolynomial, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(p), fh)


def load_polynomial(path) -> MatrixPolynomial:
    with open(path) as fh:
        return from_json_dict(json.load(fh))
