"""Canonical dual minimal bases and min-norm completion of perturbed ones.

The two protagonists are the bidiagonal pencil L_k (x) I_n (block pattern
[-I, lI] per row) and the monomial row Lambda_k^T (x) I_n = [l^k I, ..., l I, I].
They multiply to zero and stay minimal under the structure substitutions.
When the pencil is perturbed, `dual_basis_complete` rebuilds a dual partner of
degree k by a minimum-norm solve of the coefficient-convolution system: the
system is applied as matrix products, and conjugate gradients run on its
Gram matrix, preconditioned by the n = 1 Gram inverse of the unperturbed
pencil. `convolution_matrix` forms the system densely for oracles and
minimal-index estimation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import polycore
from .errors import GradeError, NumericalError, ThresholdError
from .polycore import MatrixPolynomial

#: A perturbed pencil within this bound of L_k (x) I_n is guaranteed to admit a
#: dual partner of degree k.
def completion_threshold(k: int) -> float:
    return math.pi / (12.0 * (k + 1) ** 1.5)


@dataclass(frozen=True)
class SelectorMatrices:
    """Constant selectors with l*F - E reproducing the bidiagonal pencil."""

    e: np.ndarray
    f: np.ndarray


def selector_matrices(k: int, n: int) -> SelectorMatrices:
    """E = [I_k 0] (x) I_n and F = [0 I_k] (x) I_n, exact 0/1 matrices."""
    if k < 1:
        raise GradeError("selector matrices need k >= 1")
    return SelectorMatrices(np.eye(k * n, (k + 1) * n), np.eye(k * n, (k + 1) * n, n))


def build_Lk(k: int, n: int) -> MatrixPolynomial:
    """The kn x (k+1)n block-bidiagonal pencil with -I_n and l*I_n entries.

    k = 0 yields the degenerate zero-row basis; downstream code then treats
    the pencil as the polynomial itself.
    """
    if k < 0 or n < 1:
        raise ValueError("build_Lk requires k >= 0 and n >= 1")
    if k == 0:
        return MatrixPolynomial(np.zeros((2, 0, n)))
    sel = selector_matrices(k, n)
    return polycore.from_coeff_list([-sel.e, sel.f])


def build_Lambda(k: int, n: int) -> MatrixPolynomial:
    """The n x (k+1)n monomial block row (l^k I_n, ..., l I_n, I_n)."""
    if k < 0 or n < 1:
        raise ValueError("build_Lambda requires k >= 0 and n >= 1")
    coeffs = np.zeros((k + 1, n, (k + 1) * n))
    for i in range(k + 1):
        j = k - i
        coeffs[i][:, j * n:(j + 1) * n] = np.eye(n)
    return MatrixPolynomial(coeffs)


@dataclass(frozen=True)
class DualBasisPair:
    """A wide pencil K and a degree-k partner N with K N^T = 0.

    ``correction`` is N minus the canonical monomial row, as solved: taking
    N - Lambda instead would cancel the low bits of every entry next to a one
    of Lambda. ``iterations`` counts the CG iterations of the completion that
    built N.
    """

    K: MatrixPolynomial
    N: MatrixPolynomial
    correction: MatrixPolynomial
    k: int
    n: int
    iterations: int

    def duality_residual(self) -> float:
        return polycore.frob_norm(polycore.poly_matmul(self.K, polycore.transpose_poly(self.N)))


def convolution_matrix(K: MatrixPolynomial, target_degree: int) -> np.ndarray:
    """Block-Toeplitz matrix mapping stacked right-factor coefficients to
    stacked coefficients of K times that factor.

    The factor is any polynomial with K.cols rows and degree target_degree;
    coefficients are stacked by ascending power on both sides.
    """
    if target_degree < 0:
        raise ValueError("target_degree must be nonnegative")
    d, m, p = K.grade, K.rows, K.cols
    t = target_degree
    out = np.zeros(((d + t + 1) * m, (t + 1) * p), dtype=K.coeffs.dtype)
    for j in range(t + 1):
        for i in range(d + 1):
            out[(i + j) * m:(i + j + 1) * m, j * p:(j + 1) * p] = K.coeffs[i]
    return out


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


def _times(K: MatrixPolynomial, d: np.ndarray) -> np.ndarray:
    """Coefficients of K times the factor with coefficient stack ``d``."""
    out = np.zeros((K.grade + len(d), K.rows, d.shape[2]), dtype=np.result_type(K.coeffs, d))
    for i, ki in enumerate(K.coeffs):
        out[i:i + len(d)] += ki @ d
    return out


def _times_adjoint(K: MatrixPolynomial, c: np.ndarray) -> np.ndarray:
    """Adjoint of `_times` in the Frobenius inner product."""
    width = len(c) - K.grade
    return sum(polycore.star(ki) @ c[i:i + width] for i, ki in enumerate(K.coeffs))


@functools.lru_cache(maxsize=None)
def _completion_preconditioner(k: int) -> np.ndarray:
    """Inverse of C C^T for C = `convolution_matrix(build_Lk(k, 1), k)`, the
    (k+2)k square Gram matrix of the n = 1 completion, built matrix-free."""
    lk = build_Lk(k, 1)
    basis = np.eye((k + 2) * k).reshape(k + 2, k, -1)
    gram = _times(lk, _times_adjoint(lk, basis)).reshape((k + 2) * k, -1)
    pinv = np.linalg.inv(gram)
    pinv.setflags(write=False)
    return pinv


def dual_basis_complete(K: MatrixPolynomial, k: int, n: int) -> DualBasisPair:
    """Minimum-norm degree-k dual partner of a perturbed bidiagonal pencil.

    K must be a pencil L_k (x) I_n plus a perturbation below
    `completion_threshold(k)`. Let A map a degree-k factor D to the
    coefficients of K D; it is applied as matrix products and never formed.
    The correction of the monomial row is the minimum-norm D with
    A (Lambda^T + D) = 0, namely D = A^* w with A A^* w = -A Lambda^T.
    `polycore.pcg` solves for w, preconditioned by the inverse of the n = 1
    Gram matrix of L_k: at zero perturbation A A^* is a permutation of that
    matrix (x) I_{n^2}. The duality residual must be at most 1e-12.
    """
    if K.shape != (k * n, (k + 1) * n) or K.grade != 1:
        raise ValueError(
            f"K must be a {k * n} x {(k + 1) * n} pencil, got {K.shape} of grade {K.grade}"
        )
    base = build_Lk(k, n)
    dl_norm = polycore.frob_norm(K - base)
    bound = completion_threshold(k)
    if dl_norm >= bound:
        raise ThresholdError(
            f"perturbation norm {dl_norm:.3e} exceeds the completion bound {bound:.3e}",
            value=dl_norm,
            bound=bound,
        )
    pinv = _completion_preconditioner(k)
    rows = (k + 2) * k

    def precondition(r: np.ndarray) -> np.ndarray:
        # (k+2, kn, n) -> ((k+2)k, n^2): the Kronecker blocks become channels.
        return (pinv @ r.reshape(rows, n * n)).reshape(r.shape)

    lam = build_Lambda(k, n)
    rhs = -_times(K, polycore.transpose_poly(lam).coeffs)
    w, iterations = polycore.pcg(lambda v: _times(K, _times_adjoint(K, v)), precondition, rhs)
    correction = polycore.transpose_poly(MatrixPolynomial(_times_adjoint(K, w), K.field))
    pair = DualBasisPair(
        K=K, N=lam + correction, correction=correction, k=k, n=n, iterations=iterations
    )
    residual = pair.duality_residual()
    if residual > 1e-12:
        raise NumericalError(f"dual completion residual {residual:.3e} above tolerance 1e-12")
    return pair
