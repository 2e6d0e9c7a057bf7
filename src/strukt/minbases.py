"""Canonical dual minimal bases and min-norm completion of perturbed ones.

The two protagonists are the bidiagonal pencil L_k (x) I_n (block pattern
[-I, lI] per row) and the monomial row Lambda_k^T (x) I_n = [l^k I, ..., l I, I].
They multiply to zero and stay minimal under the structure substitutions.
When the pencil is perturbed, `dual_basis_complete` rebuilds a dual partner of
degree k by a minimum-norm least-squares solve on the coefficient-convolution
system.
"""

from __future__ import annotations

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
    e = np.kron(np.hstack([np.eye(k), np.zeros((k, 1))]), np.eye(n))
    f = np.kron(np.hstack([np.zeros((k, 1)), np.eye(k)]), np.eye(n))
    return SelectorMatrices(e, f)


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
    """A wide pencil K and a degree-k partner N with K N^T = 0."""

    K: MatrixPolynomial
    N: MatrixPolynomial
    k: int
    n: int

    def duality_residual(self) -> float:
        return polycore.frob_norm(polycore.poly_matmul(self.K, polycore.transpose_poly(self.N)))

    def delta_r(self) -> MatrixPolynomial:
        """Correction of N relative to the canonical monomial row."""
        return self.N - build_Lambda(self.k, self.n)


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


def dual_basis_complete(K: MatrixPolynomial, k: int, n: int) -> DualBasisPair:
    """Minimum-norm degree-k dual partner of a perturbed bidiagonal pencil.

    K must be L_k (x) I_n plus a perturbation below `completion_threshold(k)`.
    The correction coefficients solve the vectorized convolution system
    K * (Lambda stack + correction) = 0 by min-norm least squares; the duality
    residual must be at most 1e-12.
    """
    if K.shape != (k * n, (k + 1) * n):
        raise ValueError(f"K must be {k * n} x {(k + 1) * n}, got {K.shape}")
    base = build_Lk(k, n)
    dl_norm = polycore.frob_norm(K - base)
    bound = completion_threshold(k)
    if dl_norm >= bound:
        raise ThresholdError(
            f"perturbation norm {dl_norm:.3e} exceeds the completion bound {bound:.3e}",
            value=dl_norm,
            bound=bound,
        )
    conv = convolution_matrix(K, k)
    lam = build_Lambda(k, n)
    rhs = -conv @ polycore.transpose_poly(lam).coeffs.reshape(-1, n)
    sol, *_ = np.linalg.lstsq(conv, rhs, rcond=None)

    width = (k + 1) * n
    delta_coeffs = np.stack([sol[i * width:(i + 1) * width, :] for i in range(k + 1)])
    delta_r = MatrixPolynomial(delta_coeffs, K.field)
    N = lam + polycore.transpose_poly(delta_r)
    pair = DualBasisPair(K=K, N=N, k=k, n=n)
    residual = pair.duality_residual()
    if residual > 1e-12:
        raise NumericalError(f"dual completion residual {residual:.3e} above tolerance 1e-12")
    return pair
