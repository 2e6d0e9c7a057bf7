"""Canonical dual minimal bases and min-norm completion of perturbed ones.

The two protagonists are the bidiagonal pencil L_k (x) I_n (block pattern
[-I, lI] per row) and the monomial row Lambda_k^T (x) I_n = [l^k I, ..., l I, I].
They multiply to zero and stay minimal under the structure substitutions.
When the pencil is perturbed, `dual_basis_complete` rebuilds a dual partner of
degree k by `polycore.min_norm_solve` on the coefficient-convolution system,
applied as matrix products and preconditioned by the n = 1 Gram inverse of
the unperturbed pencil. `convolution_matrix` is the system's one dense form:
that Gram matrix, minimal-index estimation and test oracles read it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import polycore
from .errors import StructureError, ThresholdError
from .polycore import MatrixPolynomial

#: A perturbed pencil within this bound of L_k (x) I_n is guaranteed to admit a
#: dual partner of degree k.
def completion_threshold(k: int) -> float:
    return math.pi / (12.0 * (k + 1) ** 1.5)


@functools.lru_cache(maxsize=None)
def build_Lk(k: int, n: int) -> MatrixPolynomial:
    """The kn x (k+1)n block-bidiagonal pencil with -I_n and l*I_n entries.

    Its coefficients are -E and F for the selectors E = [I_k 0] (x) I_n and
    F = [0 I_k] (x) I_n, exact 0/1 matrices that nothing else stores. k = 0
    yields the degenerate zero-row basis; downstream code then treats the
    pencil as the polynomial itself. Built once per (k, n) and shared.
    """
    if k < 0 or n < 1:
        raise ValueError("build_Lk requires k >= 0 and n >= 1")
    return polycore.from_coeff_list([-np.eye(k * n, (k + 1) * n), np.eye(k * n, (k + 1) * n, n)])


def lk_dims(rows: int, cols: int) -> tuple[int, int]:
    """(k, n) of a block of the shape of L_k (x) I_n, kn x (k+1)n with
    k >= 1 and n >= 1; any other shape is refused with `StructureError`."""
    n = cols - rows
    if rows < 1 or n < 1 or rows % n:
        raise StructureError(f"expected a kn x (k+1)n block with k, n >= 1, got {rows} x {cols}")
    return rows // n, n


@functools.lru_cache(maxsize=None)
def build_Lambda(k: int, n: int) -> MatrixPolynomial:
    """The n x (k+1)n monomial block row (l^k I_n, ..., l I_n, I_n), built
    once per (k, n) and shared."""
    if k < 0 or n < 1:
        raise ValueError("build_Lambda requires k >= 0 and n >= 1")
    coeffs = np.zeros((k + 1, n, (k + 1) * n))
    for i in range(k + 1):
        j = k - i
        coeffs[i][:, j * n:(j + 1) * n] = np.eye(n)
    return MatrixPolynomial(coeffs)


@dataclass(frozen=True)
class DualBasisPair:
    """A degree-k partner N of a wide pencil K, with K N^T = 0.

    ``correction`` is N minus the canonical monomial row, as solved: taking
    N - Lambda instead would cancel the low bits of every entry next to a one
    of Lambda. ``iterations`` counts the CG iterations of the completion that
    built N.
    """

    N: MatrixPolynomial
    correction: MatrixPolynomial
    iterations: int


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


def _times_adjoint(k_star: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Adjoint in the Frobenius inner product of d -> K d, the coefficients
    of K times the factor with coefficient stack d, given
    k_star = `polycore.star(K.coeffs)`."""
    width = len(c) - len(k_star) + 1
    out = k_star[0] @ c[:width]
    for i in range(1, len(k_star)):
        out += k_star[i] @ c[i:i + width]
    return out


@functools.lru_cache(maxsize=None)
def _completion_preconditioner(k: int) -> np.ndarray:
    """Inverse of the (k+2)k square Gram matrix C C^T of the n = 1
    completion, C = `convolution_matrix(build_Lk(k, 1), k)`; its rows are in
    the channel order of `polycore.kron_precondition`."""
    c = convolution_matrix(build_Lk(k, 1), k)
    pinv = np.linalg.inv(c @ c.T)
    pinv.setflags(write=False)
    return pinv


def dual_basis_complete(K: MatrixPolynomial, k: int, n: int) -> DualBasisPair:
    """Minimum-norm degree-k dual partner of a perturbed bidiagonal pencil.

    K must be a pencil L_k (x) I_n plus a perturbation below
    `completion_threshold(k)`. Let A map a degree-k factor D to the
    coefficients of K D. The correction of the monomial row is the
    minimum-norm D with A D = -A Lambda^T, which `polycore.min_norm_solve`
    finds, preconditioned by the inverse of the n = 1 Gram matrix of L_k. Its
    gate bounds the duality residual K D + K Lambda^T relative to
    ||K Lambda^T||_F, before Lambda^T + D is rounded into N.
    """
    if K.shape != (k * n, (k + 1) * n) or K.grade != 1:
        raise ValueError(
            f"K must be a {k * n} x {(k + 1) * n} pencil, got {K.shape} of grade {K.grade}"
        )
    base = build_Lk(k, n)
    dl_norm = polycore.array_norm(K.coeffs - base.coeffs)
    bound = completion_threshold(k)
    if dl_norm >= bound:
        raise ThresholdError(
            f"perturbation norm {dl_norm:.3e} exceeds the completion bound {bound:.3e}",
            value=dl_norm,
            bound=bound,
        )
    lam = build_Lambda(k, n)
    times = functools.partial(polycore._coeff_product, K.coeffs)
    adjoint = functools.partial(_times_adjoint, polycore.star(K.coeffs))
    d, _, iterations = polycore.min_norm_solve(
        times, adjoint, lambda r: times(adjoint(r)),
        _completion_preconditioner(k), n, -times(lam.coeffs.swapaxes(1, 2)),
    )
    correction = MatrixPolynomial(d.swapaxes(1, 2))
    return DualBasisPair(N=lam + correction, correction=correction, iterations=iterations)
