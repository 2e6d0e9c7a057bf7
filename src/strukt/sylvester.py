"""Star-Sylvester machinery behind the congruence that rezeroes the trailing
block of a perturbed pencil A, read from A's own blocks.

The linear step vectorizes a pair of coupled Sylvester equations into one
underdetermined system whose matrix has exact 0/+-1 entries and minimum
singular value 2*sin(pi/(4k)) for every structure kind and every block size.
`StarSylvesterOperator.matrix` is that system's one dense form. Nothing
else forms T or T T^*. `certified_gap` bounds sigma_min(T) from below by
Weyl's inequality on the operator's own blocks, with sigma_min of the
unperturbed system taken from the n = 1 Gram matrix T_A T_A^*,
T_A = `build_TA(k, 1, kind)`. `StarSylvesterOperator.solve` is one
`polycore.min_norm_solve` call preconditioned with that matrix's inverse,
and keeps no state between calls. The quadratic step wraps the linear solve
in a fixed-point iteration whose convergence is certified by delta > 0 and
theta*omega/delta^2 < 1/4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import minbases, polycore
from .errors import ConvergenceError, ThresholdError
from .linearize import BlockKroneckerPencil, natural_blocks
from .polycore import array_norm, driver_matrix, min_norm_solve, star


def sigma_min_formula(k: int) -> float:
    """Smallest singular value of the unperturbed vectorized system matrix."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 2.0 * math.sin(math.pi / (4.0 * k))


class StarSylvesterOperator:
    """The coupled map (Y, Z) -> (Y G0^* + ehat Z^*, Y G1^* + fhat Z^*).

    ehat + l*fhat is the (2,1) block of a perturbed pencil A, given as its
    (2, kn, (k+1)n) coefficient stack ``a21``, whose shape fixes k and n; at
    zero perturbation it is L_k (x) I_n = -E + l*F. G0 + l*G1 is the kind's
    Mobius image of ehat + l*fhat: the rule that fixes a structured pencil's
    (1,2) block from its (2,1) block.

    The blocks are stored stacked, G = [G0; G1] and H = [ehat; fhat], each
    2kn x (k+1)n, with their adjoints; g0, g1, ehat and fhat are row-block
    views. An image (c0, c1) is a (2, kn, kn) stack.
    """

    def __init__(self, a21: np.ndarray, kind):
        self.k, self.n = minbases.lk_dims(*a21.shape[1:])
        kn = self.k * self.n
        self.driver = driver_matrix(kind)
        self.h = np.vstack(a21)
        self.g = np.vstack(polycore._substituted(a21, self.driver))
        self.gs, self.hs = star(self.g), star(self.h)
        self.ehat, self.fhat = self.h[:kn], self.h[kn:]
        self.g0, self.g1 = self.g[:kn], self.g[kn:]

    @classmethod
    def unperturbed(cls, k: int, n: int, kind) -> "StarSylvesterOperator":
        # + 0.0 turns the -0.0 entries of L_k's -I blocks into +0.0; with
        # -0.0 in T_A, `strukt sigma-min`'s SVDs move in the last digit.
        return cls(minbases.build_Lk(k, n).coeffs + 0.0, kind)

    def apply(self, y: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Matrix-free image of the pair (Y, Z), given Y and Z^*: two products,
        Y G^* split into its two kn-column halves plus H Z^*."""
        kn = len(y)
        return (y @ self.gs).reshape(kn, 2, kn).swapaxes(0, 1) + (self.h @ zs).reshape(2, kn, kn)

    def adjoint(self, c: np.ndarray):
        """Adjoint map c -> (Y, Z^*) = ([c0 c1] G, H^* [c0; c1])."""
        _, kn, _ = c.shape
        return c.swapaxes(0, 1).reshape(kn, 2 * kn) @ self.g, self.hs @ c.reshape(2 * kn, kn)

    @functools.cached_property
    def _grams(self):  # lazy: the gap gate must refuse huge blocks before they overflow
        return self.g @ self.gs, self.h @ self.hs

    def gram(self, c: np.ndarray) -> np.ndarray:
        """T T^* on a (2, kn, kn) stack: [c0 c1] G G^* split into its two
        halves, plus H H^* [c0; c1]. The 2kn-square G G^* and H H^* are formed
        once per operator; nothing of size m x m, m = 2k^2n^2, is formed."""
        _, kn, _ = c.shape
        gg, hh = self._grams
        rows = c.swapaxes(0, 1).reshape(kn, 2 * kn) @ gg
        return rows.reshape(kn, 2, kn).swapaxes(0, 1) + (hh @ c.reshape(2 * kn, kn)).reshape(2, kn, kn)

    def solve(self, c: np.ndarray, w: np.ndarray | None = None):
        """((Y, Z^*), w, iterations): the minimum Frobenius norm pair with
        apply(Y, Z^*) = c, a (2, kn, kn) stack, by `polycore.min_norm_solve`
        from the start ``w``; ||(Y, Z)||_F <= ||c||_F / `certified_gap`."""
        pinv = _reference(self.k, self.driver).pinv
        return min_norm_solve(lambda x: self.apply(*x), self.adjoint, self.gram, pinv, self.n, c, w)

    def matrix(self) -> np.ndarray:
        """Vectorized 2k^2n^2 x 2k(k+1)n^2 matrix acting on [vec Y; vec Z^*],
        each vec row-major: vec(Y G0^*) = (I (x) conj(G0)) vec Y and
        vec(ehat Z^*) = (ehat (x) I) vec Z^*. At n = 1 its rows are in the
        order (equation, row block, column block) of the channels of
        `polycore.kron_precondition`.

        Only `build_TA`, `strukt sigma-min`, `_reference` and test oracles
        form it; `certified_gap` reads the gap off the operator's blocks and
        `solve` runs through `apply`, `adjoint` and `gram`.
        """
        eye = np.eye(self.ehat.shape[0])
        top = np.hstack([np.kron(eye, np.conj(self.g0)), np.kron(self.ehat, eye)])
        bot = np.hstack([np.kron(eye, np.conj(self.g1)), np.kron(self.fhat, eye)])
        return np.vstack([top, bot])


# ---------------------------------------------------------------------------
# The unperturbed system matrix
# ---------------------------------------------------------------------------

def build_TA(k: int, n: int, kind) -> np.ndarray:
    """Unperturbed 2k^2n^2 x 2k(k+1)n^2 system matrix, exact 0/+-1 entries.
    Its singular values are those of build_TA(k, 1, kind), each repeated n^2
    times."""
    return StarSylvesterOperator.unperturbed(k, n, kind).matrix()


# ---------------------------------------------------------------------------
# The reference system and the certified gap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Reference:
    """What a solve and the gap need of the unperturbed system T_A and the driver,
    for every block size n. T_A(n) is a row and column permutation of
    T_A(1) (x) I_{n^2}, so its Gram inverse and its sigma_min are those of
    T_A(1) = `build_TA(k, 1, driver)`."""

    #: Inverse of the n = 1 Gram matrix, rows and columns in the row-major
    #: order (equation, row block, column block) of `polycore.kron_precondition`.
    pinv: np.ndarray
    #: A lower bound on sigma_min(T_A), from an eigvalsh of the same Gram
    #: matrix less its rounding allowance, not from the formula.
    sigma_min: float
    #: hypot(||A||_2, 1), rounded up, for the driver A: ||dT||_2 is at most
    #: this times ||[dH0; dH1]||_2.
    dt_factor: float


_EPS = float(np.finfo(float).eps)


@functools.lru_cache(maxsize=None)
def _reference(k: int, driver) -> _Reference:
    t = build_TA(k, 1, driver)
    gram = t @ star(t)
    # eigvalsh is backward stable: each computed eigenvalue is within a small
    # multiple of eps*||G||_2 of an exact one, so lambda_min less 2k^2*eps*||G||_F
    # bounds the exact one from below.
    lam = np.linalg.eigvalsh(gram)[0] - gram.shape[0] * _EPS * np.linalg.norm(gram)
    # [dG0; dG1] = ([[d, b], [c, a]] (x) I) [dH0; dH1], and that factor has
    # the singular values of A; its computed largest one is rounded up.
    norm_a = np.linalg.norm(driver.array, 2) * (1.0 + 4.0 * _EPS)
    pinv = np.linalg.inv(gram)
    pinv.setflags(write=False)
    return _Reference(
        pinv, math.sqrt(max(lam, 0.0)), math.nextafter(math.hypot(norm_a, 1.0), math.inf)
    )


def certified_gap(op: StarSylvesterOperator) -> float:
    """The certified lower bound delta on sigma_min(T), T the wide operator
    of ``op``, that Weyl's inequality gives on the operator's own blocks:
    sigma_min(T) >= sigma_min(T_A) - ||dT||_2 >= delta.

    sigma_min(T_A) comes from an eigvalsh of the unperturbed n = 1 Gram
    matrix, less an allowance for its rounding, not from `sigma_min_formula`.
    The two block columns of dT = T - T_A are row permutations of
    [dG0; dG1] (x) I and I (x) [dH0; dH1], and
    [dG0; dG1] = ([[d, b], [c, a]] (x) I) [dH0; dH1] for the driver
    [[a, b], [c, d]], so ||dT||_2 <= s*hypot(||A||_2, 1) with
    s = ||[dH0; dH1]||_2: one SVD of O(kn) size, its result rounded up by
    rows*eps*s. For the six kinds each row block of G is +-ehat or +-fhat, so
    that identity holds exactly for the computed G; for another driver, up to
    the rounding of G. A gap delta <= 0 is refused with `ThresholdError`
    before any Gram product is formed.
    """
    ref = _reference(op.k, op.driver)
    # H - L_k is exact by Sterbenz's lemma: dH is the operator's own.
    dh = op.h - minbases.build_Lk(op.k, op.n).coeffs.reshape(op.h.shape)
    s = np.linalg.svd(dh, compute_uv=False)[0] * (1.0 + len(dh) * _EPS)
    # ||dT||_2 rounds up and the difference down, so delta never exceeds
    # the exact sigma_min - ||dT||_2 of these inputs.
    delta = math.nextafter(ref.sigma_min - math.nextafter(s * ref.dt_factor, math.inf), -math.inf)
    if delta <= 0:
        raise ThresholdError(
            "perturbed system matrix may be rank deficient "
            f"(singular value gap {delta:.3e} <= 0)",
            value=delta,
            bound=0.0,
        )
    return delta


# ---------------------------------------------------------------------------
# Quadratic fixed point
# ---------------------------------------------------------------------------

@dataclass
class FixedPointState:
    """Outcome of the quadratic star-Sylvester iteration. ``x_norms`` keeps
    ||X||_F of every sweep's iterate, not only the last."""

    x: np.ndarray
    delta: float
    theta: float
    omega: float
    kappa1: float
    residuals: list = field(default_factory=list)
    x_norms: list = field(default_factory=list)
    solve_iterations: list = field(default_factory=list)  # CG iterations per sweep
    iterations: int = 0


def quadratic_fixed_point(a: BlockKroneckerPencil) -> FixedPointState:
    """Solve the quadratic star-Sylvester system that rezeroes the (2,2) block
    of the perturbed pencil A.

    Its natural-partition blocks are read as views: the (2,1) block fixes the
    operator, W = A11 and theta = ||A22||. `certified_gap` gives delta
    before any Gram product is formed; admissibility requires delta > 0 and
    theta*omega/delta^2 < 1/4, omega = ||W||. Each sweep solves the
    linearized coupled system at minimum norm with `op.solve`, started from
    the previous sweep's w, and averages. Averaging is exact because every
    sweep's right-hand pencil carries the structure. A solve residual above
    1e-12 relative raises `NumericalError` at its sweep; the iteration stops
    once the fixed-point residual is at most 1e-12*theta (at theta = 0 the
    first sweep's residual is exactly 0) and raises `ConvergenceError` after
    100 sweeps.
    """
    a11, a21, _, a22 = natural_blocks(a.poly.coeffs, a.k, a.n)
    op = StarSylvesterOperator(a21, a.kind)
    _, kn, width = a21.shape
    # W = [W0 W1], so X W is (X W0, X W1) side by side.
    w = np.hstack(a11)
    theta = array_norm(a22)
    omega = array_norm(w)

    delta = certified_gap(op)
    kappa1 = theta * omega / delta**2
    if kappa1 >= 0.25:
        raise ThresholdError(
            f"contraction condition violated: theta*omega/delta^2 = {kappa1:.3e} >= 1/4",
            value=kappa1,
            bound=0.25,
        )
    tol = 1e-12 * theta
    state = FixedPointState(
        x=np.zeros_like(op.ehat), delta=delta, theta=theta, omega=omega, kappa1=kappa1
    )

    # q = (X W0 X^*, X W1 X^*) at the current iterate, shared by its residual
    # and the next right-hand side. Each sweep's CG starts from the previous
    # sweep's solution, whose right-hand side differs by the change in q.
    q, start = np.zeros_like(a22), None
    for it in range(1, 101):
        (y, zs), start, cg = op.solve(-a22 - q, start)
        x = (y + star(zs)) / 2.0
        xs = star(x)
        q = (x @ w).reshape(kn, 2, width).swapaxes(0, 1) @ xs
        resid = array_norm(op.apply(x, xs) + a22 + q)
        state.x = x
        state.residuals.append(resid)
        state.x_norms.append(array_norm(x))
        state.solve_iterations.append(cg)
        state.iterations = it
        if resid <= tol:
            return state
    raise ConvergenceError(
        f"fixed point did not reach {tol:.3e} in 100 sweeps "
        f"(last residual {state.residuals[-1]:.3e})"
    )
