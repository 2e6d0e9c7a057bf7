"""Star-Sylvester machinery behind the congruence that rezeroes a perturbed
pencil's trailing block.

The linear step vectorizes a pair of coupled Sylvester equations into one
underdetermined system whose matrix has exact 0/+-1 entries and minimum
singular value 2*sin(pi/(4k)) for every structure kind and every block size.
Its minimum-norm solve never forms T or T T^*. It checks the certified gap
by Weyl's inequality on the operator's own blocks, with sigma_min of the
unperturbed system taken from its n = 1 Gram matrix, then solves
T T^* w = c by conjugate gradients preconditioned with the unperturbed Gram
inverse, which is its n = 1 reduction applied to n^2 channels, and returns
T^* w. The quadratic step wraps the linear solve in a fixed-point iteration
whose convergence is certified by delta > 0 and theta*omega/delta^2 < 1/4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import minbases
from .errors import ConvergenceError, NumericalError, ThresholdError
from .polycore import driver_matrix, from_coeff_list, mobius, pair_norm, pcg, star


def sigma_min_formula(k: int) -> float:
    """Smallest singular value of the unperturbed vectorized system matrix."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 2.0 * math.sin(math.pi / (4.0 * k))


class StarSylvesterOperator:
    """The coupled map (Y, Z) -> (Y G0^* + ehat Z^*, Y G1^* + fhat Z^*).

    ehat = -E + da21 and fhat = F + db21 are the bidiagonal selectors shifted
    by the (2,1) perturbation blocks, whose shape kn x (k+1)n fixes k and n.
    G0 + l*G1 is the kind's Mobius image of the perturbed bidiagonal pencil
    ehat + l*fhat: the rule that fixes a structured pencil's (1,2) block from
    its (2,1) block.
    """

    def __init__(self, da21: np.ndarray, db21: np.ndarray, kind):
        kn, width = da21.shape
        self.n = width - kn
        self.k = kn // self.n
        sel = minbases.selector_matrices(self.k, self.n)
        self.da21, self.db21 = da21, db21
        self.ehat = -sel.e + da21
        self.fhat = sel.f + db21
        self.driver = driver_matrix(kind)
        self.g0, self.g1 = mobius(from_coeff_list([self.ehat, self.fhat]), self.driver).coeffs

    @classmethod
    def unperturbed(cls, k: int, n: int, kind) -> "StarSylvesterOperator":
        zero = np.zeros((k * n, (k + 1) * n))
        return cls(zero, zero, kind)

    def apply(self, y: np.ndarray, zs: np.ndarray):
        """Matrix-free image of the pair (Y, Z), given Y and Z^*."""
        return y @ star(self.g0) + self.ehat @ zs, y @ star(self.g1) + self.fhat @ zs

    def at(self, x: np.ndarray):
        """Matrix-free image of the pair (X, X)."""
        return self.apply(x, star(x))

    def adjoint(self, c0: np.ndarray, c1: np.ndarray):
        """Adjoint map (c0, c1) -> (Y, Z^*) = (c0 G0 + c1 G1, ehat^* c0 + fhat^* c1)."""
        return c0 @ self.g0 + c1 @ self.g1, star(self.ehat) @ c0 + star(self.fhat) @ c1

    def gram(self) -> np.ndarray:
        """T T^* for T = `matrix()`, assembled in O(m^2) without forming T.

        Block (i, j) is the Kronecker sum conj(G_i G_j^*) (x) I + I (x) H_i H_j^*,
        with (H0, H1) = (ehat, fhat): its entry ((a, p), (b, q)) is
        conj(G_i G_j^*)[a, b] [p == q] + [a == b] (H_i H_j^*)[p, q]. Only the
        n = 1 preconditioner and test oracles assemble it.
        """
        kn = self.ehat.shape[0]
        g = (self.g0, self.g1)
        h = (self.ehat, self.fhat)
        out = np.zeros((2, kn, kn, 2, kn, kn), dtype=np.result_type(*g, *h))
        diag = np.arange(kn)
        for i in (0, 1):
            for j in (0, 1):
                block = out[i, :, :, j]
                block[:, diag, :, diag] = np.conj(g[i] @ star(g[j]))
                block[diag, :, diag, :] += h[i] @ star(h[j])
        return out.reshape(2 * kn * kn, 2 * kn * kn)

    def matrix(self) -> np.ndarray:
        """Vectorized 2k^2n^2 x 2k(k+1)n^2 matrix acting on [vec Y; vec Z^*].

        Only `build_TA`, `strukt sigma-min` and test oracles form it; solves
        go through `apply` and `adjoint`.
        """
        eye = np.eye(self.ehat.shape[0])
        top = np.hstack([np.kron(np.conj(self.g0), eye), np.kron(eye, self.ehat)])
        bot = np.hstack([np.kron(np.conj(self.g1), eye), np.kron(eye, self.fhat)])
        return np.vstack([top, bot])

    def gap(self) -> float:
        """Certified lower bound on the smallest singular value of `matrix()`.

        The block columns of dT_A = matrix() - T_A are row permutations of
        [A; C] (x) I and I (x) [da21; db21], with (A, C) the Mobius image of
        (da21, db21); Weyl's inequality then gives the bound below.
        """
        image = mobius(from_coeff_list([self.da21, self.db21]), self.driver).coeffs
        norm_dt = math.hypot(
            np.linalg.norm(np.vstack(image), 2),
            np.linalg.norm(np.vstack([self.da21, self.db21]), 2),
        )
        return sigma_min_formula(self.k) - norm_dt


# ---------------------------------------------------------------------------
# The unperturbed system matrix and its reductions
# ---------------------------------------------------------------------------

def build_TA(k: int, n: int, kind) -> np.ndarray:
    """Unperturbed 2k^2n^2 x 2k(k+1)n^2 system matrix, exact 0/+-1 entries."""
    return StarSylvesterOperator.unperturbed(k, n, kind).matrix()


def build_TA_mid(k: int, n: int, kind) -> np.ndarray:
    """Intermediate reduction with one identity factor peeled off."""
    a = driver_matrix(kind)
    sel_n = minbases.selector_matrices(k, n)
    sel_1 = minbases.selector_matrices(k, 1)
    eye_k = np.eye(k)
    eye_kn = np.eye(k * n)
    top = np.hstack(
        [np.kron(a.b * sel_n.f - a.d * sel_n.e, eye_k), -np.kron(eye_kn, sel_1.e)]
    )
    bot = np.hstack(
        [np.kron(a.a * sel_n.f - a.c * sel_n.e, eye_k), np.kron(eye_kn, sel_1.f)]
    )
    return np.vstack([top, bot])


def build_TA_reduced(k: int, kind) -> np.ndarray:
    """Fully reduced 2k^2 x 2k(k+1) matrix sharing every singular value of the
    full system matrix (each full singular value repeats n^2 times)."""
    a = driver_matrix(kind)
    sel = minbases.selector_matrices(k, 1)
    e, f = sel.e, sel.f
    eye = np.eye(k)
    top = np.hstack([np.kron(eye, a.b * f - a.d * e), -np.kron(e, eye)])
    bot = np.hstack([np.kron(eye, a.a * f - a.c * e), np.kron(f, eye)])
    return np.vstack([top, bot])


def reference_reduced(k: int) -> np.ndarray:
    """The all-positive reduced reference matrix every kind is sign/permutation
    equivalent to."""
    sel = minbases.selector_matrices(k, 1)
    e, f = sel.e, sel.f
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
    """Certified lower bound on the perturbed minimum singular value gap."""
    if not 0 <= norm_dl < 1.0 / (3.0 * k):
        raise ThresholdError(
            f"perturbation norm {norm_dl:.3e} not below 1/(3k) = {1.0 / (3 * k):.3e}",
            value=norm_dl,
            bound=1.0 / (3.0 * k),
        )
    return (math.pi / (4.0 * k)) * (1.0 - 3.0 * k * norm_dl)


# ---------------------------------------------------------------------------
# Minimum-norm solves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Reference:
    """The unperturbed system T_A at one block size n. T_A(n) is a row and
    column permutation of T_A(1) (x) I_{n^2}, so its Gram inverse and its
    sigma_min are those of the n = 1 reduction."""

    #: Inverse of the n = 1 Gram matrix, rows and columns in the order
    #: (equation, row block, column block) of `_MinNormSolver.precondition`.
    pinv: np.ndarray
    #: sigma_min(T_A), from an eigvalsh of the same Gram matrix, not the formula.
    sigma_min: float
    #: The unperturbed blocks [G0; G1] and [H0; H1] at n.
    g: np.ndarray
    h: np.ndarray


@functools.lru_cache(maxsize=None)
def _reference(k: int, n: int, driver) -> _Reference:
    gram = StarSylvesterOperator.unperturbed(k, 1, driver).gram()
    # gram() orders each equation's entries column-major; swap to row-major.
    gram = gram.reshape(2, k, k, 2, k, k).transpose(0, 2, 1, 3, 5, 4).reshape(2 * k * k, -1)
    op = StarSylvesterOperator.unperturbed(k, n, driver)
    ref = _Reference(
        np.linalg.inv(gram),
        math.sqrt(np.linalg.eigvalsh(gram)[0]),
        np.vstack([op.g0, op.g1]),
        np.vstack([op.ehat, op.fhat]),
    )
    for a in (ref.pinv, ref.g, ref.h):
        a.setflags(write=False)
    return ref


def _weyl_bound(op: StarSylvesterOperator):
    """(sigma_min(T_A) - b, nu) for the map that `op.apply` computes.

    b bounds ||dT||_2, dT = T - T_A, from the differences of op's own blocks
    [G0; G1] and [H0; H1] and the unperturbed ones: the two block columns of
    dT are row permutations of [dG0; dG1] (x) I and I (x) [dH0; dH1], so
    ||dT||_2 is at most the hypot of their spectral norms. nu =
    sqrt(max diag T T^*) is the largest row norm of T: a row of equation i
    pairs a row of G_i with a row of H_i.
    """
    ref = _reference(op.k, op.n, op.driver)
    g = np.vstack([op.g0, op.g1])
    h = np.vstack([op.ehat, op.fhat])
    norm_dt = math.hypot(
        np.linalg.svd(g - ref.g, compute_uv=False)[0],
        np.linalg.svd(h - ref.h, compute_uv=False)[0],
    )
    row_g, row_h = (np.max((np.abs(b) ** 2).sum(axis=1).reshape(2, -1), axis=1) for b in (g, h))
    return ref.sigma_min - norm_dt, math.sqrt(float(np.max(row_g + row_h)))


class _MinNormSolver:
    """Minimum-norm solves with a wide operator T whose smallest singular
    value is certified to be at least ``delta``:
    (Y, Z^*) = T^* w with T T^* w = (c0, c1).

    A gap delta <= 0 is refused with `ThresholdError`. The certificate is
    then checked on the operator's own blocks by Weyl's inequality:
    sigma_min(T) >= sigma_min(T_A) - ||dT||_2 >= `_weyl_bound(op)`, with
    sigma_min(T_A) from an eigvalsh of the unperturbed n = 1 Gram matrix and
    ||dT||_2 bounded by two SVDs of O(kn) size. If that bound is below
    delta - 1e-12*nu, nu the largest row norm of T, the solver refuses with
    `NumericalError`. Nothing of size m x m, m = 2k^2n^2, is formed. The
    check is independent of `sigma_min_formula` and of `op.gap()`, and it
    refuses a delta above the Weyl bound even where delta is below the
    true sigma_min.

    Each solve then runs `polycore.pcg` on T T^* w = (c0, c1), applying
    T T^* as `apply` after `adjoint`. The preconditioner is the inverse of
    the unperturbed Gram matrix: at zero perturbation T is a row and column
    permutation of its n = 1 reduction (x) I_{n^2}, so that inverse is one
    2k^2 x 2k^2 matrix applied to n^2 channels.
    """

    def __init__(self, op: StarSylvesterOperator, delta: float):
        if delta <= 0:
            raise ThresholdError(
                "perturbed system matrix may be rank deficient "
                f"(singular value gap {delta:.3e} <= 0)",
                value=delta,
                bound=0.0,
            )
        bound, nu = _weyl_bound(op)
        if bound < delta - 1e-12 * nu:
            raise NumericalError(
                f"the certified gap {delta:.3e} exceeds the computed Weyl bound "
                f"{bound:.3e} on the smallest singular value"
            )
        self.op = op
        self.pinv = _reference(op.k, op.n, op.driver).pinv
        #: CG iterations of the latest `solve`.
        self.iterations = 0

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """Inverse of the unperturbed Gram matrix applied to a (2, kn, kn)
        stack, whose Kronecker blocks become n^2 channels of `pinv`."""
        k, n = self.op.k, self.op.n
        channels = r.reshape(2, k, n, k, n).transpose(0, 1, 3, 2, 4).reshape(2 * k * k, n * n)
        out = (self.pinv @ channels).reshape(2, k, k, n, n)
        return out.transpose(0, 1, 3, 2, 4).reshape(r.shape)

    def _gram_apply(self, w: np.ndarray) -> np.ndarray:
        return np.stack(self.op.apply(*self.op.adjoint(w[0], w[1])))

    def solve(self, c0: np.ndarray, c1: np.ndarray):
        """Minimum Frobenius norm (Y, Z^*) with op.apply(Y, Z^*) = (c0, c1).

        Raises `NumericalError` unless the residual is within 1e-12 of
        ||(c0, c1)||_F; the solution obeys ||(Y, Z)||_F <= ||(c0, c1)||_F / delta.
        """
        w, self.iterations = pcg(self._gram_apply, self.precondition, np.stack([c0, c1]))
        y, zs = self.op.adjoint(w[0], w[1])
        r0, r1 = self.op.apply(y, zs)
        resid = pair_norm(r0 - c0, r1 - c1)
        if resid > 1e-12 * max(pair_norm(c0, c1), 1e-300):
            raise NumericalError(f"Sylvester solve residual {resid:.3e} above 1e-12 relative")
        return y, zs


# ---------------------------------------------------------------------------
# Quadratic fixed point
# ---------------------------------------------------------------------------

@dataclass
class FixedPointState:
    """Outcome of the quadratic star-Sylvester iteration."""

    x: np.ndarray
    delta: float
    theta: float
    omega: float
    kappa1: float
    kappa: float
    rho0: float
    residuals: list = field(default_factory=list)
    x_norms: list = field(default_factory=list)
    solve_iterations: list = field(default_factory=list)  # CG iterations per sweep
    iterations: int = 0
    converged: bool = False

    @property
    def norm_bound(self) -> float:
        """Guaranteed bound 2*theta/delta on the solution norm."""
        return 2.0 * self.theta / self.delta if self.delta > 0 else math.inf


def quadratic_fixed_point(
    pert,
    m0: np.ndarray,
    m1: np.ndarray,
    kind,
    tol: float | None = None,
) -> FixedPointState:
    """Solve the quadratic star-Sylvester system that rezeroes the (2,2) block.

    ``pert`` is any object exposing the six natural perturbation blocks as
    attributes da11, db11, da21, db21, da22, db22. Each sweep solves the
    linearized coupled system at minimum norm and averages; admissibility
    requires delta > 0 and theta*omega/delta^2 < 1/4. Averaging is exact
    because every sweep's right-hand pencil carries the structure. A solve
    residual above 1e-12 relative raises `NumericalError` at its sweep; the
    iteration stops once the fixed-point residual is at most ``tol``
    (default 1e-13*max(1, theta)) and raises `ConvergenceError` after 100
    sweeps.
    """
    op = StarSylvesterOperator(pert.da21, pert.db21, kind)
    w0 = m0 + pert.da11
    w1 = m1 + pert.db11
    theta = pair_norm(pert.da22, pert.db22)
    omega = pair_norm(w0, w1)

    delta = op.gap()
    solver = _MinNormSolver(op, delta)
    kappa1 = theta * omega / delta**2
    if kappa1 >= 0.25:
        raise ThresholdError(
            f"contraction condition violated: theta*omega/delta^2 = {kappa1:.3e} >= 1/4",
            value=kappa1,
            bound=0.25,
        )
    kappa = 0.0
    if kappa1 > 0:
        kappa = 2.0 * kappa1 / (1.0 - 2.0 * kappa1 + math.sqrt(1.0 - 4.0 * kappa1))
    if tol is None:
        tol = 1e-13 * max(1.0, theta)

    state = FixedPointState(
        x=np.zeros_like(op.ehat),
        delta=delta,
        theta=theta,
        omega=omega,
        kappa1=kappa1,
        kappa=kappa,
        rho0=theta / delta,
    )

    # q = (X w0 X^*, X w1 X^*) at the current iterate, shared by its residual
    # and the next right-hand side.
    q0 = q1 = np.zeros_like(pert.da22)
    for it in range(1, 101):
        y, zs = solver.solve(-pert.da22 - q0, -pert.db22 - q1)
        x = (y + star(zs)) / 2.0
        q0, q1 = x @ w0 @ star(x), x @ w1 @ star(x)
        r0, r1 = op.at(x)
        resid = pair_norm(r0 + pert.da22 + q0, r1 + pert.db22 + q1)
        state.x = x
        state.residuals.append(resid)
        state.x_norms.append(float(np.linalg.norm(x)))
        state.solve_iterations.append(solver.iterations)
        state.iterations = it
        if resid <= tol:
            state.converged = True
            return state
    raise ConvergenceError(
        f"fixed point did not reach {tol:.3e} in 100 sweeps "
        f"(last residual {state.residuals[-1]:.3e})"
    )
