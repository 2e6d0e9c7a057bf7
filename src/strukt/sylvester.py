"""Star-Sylvester machinery behind the congruence that rezeroes a perturbed
pencil's trailing block.

The linear step vectorizes a pair of coupled Sylvester equations into one
underdetermined system whose matrix has exact 0/+-1 entries and minimum
singular value 2*sin(pi/(4k)) for every structure kind and every block size.
Its minimum-norm solver never forms T or T T^*. It computes the certified
gap delta once, by Weyl's inequality on the operator's own blocks, with
sigma_min of the unperturbed system taken from its n = 1 Gram matrix. It
then solves T T^* w = c by conjugate gradients preconditioned with the
unperturbed Gram inverse, which is its n = 1 reduction applied to n^2
channels, and returns T^* w. The quadratic step wraps the linear solve in a
fixed-point iteration whose convergence is certified by delta > 0 and
theta*omega/delta^2 < 1/4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import minbases
from .errors import ConvergenceError, NumericalError, ThresholdError
from .linearize import split_natural_partition
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

    def matrix(self) -> np.ndarray:
        """Vectorized 2k^2n^2 x 2k(k+1)n^2 matrix acting on [vec Y; vec Z^*].

        Only `build_TA`, `strukt sigma-min` and test oracles form it; the
        solver reads the gap off the operator's blocks and solves through
        `apply` and `adjoint`.
        """
        eye = np.eye(self.ehat.shape[0])
        top = np.hstack([np.kron(np.conj(self.g0), eye), np.kron(eye, self.ehat)])
        bot = np.hstack([np.kron(np.conj(self.g1), eye), np.kron(eye, self.fhat)])
        return np.vstack([top, bot])


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
    #: A lower bound on sigma_min(T_A), from an eigvalsh of the same Gram
    #: matrix less its rounding allowance, not from the formula.
    sigma_min: float
    #: The unperturbed blocks [G0; G1] and [H0; H1] at n.
    g: np.ndarray
    h: np.ndarray


_EPS = float(np.finfo(float).eps)


@functools.lru_cache(maxsize=None)
def _reference(k: int, n: int, driver) -> _Reference:
    # T T^* at n = 1 applied to each unit vector of the row-major
    # (equation, row, column) basis, the order `precondition` uses.
    op1 = StarSylvesterOperator.unperturbed(k, 1, driver)
    basis = np.eye(2 * k * k).reshape(-1, 2, k, k)
    gram = np.stack(op1.apply(*op1.adjoint(basis[:, 0], basis[:, 1])), axis=1)
    gram = gram.reshape(2 * k * k, -1)
    op = StarSylvesterOperator.unperturbed(k, n, driver)
    # eigvalsh is backward stable: each computed eigenvalue is within a small
    # multiple of eps*||G||_2 of an exact one, so lambda_min less 2k^2*eps*||G||_F
    # bounds the exact one from below.
    lam = np.linalg.eigvalsh(gram)[0] - gram.shape[0] * _EPS * np.linalg.norm(gram)
    ref = _Reference(
        np.linalg.inv(gram),
        math.sqrt(max(lam, 0.0)),
        np.vstack([op.g0, op.g1]),
        np.vstack([op.ehat, op.fhat]),
    )
    for a in (ref.pinv, ref.g, ref.h):
        a.setflags(write=False)
    return ref


class _MinNormSolver:
    """Minimum-norm solves with a wide operator T:
    (Y, Z^*) = T^* w with T T^* w = (c0, c1).

    ``delta`` is the certified lower bound on sigma_min(T) that Weyl's
    inequality gives on the operator's own blocks:
    sigma_min(T) >= sigma_min(T_A) - ||dT||_2 >= delta. sigma_min(T_A) comes
    from an eigvalsh of the unperturbed n = 1 Gram matrix, less an allowance
    for its rounding, not from `sigma_min_formula`. The two block columns of
    dT = T - T_A are row permutations of [dG0; dG1] (x) I and I (x) [dH0; dH1],
    the differences of the blocks [G0; G1] and [H0; H1] that `apply` uses
    from the unperturbed ones, so ||dT||_2 is at most the hypot of their
    spectral norms: two SVDs of O(kn) size. A gap delta <= 0 is refused with `ThresholdError`.
    Nothing of size m x m, m = 2k^2n^2, is formed.

    Each solve runs `polycore.pcg` on T T^* w = (c0, c1), applying T T^* as
    `apply` after `adjoint`. The preconditioner is the inverse of the
    unperturbed Gram matrix: at zero perturbation T is a row and column
    permutation of its n = 1 reduction (x) I_{n^2}, so that inverse is one
    2k^2 x 2k^2 matrix applied to n^2 channels.
    """

    def __init__(self, op: StarSylvesterOperator):
        ref = _reference(op.k, op.n, op.driver)
        norm_dt = math.hypot(
            np.linalg.svd(np.vstack([op.g0, op.g1]) - ref.g, compute_uv=False)[0],
            np.linalg.svd(np.vstack([op.ehat, op.fhat]) - ref.h, compute_uv=False)[0],
        )
        # ||dT||_2 rounds up and the difference down, so delta never exceeds
        # the exact sigma_min - ||dT||_2 of these inputs.
        self.delta = math.nextafter(
            ref.sigma_min - math.nextafter(norm_dt, math.inf), -math.inf
        )
        if self.delta <= 0:
            raise ThresholdError(
                "perturbed system matrix may be rank deficient "
                f"(singular value gap {self.delta:.3e} <= 0)",
                value=self.delta,
                bound=0.0,
            )
        self.op = op
        self.pinv = ref.pinv
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
        ||(c0, c1)||_F; the solution obeys ||(Y, Z)||_F <= ||(c0, c1)||_F / `delta`.
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


def quadratic_fixed_point(pert, m0: np.ndarray, m1: np.ndarray) -> FixedPointState:
    """Solve the quadratic star-Sylvester system that rezeroes the (2,2) block.

    ``pert`` is a `backward.StructuredPerturbation`; its natural-partition
    blocks are cut once from its pencil, and its kind fixes the operator.
    Each sweep solves the linearized coupled system at minimum norm and
    averages; admissibility requires delta > 0 and theta*omega/delta^2 < 1/4.
    Averaging is exact because every sweep's right-hand pencil carries the
    structure. A solve residual above 1e-12 relative raises `NumericalError`
    at its sweep; the iteration stops once the fixed-point residual is at
    most 1e-12*theta (at theta = 0 the first sweep's residual is exactly 0)
    and raises `ConvergenceError` after 100 sweeps.
    """
    d11, d21, _, d22 = split_natural_partition(pert.pencil, pert.k, pert.n)
    (da11, db11), (da21, db21), (da22, db22) = d11.coeffs, d21.coeffs, d22.coeffs
    op = StarSylvesterOperator(da21, db21, pert.kind)
    w0 = m0 + da11
    w1 = m1 + db11
    theta = pair_norm(da22, db22)
    omega = pair_norm(w0, w1)

    solver = _MinNormSolver(op)
    delta = solver.delta
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
    tol = 1e-12 * theta

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
    q0 = q1 = np.zeros_like(da22)
    for it in range(1, 101):
        y, zs = solver.solve(-da22 - q0, -db22 - q1)
        x = (y + star(zs)) / 2.0
        q0, q1 = x @ w0 @ star(x), x @ w1 @ star(x)
        r0, r1 = op.at(x)
        resid = pair_norm(r0 + da22 + q0, r1 + db22 + q1)
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
