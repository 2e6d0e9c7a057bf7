"""Dense reductions and a-priori bounds of the star-Sylvester system that
only the tests read: the paper's proof objects, checked against the library's
operator and solver."""

import math

import numpy as np

from strukt import minbases
from strukt.errors import ThresholdError
from strukt.polycore import driver_matrix


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
    """A-priori lower bound on the perturbed minimum singular value gap."""
    if not 0 <= norm_dl < 1.0 / (3.0 * k):
        raise ThresholdError(
            f"perturbation norm {norm_dl:.3e} not below 1/(3k) = {1.0 / (3 * k):.3e}",
            value=norm_dl,
            bound=1.0 / (3.0 * k),
        )
    return (math.pi / (4.0 * k)) * (1.0 - 3.0 * k * norm_dl)
