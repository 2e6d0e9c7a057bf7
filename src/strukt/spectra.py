"""Independent spectral verification: generalized eigenvalues of pencils,
reference polynomial eigenvalues via an unstructured companion form, spectral
symmetry scoring per structure class, and minimal-index estimation for
singular polynomials.

Eigenvalues are kept as projective pairs (alpha, beta); beta near zero marks
an infinite eigenvalue, and all comparisons run in the chordal metric
|a*b' - a'*b| / (||(a,b)|| ||(a',b')||), which treats infinity uniformly.

scipy is imported on first use, inside `pencil_eigs` (QZ) and `compare_spectra`
(chordal matching), so `import strukt` and the non-spectral paths never load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import minbases, polycore
from .errors import SingularPolynomialError, SpectrumMismatchError, StruktError
from .polycore import MatrixPolynomial, StructureKind

INFINITE_BETA_TOL = 1e-12


@dataclass(frozen=True)
class SpectrumReport:
    """Projective eigenvalue pairs, normalized and deterministically ordered."""

    alpha: np.ndarray
    beta: np.ndarray

    def __len__(self) -> int:
        return self.alpha.size

    @property
    def infinite_mask(self) -> np.ndarray:
        return np.abs(self.beta) <= INFINITE_BETA_TOL

    @property
    def n_infinite(self) -> int:
        return int(np.count_nonzero(self.infinite_mask))

    def finite_values(self) -> np.ndarray:
        mask = ~self.infinite_mask
        return self.alpha[mask] / self.beta[mask]


def _normalize_pairs(alpha: np.ndarray, beta: np.ndarray) -> SpectrumReport:
    alpha = np.asarray(alpha, dtype=complex).copy()
    beta = np.asarray(beta, dtype=complex).copy()
    norms = np.hypot(np.abs(alpha), np.abs(beta))
    if np.any(norms == 0):
        raise StruktError("degenerate (0, 0) eigenvalue pair; pencil is singular")
    alpha /= norms
    beta /= norms
    # canonical phase: beta real nonnegative, falling back to alpha at infinity
    ref = np.where(np.abs(beta) > INFINITE_BETA_TOL, beta, alpha)
    phase = ref / np.abs(ref)
    alpha /= phase
    beta /= phase
    inf_mask = np.abs(beta) <= INFINITE_BETA_TOL
    order = np.lexsort((alpha.imag, alpha.real, inf_mask))
    return SpectrumReport(alpha=alpha[order], beta=beta[order])


def pencil_eigs(l0: np.ndarray, l1: np.ndarray) -> SpectrumReport:
    """Projective eigenvalues of the pencil l*L1 + L0 via the QZ backend."""
    l0 = np.asarray(l0)
    l1 = np.asarray(l1)
    if l0.shape != l1.shape or l0.shape[0] != l0.shape[1]:
        raise ValueError("pencil coefficients must be square and equally sized")
    # deferred: only the spectral checks need scipy, and importing it at
    # module level cost every process ~0.5 s and ~40 MB (2-vCPU host)
    import scipy.linalg

    w = scipy.linalg.eig(l0, -l1, right=False, homogeneous_eigvals=True)
    return _normalize_pairs(w[0], w[1])


def companion_pencil(p: MatrixPolynomial):
    """First companion-form linearization of grade g, an unstructured oracle."""
    g, n = p.grade, p.rows
    if g < 1:
        raise ValueError("companion form needs grade >= 1")
    size = g * n
    c1 = np.zeros((size, size), dtype=p.coeffs.dtype)
    c0 = np.zeros_like(c1)
    c1[:n, :n] = p.coefficient(g)
    c1[n:, n:] = np.eye((g - 1) * n)
    for i in range(g):
        c0[:n, i * n:(i + 1) * n] = p.coefficient(g - 1 - i)
    for i in range(g - 1):
        c0[(i + 1) * n:(i + 2) * n, i * n:(i + 1) * n] = -np.eye(n)
    return c0, c1


def _regularity_samples(p: MatrixPolynomial):
    count = 2 * max(p.grade, 1) * p.rows + 3
    return [1.1 * np.exp(2j * np.pi * t / count) for t in range(count)]


def is_regular(p: MatrixPolynomial, tol: float = 1e-10) -> bool:
    """Probabilistic regularity test by full-rank evaluation on a circle."""
    if not p.is_square:
        return False
    for pt in _regularity_samples(p):
        s = np.linalg.svd(polycore.evaluate(p, pt), compute_uv=False)
        if s[0] > 0 and s[-1] > tol * s[0]:
            return True
    return False


def reference_polyeigs(p: MatrixPolynomial) -> SpectrumReport:
    """Eigenvalues of P through an unstructured companion linearization.

    Counts finite plus infinite eigenvalues at grade times size; raises for
    (numerically) singular polynomials, whose spectra are not well posed.
    """
    if not p.is_square:
        raise ValueError("polynomial eigenvalues require a square polynomial")
    polycore.require_finite(p)
    if not is_regular(p):
        raise SingularPolynomialError(
            "polynomial is singular; use minimal_indices instead"
        )
    c0, c1 = companion_pencil(p)
    return pencil_eigs(c0, c1)


# ---------------------------------------------------------------------------
# Chordal matching and symmetry scores
# ---------------------------------------------------------------------------

def _chordal_matrix(a: SpectrumReport, b: SpectrumReport) -> np.ndarray:
    # pairs are normalized to unit norm, so the denominator is one
    return np.abs(
        np.outer(a.alpha, b.beta) - np.outer(a.beta, b.alpha)
    )


@dataclass(frozen=True)
class SpectrumMatch:
    max_distance: float
    distances: np.ndarray
    unmatched: int


def compare_spectra(
    a: SpectrumReport, b: SpectrumReport, tol: float = 1e-8
) -> SpectrumMatch:
    """Minimum-cost perfect matching between two spectra in the chordal metric."""
    if len(a) != len(b):
        raise SpectrumMismatchError(
            f"cardinality mismatch: {len(a)} vs {len(b)} eigenvalues"
        )
    from scipy.optimize import linear_sum_assignment  # deferred, as in pencil_eigs

    cost = _chordal_matrix(a, b)
    rows, cols = linear_sum_assignment(cost)
    dists = cost[rows, cols]
    return SpectrumMatch(
        max_distance=float(dists.max(initial=0.0)),
        distances=dists,
        unmatched=int(np.count_nonzero(dists > tol)),
    )


_INVOLUTIONS = {
    StructureKind.palindromic: lambda a, b: (np.conj(b), np.conj(a)),
    StructureKind.anti_palindromic: lambda a, b: (np.conj(b), np.conj(a)),
    StructureKind.even: lambda a, b: (-np.conj(a), np.conj(b)),
    StructureKind.odd: lambda a, b: (-np.conj(a), np.conj(b)),
    StructureKind.symmetric: lambda a, b: (np.conj(a), np.conj(b)),
    StructureKind.skew_symmetric: lambda a, b: (np.conj(a), np.conj(b)),
}


def symmetry_check(spec: SpectrumReport, kind: StructureKind) -> float:
    """Max chordal mismatch of the spectrum against its structural involution.

    Palindromic kinds pair l with 1/conj(l) (zero with infinity), alternating
    kinds pair l with -conj(l), and the symmetric kinds demand closure under
    conjugation. These are the pairings of the conjugate-transpose structures
    on complex coefficients; on real ones the spectrum is also closed under
    conjugation, so they hold there too. A perfectly symmetric spectrum
    scores zero; fixed points match themselves.
    """
    alpha, beta = _INVOLUTIONS[kind](spec.alpha, spec.beta)
    image = _normalize_pairs(alpha, beta)
    return compare_spectra(spec, image).max_distance


# ---------------------------------------------------------------------------
# Minimal indices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinimalIndexReport:
    right: tuple
    left: tuple
    normal_rank: int
    degrees_searched: int
    complete: bool


def _numerical_rank(mat: np.ndarray, tol: float) -> int:
    if min(mat.shape) == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    if s[0] == 0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def normal_rank(p: MatrixPolynomial, tol: float = 1e-10) -> int:
    """Largest evaluation rank over a deterministic sample sweep."""
    best = 0
    for pt in _regularity_samples(p):
        best = max(best, _numerical_rank(polycore.evaluate(p, pt), tol))
    return best


def _right_indices(p: MatrixPolynomial, max_degree: int, tol: float):
    deficiency = p.cols - normal_rank(p, tol)
    if deficiency == 0:
        return (), True
    counts_by_value = []
    prev_nullity = 0
    prev_r = 0
    found = 0
    for d in range(max_degree + 1):
        conv = minbases.convolution_matrix(p, d)
        nullity = conv.shape[1] - _numerical_rank(conv, tol)
        r = nullity - prev_nullity
        counts_by_value.append(max(r - prev_r, 0))
        found = r
        prev_nullity, prev_r = nullity, r
        if found >= deficiency:
            break
    indices = []
    for value, count in enumerate(counts_by_value):
        indices.extend([value] * count)
    return tuple(sorted(indices)), found >= deficiency


def minimal_indices(
    p: MatrixPolynomial, max_degree: int | None = None, tol: float = 1e-10
) -> MinimalIndexReport:
    """Right and left minimal indices by null-space degree search.

    The nullity of the degree-d convolution matrix counts null vectors of
    degree at most d; first differences count indices <= d and second
    differences give the multiplicity of each index value.  Left indices come
    from the plain transpose.  If max_degree is too small to exhaust the rank
    deficiency the report is flagged incomplete.
    """
    if max_degree is None:
        max_degree = max(1, p.grade) * max(1, min(p.rows, p.cols))
    right, right_done = _right_indices(p, max_degree, tol)
    left, left_done = _right_indices(polycore.transpose_poly(p), max_degree, tol)
    return MinimalIndexReport(
        right=right,
        left=left,
        normal_rank=normal_rank(p, tol),
        degrees_searched=max_degree,
        complete=right_done and left_done,
    )
