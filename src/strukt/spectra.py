"""Independent spectral verification: generalized eigenvalues of pencils,
reference polynomial eigenvalues via an unstructured companion form, spectral
symmetry scoring per structure class, and minimal-index estimation for
singular polynomials.

Eigenvalues are kept as projective pairs (alpha, beta); beta near zero marks
an infinite eigenvalue, and all comparisons run in the chordal metric
|a*b' - a'*b| / (||(a,b)|| ||(a',b')||), which treats infinity uniformly.

Spectra are matched by `_assign`, a numpy transcription of the assignment
solver that scipy.optimize.linear_sum_assignment runs (Crouse, "On implementing
2D rectangular assignment algorithms", IEEE TAES 52(4), 2016). It returns
scipy's columns on every input, so matchings and their distances are the ones
scipy gives, bit for bit. It has two layers: a row settles from its cached
first step when that step has a unique minimum on a free column, and any
other row runs the generic augmenting path. Cached first steps are valid
while the column duals are unchanged, so an augment that moves a dual
rescans all later rows. scipy.linalg, imported on first use inside
`pencil_eigs` (QZ), is the only scipy module strukt loads: `import strukt` and
the non-spectral paths never load scipy at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import minbases, polycore
from .errors import SingularPolynomialError, SpectrumMismatchError, StruktError
from .polycore import MatrixPolynomial, StructureKind

INFINITE_BETA_TOL = 1e-12
REGULARITY_TOL = 1e-10


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


def _binary_scaled(*arrays):
    """``arrays`` times one power of two 2^s, exact but for underflow. s = 0,
    and the arrays themselves come back, while the largest entry lies in
    [2^-500, 2^500) or is 0 or not finite; else s is the multiple of 1000
    that brings it there. QZ is not bitwise scale-invariant, so in-range
    input keeps its bytes, and 2^+-1000 P gives the pairs of P bit for bit."""
    s = -1000 * ((math.frexp(polycore._peak(*arrays))[1] + 499) // 1000)
    return arrays if s == 0 else tuple(_ldexp(a, s) for a in arrays)


def _ldexp(a: np.ndarray, s: int) -> np.ndarray:
    """``a`` times 2^s, real and imaginary parts apart."""
    if a.dtype.kind != "c":
        return np.ldexp(a, s)
    out = np.empty_like(a)
    out.real, out.imag = np.ldexp(a.real, s), np.ldexp(a.imag, s)
    return out


def _scaled_poly(p: MatrixPolynomial) -> MatrixPolynomial:
    """P by `_binary_scaled`: P itself when in range."""
    (coeffs,) = _binary_scaled(p.coeffs)
    return p if coeffs is p.coeffs else MatrixPolynomial(coeffs)


def pencil_eigs(l0: np.ndarray, l1: np.ndarray) -> SpectrumReport:
    """Projective eigenvalues of the pencil l*L1 + L0 via the QZ backend,
    run on the pencil brought into range by `_binary_scaled`."""
    l0 = np.asarray(l0)
    l1 = np.asarray(l1)
    if l0.shape != l1.shape or l0.shape[0] != l0.shape[1]:
        raise ValueError("pencil coefficients must be square and equally sized")
    l0, l1 = _binary_scaled(l0, l1)
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


def is_regular(p: MatrixPolynomial) -> bool:
    """Probabilistic regularity test: P is square and `normal_rank` finds a
    point of a circle where sigma_min > REGULARITY_TOL sigma_max."""
    return p.is_square and normal_rank(p, REGULARITY_TOL) == p.rows


def reference_polyeigs(p: MatrixPolynomial) -> SpectrumReport:
    """Eigenvalues of P through an unstructured companion linearization.

    Counts finite plus infinite eigenvalues at grade times size; raises for
    (numerically) singular polynomials, whose spectra are not well posed.
    P is brought into range by `_binary_scaled` before the regularity test,
    as the companion form's identity blocks would not scale with it.
    """
    if not p.is_square:
        raise ValueError("polynomial eigenvalues require a square polynomial")
    polycore.require_finite(p)
    p = _scaled_poly(p)
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


def _first_steps(r: np.ndarray):
    """First augmenting step of each row of reduced costs r = c - v: the
    column of the row minimum, its value, and whether no other column ties."""
    rows = np.arange(r.shape[0])
    best = r.argmin(axis=1)
    low = r[rows, best]
    ties = r == low[:, None]
    ties[rows, best] = False
    return best, low, ~ties.any(axis=1)


def _assign(cost: np.ndarray) -> np.ndarray:
    """Column matched to each row by a minimum-cost perfect matching of a
    finite square cost matrix.

    This is the shortest augmenting path solver of Crouse (IEEE TAES 52(4),
    2016) as scipy.optimize.linear_sum_assignment runs it for a square
    minimization: rows are augmented in order, reduced costs are the float
    expression ((minVal + c_ij) - u_i) - v_j, the remaining columns are
    scanned from n-1 down to 0 with swap-removes, and among equal minima the
    last free column in that order wins, else the first. So it returns
    scipy's columns on every input. Two layers keep it fast on the
    near-permutation matrices of matched spectra:

    - A row whose first step has a unique minimum on a free column is a
      one-step augment that sets u_i and leaves v alone. One argmin pass
      (`_first_steps`) caches the first step of every row.
    - Any other row runs the generic `_augment`.

    The one invariant: a cached first step is valid while v is unchanged, so
    an augment that moves a column dual rescans all later rows.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    u = [0.0] * n
    v = np.zeros(n)
    row4col = [-1] * n
    col4row = [-1] * n
    best, low, unique = (a.tolist() for a in _first_steps(cost))
    for i in range(n):
        j = best[i]
        if unique[i] and row4col[j] < 0:
            row4col[j], col4row[i] = i, j
            u[i] = 0.0 + low[i]
        elif _augment(cost, u, v, row4col, col4row, i):
            best[i + 1:], low[i + 1:], unique[i + 1:] = (
                a.tolist() for a in _first_steps(cost[i + 1:] - v)
            )
    return np.array(col4row, dtype=np.intp)


def _augment(cost, u, v, row4col, col4row, cur) -> bool:
    """Scipy's augmenting path step for row cur, then its dual update and
    augmentation. Shortest-path costs and paths are kept aligned with the
    remaining columns. Returns whether any column dual v moved."""
    n = v.size
    remaining = np.arange(n - 1, -1, -1)
    spc = np.full(n, np.inf)
    path = np.full(n, cur)
    reached = []  # (column, its shortest-path cost, its path row), in scan order
    i, min_val, k = cur, 0.0, n
    while True:
        cols = remaining[:k]
        r = ((min_val + cost[i, cols]) - u[i]) - v[cols]
        s = spc[:k]
        better = r < s
        s[better] = r[better]
        path[:k][better] = i
        min_val = float(s.min())
        ties = np.flatnonzero(s == min_val).tolist()
        free = [t for t in ties if row4col[remaining[t]] < 0]
        index = free[-1] if free else ties[0]
        j = int(remaining[index])
        reached.append((j, min_val, int(path[index])))
        k -= 1
        remaining[index], spc[index], path[index] = remaining[k], spc[k], path[k]
        if row4col[j] < 0:
            break
        i = row4col[j]
    u[cur] += min_val
    moved = False
    # the sink's own dual moves by min_val - min_val = 0
    for j, cost_j, _ in reached[:-1]:
        step = min_val - cost_j
        u[row4col[j]] += step
        old = v[j]
        v[j] -= step
        moved = moved or v[j] != old
    back = {j: row for j, _, row in reached}
    j = reached[-1][0]
    while True:
        i = back[j]
        row4col[j] = i
        col4row[i], j = j, col4row[i]
        if i == cur:
            return moved


@dataclass(frozen=True)
class SpectrumMatch:
    max_distance: float


def compare_spectra(a: SpectrumReport, b: SpectrumReport) -> SpectrumMatch:
    """Minimum-cost perfect matching between two spectra in the chordal metric.

    The matching is `_assign`, the algorithm of Crouse (2016) that
    scipy.optimize.linear_sum_assignment implements; it returns scipy's
    assignment on every input, so the distances are byte-identical to
    scipy's.
    """
    if len(a) != len(b):
        raise SpectrumMismatchError(
            f"cardinality mismatch: {len(a)} vs {len(b)} eigenvalues"
        )
    cost = _chordal_matrix(a, b)
    dists = cost[np.arange(len(a)), _assign(cost)]
    return SpectrumMatch(max_distance=float(dists.max(initial=0.0)))


def symmetry_check(spec: SpectrumReport, kind: StructureKind) -> float:
    """Max chordal mismatch of the spectrum against its structural pairing.

    The pairing is the kind's Mobius map. With A = [[a, b], [c, d]] =
    ``kind.mobius``, a structured P of grade g obeys
    P^*(l) = (cl+d)^g P(Mob(l)), Mob(l) = (al+b)/(cl+d), and
    l is in spec(P^*) exactly when conj(l) is in spec(P). So mu in spec(P)
    has its partner Mob(conj(mu)) in spec(P): the projective pair
    (alpha, beta) maps to (a*conj(alpha) + b*conj(beta),
    c*conj(alpha) + d*conj(beta)). This pairs l with 1/conj(l) for the
    palindromic kinds (zero with infinity), with -conj(l) for the
    alternating ones, and with conj(l) for the symmetric ones. These are
    the pairings of the conjugate-transpose structures on complex
    coefficients; on real ones the spectrum is also closed under
    conjugation, so they hold there too. A perfectly symmetric spectrum
    scores zero; fixed points match themselves.
    """
    a = kind.mobius
    alpha, beta = np.conj(spec.alpha), np.conj(spec.beta)
    image = _normalize_pairs(a.a * alpha + a.b * beta, a.c * alpha + a.d * beta)
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
    """Largest evaluation rank over a deterministic sample sweep, which stops
    at the first sample of full rank min(rows, cols). P is evaluated brought
    into range by `_binary_scaled`, so no evaluation overflows."""
    p = _scaled_poly(p)
    best, full = 0, min(p.shape)
    for pt in _regularity_samples(p):
        best = max(best, _numerical_rank(polycore.evaluate(p, pt), tol))
        if best == full:
            break
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
