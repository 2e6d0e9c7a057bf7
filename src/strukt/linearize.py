"""Structure-preserving block Kronecker pencils for odd-grade polynomials.

Given a structured polynomial P of odd grade g = 2k+1, a linearization is
assembled in three steps: place the coefficients of P into a (k+1)n square
pencil M satisfying the kind's block-coefficient condition, average M with its
substituted adjoint so it carries the structure itself, and embed it into the
2x2 block pencil [[M, B12], [L_k (x) I_n, 0]] whose off-diagonal blocks are
the canonical bidiagonal basis and its substituted adjoint.  `recover` maps a
built or perturbed pencil back to the polynomial it linearizes; on a built
pencil that is an exact coefficient convolution, the inverse of the builder,
normalizing the sign that the negated structure kinds introduce at odd k.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import minbases, polycore
from .errors import GradeError, StruktError
from .polycore import MatrixPolynomial, StructureKind, star, structure_project


def natural_blocks(coeffs: np.ndarray, k: int, n: int):
    """Views (11, 21, 12, 22) of the natural partition of a (grade+1, (2k+1)n,
    (2k+1)n) coefficient stack; the (1,1) block is (k+1)n square."""
    top = (k + 1) * n
    return (
        coeffs[:, :top, :top],
        coeffs[:, top:, :top],
        coeffs[:, :top, top:],
        coeffs[:, top:, top:],
    )


@dataclass(frozen=True, eq=False)
class BlockKroneckerPencil:
    """A (2k+1)n pencil l*L1 + L0 of a structure kind, with its natural
    partition: the (1,1) block is (k+1)n square.

    The pencil `assemble` builds, or one read back by `load_pencil`, which
    may also be a perturbed pencil that `strukt perturb` wrote; `recover`
    maps either kind back to its polynomial. ``poly`` holds the one
    coefficient stack; L0 and L1 are read-only views of it.
    """

    poly: MatrixPolynomial
    k: int
    n: int
    kind: StructureKind

    @property
    def l0(self) -> np.ndarray:
        return self.poly.coeffs[0]

    @property
    def l1(self) -> np.ndarray:
        return self.poly.coeffs[1]

    @property
    def sign(self) -> int:
        return self.kind.recovery_sign(self.k)

    @property
    def size(self) -> int:
        return (2 * self.k + 1) * self.n

    @functools.cached_property
    def m_pencil(self) -> MatrixPolynomial:
        """The (1,1) natural-partition block as a pencil."""
        return MatrixPolynomial(natural_blocks(self.poly.coeffs, self.k, self.n)[0])


# ---------------------------------------------------------------------------
# Coefficient placement
# ---------------------------------------------------------------------------

def _placement_preamble(p: MatrixPolynomial, kind: StructureKind):
    """The admitted P, its grade g = 2k+1, k and n."""
    if p.grade % 2 == 0:
        raise GradeError("odd grade required")
    p, _ = polycore.admit_structured(p, kind, "input polynomial")
    return p, p.grade, (p.grade - 1) // 2, p.rows


class _PencilBuilder:
    """Accumulates n x n blocks of a (k+1)n square pencil, 1-based indices."""

    def __init__(self, k: int, n: int, dtype):
        self.n = n
        size = (k + 1) * n
        self.m0 = np.zeros((size, size), dtype=dtype)
        self.m1 = np.zeros((size, size), dtype=dtype)

    def put(self, target: np.ndarray, i: int, j: int, block: np.ndarray):
        n = self.n
        target[(i - 1) * n:i * n, (j - 1) * n:j * n] += block

    def const(self, i, j, block):
        self.put(self.m0, i, j, block)

    def lam(self, i, j, block):
        self.put(self.m1, i, j, block)

    def pencil(self) -> MatrixPolynomial:
        return MatrixPolynomial(np.stack([self.m0, self.m1]))


def placement_tridiagonal(p: MatrixPolynomial, kind: StructureKind) -> MatrixPolynomial:
    """Block-(anti)diagonal placement matching the permuted tridiagonal forms.

    Symmetric-family kinds place l*P_{2j+1} + P_{2j} runs on the diagonal,
    palindromic-family kinds on the antidiagonal, alternating kinds alternate
    the sign along the diagonal.
    """
    p, g, k, n = _placement_preamble(p, kind)
    b = _PencilBuilder(k, n, p.coeffs.dtype)
    family = kind.condition_family
    for j in range(1, k + 2):
        if family == "sum":
            b.lam(j, j, p.coefficient(g + 2 - 2 * j))
            b.const(j, j, p.coefficient(g + 1 - 2 * j))
        elif family == "diff":
            col = k + 2 - j
            b.lam(j, col, p.coefficient(2 * j - 1))
            b.const(j, col, p.coefficient(2 * j - 2))
        else:
            s = (-1) ** (k + 1 - j)
            b.lam(j, j, s * p.coefficient(g + 2 - 2 * j))
            b.const(j, j, s * p.coefficient(g + 1 - 2 * j))
    return b.pencil()


def placement_stacked(p: MatrixPolynomial, kind: StructureKind) -> MatrixPolynomial:
    """Staircase placement: head rows carry the leading coefficients, a single
    interior row carries the mid-range run, and the trailing column collects
    the low-order coefficients."""
    p, g, k, n = _placement_preamble(p, kind)
    b = _PencilBuilder(k, n, p.coeffs.dtype)
    family = kind.condition_family

    if family == "sum":
        b.lam(1, 1, p.coefficient(g))
        b.lam(2, 1, p.coefficient(g - 1))
        b.const(2, 1, p.coefficient(g - 2))
        for j in range(2, k + 1):
            b.const(2, j, p.coefficient(g - 1 - j))
        for i in range(3, k + 2):
            b.const(i, k, p.coefficient(k + 2 - i))
        b.const(k + 1, k + 1, p.coefficient(0))
    elif family == "diff":
        # Walk the staircase path from block (k+1, 1) up to (1, k+1); the cell
        # at path position t sits on diagonal offset k - t.
        cells = [((k + 1) - (t + 1) // 2, 1 + t // 2) for t in range(2 * k + 1)]
        for ell in range(k + 2, g + 1):
            i, j = cells[2 * k + 1 - ell]
            b.lam(i, j, p.coefficient(ell))
        for ell in range(0, k + 2):
            i, j = cells[2 * k - ell]
            b.const(i, j, p.coefficient(ell))
    else:
        if k == 1:
            b.lam(1, 1, -p.coefficient(3))
            b.const(1, 1, -p.coefficient(2))
            b.lam(2, 2, p.coefficient(1))
            b.const(2, 2, p.coefficient(0))
        else:
            b.lam(1, 1, (-1) ** k * p.coefficient(g))
            b.lam(2, 1, (-1) ** (k - 1) * p.coefficient(g - 1))
            b.lam(2, 2, (-1) ** (k - 1) * p.coefficient(g - 2))
            b.const(2, 2, (-1) ** (k - 1) * p.coefficient(g - 3))
            for j in range(3, k + 1):
                b.const(2, j, (-1) ** (k - 1) * p.coefficient(g - 1 - j))
            for i in range(3, k + 1):
                b.const(i, k, (-1) ** (k - i + 1) * p.coefficient(g + 1 - i - k))
            b.lam(k + 1, k + 1, p.coefficient(1))
            b.const(k + 1, k + 1, p.coefficient(0))
    return b.pencil()


PLACEMENTS = {
    "tridiagonal": placement_tridiagonal,
    "stacked": placement_stacked,
}


# ---------------------------------------------------------------------------
# Assembly and recovery
# ---------------------------------------------------------------------------

def assemble(
    m: MatrixPolynomial,
    k: int,
    n: int,
    kind: StructureKind,
) -> BlockKroneckerPencil:
    """Embed a structured (k+1)n pencil into the full block Kronecker pencil."""
    if m.shape != ((k + 1) * n, (k + 1) * n):
        raise ValueError(f"expected a {(k + 1) * n} square pencil, got {m.shape}")
    mp = polycore.pad_to_grade(m, 1)
    if mp.grade != 1:
        raise GradeError("the (1,1) block must be a pencil")
    mp, _ = polycore.admit_structured(mp, kind, "the (1,1) block")

    size = (2 * k + 1) * n
    coeffs = np.zeros((2, size, size), dtype=mp.coeffs.dtype)
    c11, c21, c12, _ = natural_blocks(coeffs, k, n)
    c11[...] = mp.coeffs
    if k >= 1:
        lk = minbases.build_Lk(k, n)
        c12[...] = star(polycore._substituted(lk.coeffs, kind.mobius))
        c21[...] = lk.coeffs
    return BlockKroneckerPencil(MatrixPolynomial(coeffs), k, n, kind)


def build_linearization(
    p: MatrixPolynomial,
    kind: StructureKind,
    placement: str = "tridiagonal",
) -> BlockKroneckerPencil:
    """placement -> symmetrize -> assemble, the standard forward pipeline.

    A grade below 3 (k = 0, no dual basis to embed) is refused with
    `GradeError`: `load_pencil` reads no pencil with k < 1 back.
    """
    try:
        place = PLACEMENTS[placement]
    except KeyError:
        raise ValueError(f"unknown placement {placement!r}") from None
    if p.grade < 3:
        raise GradeError(f"a linearization needs grade >= 3 (k >= 1), got {p.grade}")
    # The average of two pencils satisfying the placement condition still
    # satisfies it, and now carries the structure.
    m = structure_project(place(p, kind), kind)
    k = (p.grade - 1) // 2
    return assemble(m, k, p.rows, kind)


def recover_from_m(
    m: MatrixPolynomial, row: MatrixPolynomial, kind: StructureKind
) -> MatrixPolynomial:
    """Exact convolution of the dual-row sandwich around the (1,1) block.

    ``row`` is an n x (k+1)n dual row of grade k: the monomial row
    Lambda_k^T (x) I_n for a built pencil, or the completed dual basis of a
    perturbed one.  The result carries the kind's recovery sign at k.
    """
    col = row.coeffs.swapaxes(1, 2)
    left = star(polycore._substituted(col, kind.mobius))
    m1 = polycore.pad_to_grade(m, 1).coeffs
    raw = polycore._coeff_product(polycore._coeff_product(left, m1), col)
    return MatrixPolynomial(kind.recovery_sign(row.grade) * raw)


def recover(pencil: BlockKroneckerPencil) -> MatrixPolynomial:
    """Grade 2k+1 polynomial linearized by the pencil A, built or perturbed.

    `assemble` of A's (1,1) block admits that block and gives the skeleton.
    dL = A - skeleton, its (1,1) block zeroed since `assemble` judged A11,
    must pass `backward.StructuredPerturbation.from_pencil`; then
    `backward.recover_perturbed` maps the skeleton plus the admitted dL back,
    as a trial does. A built pencil recovers by the monomial sandwich alone,
    the inverse of the builder. A (1,1) block or dL that is not finite and
    structured, or a dL outside the solves' thresholds, is refused with a
    `StruktError`.
    """
    from . import backward  # backward imports this module

    k, n, kind = pencil.k, pencil.n, pencil.kind
    skeleton = assemble(pencil.m_pencil, k, n, kind)
    dl = pencil.poly.coeffs - skeleton.poly.coeffs
    natural_blocks(dl, k, n)[0][...] = 0.0
    pert = backward.StructuredPerturbation.from_pencil(MatrixPolynomial(dl), k, n, kind)
    return backward.recover_perturbed(pert.perturbed(skeleton)).poly


# ---------------------------------------------------------------------------
# Pencil file format (polynomial JSON of grade 1 plus a sidecar record)
# ---------------------------------------------------------------------------

_SIDECAR_KEYS = ("k", "n", "kind", "sign")


def sidecar_path(path) -> Path:
    p = Path(path)
    return p.with_name(p.stem + ".sidecar.json")


def save_pencil(pencil: BlockKroneckerPencil, path) -> None:
    """Write the pencil's polynomial and its sidecar record; `load_pencil`
    reads both back."""
    polycore.save_polynomial(pencil.poly, path)
    sidecar = {"k": pencil.k, "n": pencil.n, "kind": pencil.kind.value, "sign": pencil.sign}
    with open(sidecar_path(path), "w") as fh:
        json.dump(sidecar, fh)


def load_pencil(path) -> BlockKroneckerPencil:
    """The pencil a `save_pencil` file pair describes.

    The sidecar record must describe the polynomial: k, n >= 1, a square
    grade-1 pencil of size (2k+1)n, and the kind's recovery sign at k.
    """
    poly = polycore.load_polynomial(path)
    with open(sidecar_path(path)) as fh:
        record = polycore.require_keys(json.load(fh), _SIDECAR_KEYS, "sidecar record")
    polycore.require_ints(record, ("k", "n", "sign"), "sidecar record")
    k, n, sign = record["k"], record["n"], record["sign"]
    kind = polycore.parse_kind(record["kind"])
    if k < 1 or n < 1:
        raise StruktError(f"sidecar k = {k} and n = {n} must both be at least 1")
    size = (2 * k + 1) * n
    if poly.grade != 1 or poly.shape != (size, size):
        raise StruktError(
            f"sidecar k = {k}, n = {n} needs a {size} x {size} pencil of grade 1, "
            f"got {poly.rows} x {poly.cols} of grade {poly.grade}"
        )
    pencil = BlockKroneckerPencil(poly, k, n, kind)
    if sign != pencil.sign:
        raise StruktError(
            f"sidecar sign {sign} is not the {kind.value} recovery sign {pencil.sign} at k = {k}"
        )
    return pencil
