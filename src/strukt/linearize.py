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
from .errors import GradeError, StructureError, StruktError
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

    def perturbed(self, dl: MatrixPolynomial) -> "BlockKroneckerPencil":
        """A = L + dL, the one pencil recovery reads; a dL of another size or
        grade is refused with `StructureError`, its structure is the caller's."""
        size = self.size
        if dl.shape != (size, size) or dl.grade != 1:
            raise StructureError(
                f"expected a {size} x {size} pencil of grade 1, "
                f"got {dl.rows} x {dl.cols} of grade {dl.grade}"
            )
        return BlockKroneckerPencil(self.poly + dl, self.k, self.n, self.kind)


# ---------------------------------------------------------------------------
# Coefficient placement
# ---------------------------------------------------------------------------

def _placement_preamble(p: MatrixPolynomial, kind: StructureKind):
    """The admitted P, g = 2k+1, k, a zero (k+1)n pencil stack m, and
    put(power, i, j, block), which adds an n x n block to m[power] at (i, j)."""
    if p.grade % 2 == 0:
        raise GradeError("odd grade required")
    p, _ = polycore.admit_structured(p, kind, "input polynomial")
    k, n = (p.grade - 1) // 2, p.rows
    m = np.zeros((2, (k + 1) * n, (k + 1) * n), dtype=p.coeffs.dtype)

    def put(power, i, j, block):
        m[power, (i - 1) * n:i * n, (j - 1) * n:j * n] += block

    return p, p.grade, k, m, put


def placement_tridiagonal(p: MatrixPolynomial, kind: StructureKind) -> MatrixPolynomial:
    """Block-(anti)diagonal placement matching the permuted tridiagonal forms.

    Symmetric-family kinds place l*P_{2j+1} + P_{2j} runs on the diagonal,
    palindromic-family kinds on the antidiagonal, alternating kinds alternate
    the sign along the diagonal.
    """
    p, g, k, m, put = _placement_preamble(p, kind)
    family = kind.condition_family
    for j in range(1, k + 2):
        if family == "sum":
            put(1, j, j, p.coefficient(g + 2 - 2 * j))
            put(0, j, j, p.coefficient(g + 1 - 2 * j))
        elif family == "diff":
            col = k + 2 - j
            put(1, j, col, p.coefficient(2 * j - 1))
            put(0, j, col, p.coefficient(2 * j - 2))
        else:
            s = (-1) ** (k + 1 - j)
            put(1, j, j, s * p.coefficient(g + 2 - 2 * j))
            put(0, j, j, s * p.coefficient(g + 1 - 2 * j))
    return MatrixPolynomial._adopt(m)


def placement_stacked(p: MatrixPolynomial, kind: StructureKind) -> MatrixPolynomial:
    """Staircase placement: head rows carry the leading coefficients, a single
    interior row carries the mid-range run, and the trailing column collects
    the low-order coefficients."""
    p, g, k, m, put = _placement_preamble(p, kind)
    family = kind.condition_family

    if family == "sum":
        put(1, 1, 1, p.coefficient(g))
        put(1, 2, 1, p.coefficient(g - 1))
        put(0, 2, 1, p.coefficient(g - 2))
        for j in range(2, k + 1):
            put(0, 2, j, p.coefficient(g - 1 - j))
        for i in range(3, k + 2):
            put(0, i, k, p.coefficient(k + 2 - i))
        put(0, k + 1, k + 1, p.coefficient(0))
    elif family == "diff":
        # Walk the staircase path from block (k+1, 1) up to (1, k+1); the cell
        # at path position t sits on diagonal offset k - t.
        cells = [((k + 1) - (t + 1) // 2, 1 + t // 2) for t in range(2 * k + 1)]
        for ell in range(k + 2, g + 1):
            i, j = cells[2 * k + 1 - ell]
            put(1, i, j, p.coefficient(ell))
        for ell in range(0, k + 2):
            i, j = cells[2 * k - ell]
            put(0, i, j, p.coefficient(ell))
    else:
        if k == 1:
            put(1, 1, 1, -p.coefficient(3))
            put(0, 1, 1, -p.coefficient(2))
            put(1, 2, 2, p.coefficient(1))
            put(0, 2, 2, p.coefficient(0))
        else:
            put(1, 1, 1, (-1) ** k * p.coefficient(g))
            put(1, 2, 1, (-1) ** (k - 1) * p.coefficient(g - 1))
            put(1, 2, 2, (-1) ** (k - 1) * p.coefficient(g - 2))
            put(0, 2, 2, (-1) ** (k - 1) * p.coefficient(g - 3))
            for j in range(3, k + 1):
                put(0, 2, j, (-1) ** (k - 1) * p.coefficient(g - 1 - j))
            for i in range(3, k + 1):
                put(0, i, k, (-1) ** (k - i + 1) * p.coefficient(g + 1 - i - k))
            put(1, k + 1, k + 1, p.coefficient(1))
            put(0, k + 1, k + 1, p.coefficient(0))
    return MatrixPolynomial._adopt(m)


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
    """Embed a structured (k+1)n pencil, admitted first, into the full block
    Kronecker pencil."""
    if m.shape != ((k + 1) * n, (k + 1) * n):
        raise ValueError(f"expected a {(k + 1) * n} square pencil, got {m.shape}")
    if m.grade > 1:
        raise GradeError("the (1,1) block must be a pencil")
    mp, _ = polycore.admit_structured(polycore.pad_to_grade(m, 1), kind, "the (1,1) block")
    return _embed(mp.coeffs, k, n, kind)


def _embed(m11: np.ndarray, k: int, n: int, kind: StructureKind) -> BlockKroneckerPencil:
    """The block Kronecker pencil with a finite, structured (1,1) block ``m11``."""
    size = (2 * k + 1) * n
    coeffs = np.zeros((2, size, size), dtype=m11.dtype)
    c11, c21, c12, _ = natural_blocks(coeffs, k, n)
    c11[...] = m11
    lk = minbases.build_Lk(k, n)
    c12[...] = star(polycore._substituted(lk.coeffs, kind.mobius))
    c21[...] = lk.coeffs
    return BlockKroneckerPencil(MatrixPolynomial._adopt(coeffs), k, n, kind)


def build_linearization(
    p: MatrixPolynomial,
    kind: StructureKind,
    placement: str = "tridiagonal",
) -> BlockKroneckerPencil:
    """placement -> symmetrize -> assemble, the standard forward pipeline.

    A grade below 3 (k = 0, no dual basis to embed) is refused with
    `GradeError`.
    """
    try:
        place = PLACEMENTS[placement]
    except KeyError:
        raise ValueError(f"unknown placement {placement!r}") from None
    if p.grade < 3:
        raise GradeError(f"a linearization needs grade >= 3 (k >= 1), got {p.grade}")
    # The average of two pencils satisfying the placement condition satisfies
    # it too; it is exactly structured, as the substitutions permute and negate.
    m = structure_project(place(p, kind), kind)
    return _embed(m.coeffs, (p.grade - 1) // 2, p.rows, kind)


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
    return MatrixPolynomial._adopt(kind.recovery_sign(row.grade) * raw)


def recover(pencil: BlockKroneckerPencil) -> MatrixPolynomial:
    """Grade 2k+1 polynomial linearized by the pencil A, built or perturbed.

    `assemble` of A's (1,1) block admits that block and gives the skeleton.
    dL = A - skeleton, its (1,1) block zeroed since `assemble` judged A11,
    is admitted by `polycore.admit_structured`; then
    `backward.recover_perturbed` maps the skeleton plus the admitted dL back,
    as a trial does. A built pencil recovers by the monomial sandwich alone,
    the inverse of the builder. A (1,1) block or dL that is not finite and
    structured, or a dL outside the solves' thresholds, is refused with a
    `StruktError`.
    """
    from . import backward  # backward imports this module

    k, n, kind = pencil.k, pencil.n, pencil.kind
    skeleton = assemble(pencil.m_pencil, k, n, kind)
    coeffs = pencil.poly.coeffs - skeleton.poly.coeffs
    natural_blocks(coeffs, k, n)[0][...] = 0.0
    dl, _ = polycore.admit_structured(MatrixPolynomial._adopt(coeffs), kind, "perturbation")
    return backward.recover_perturbed(skeleton.perturbed(dl)).poly


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
