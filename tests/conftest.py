import numpy as np
import pytest

from strukt import StructureKind, from_coeff_list, random_structured, random_structured_perturbation
from strukt.linearize import build_linearization, natural_blocks
from strukt.polycore import MatrixPolynomial

from oracles import is_structured

ALL_KINDS = list(StructureKind)


def with_entry(p, value):
    """``p`` with one coefficient entry set to ``value``."""
    coeffs = p.coeffs.copy()
    coeffs[1, 0, 0] = value
    return MatrixPolynomial(coeffs)


def integer_structured_coeffs(kind, g, n, rng):
    """Exact small-integer coefficient fill satisfying the kind's relations."""

    def rint():
        return rng.integers(-4, 5, size=(n, n)).astype(float)

    def sym():
        m = rint()
        return m + m.T

    def skew():
        m = rint()
        return m - m.T

    if kind == StructureKind.symmetric:
        return [sym() for _ in range(g + 1)]
    if kind == StructureKind.skew_symmetric:
        return [skew() for _ in range(g + 1)]
    if kind == StructureKind.palindromic:
        half = [rint() for _ in range((g + 1) // 2)]
        out = [None] * (g + 1)
        for off, m in enumerate(half):
            out[g - off] = m
            out[off] = m.T
        return out
    if kind == StructureKind.anti_palindromic:
        half = [rint() for _ in range((g + 1) // 2)]
        out = [None] * (g + 1)
        for off, m in enumerate(half):
            out[g - off] = m
            out[off] = -m.T
        return out
    if kind == StructureKind.even:
        return [sym() if i % 2 == 0 else skew() for i in range(g + 1)]
    return [skew() if i % 2 == 0 else sym() for i in range(g + 1)]


def integer_structured_poly(kind, g, n, rng):
    p = from_coeff_list(integer_structured_coeffs(kind, g, n, rng))
    assert is_structured(p, kind)
    return p


def perturbation_blocks(dl, k, n):
    """(dA11, dB11, dA21, dB21, dA22, dB22), views of the perturbation dL of a
    (2k+1)n pencil."""
    d11, d21, _, d22 = natural_blocks(dl.coeffs, k, n)
    return (*d11, *d21, *d22)


def with_scaled_22_block(dl, k, n, scale):
    """The perturbation dL with its (2,2) block times ``scale``; still
    structured, because the kind's involution maps the (2,2) block to itself."""
    coeffs = dl.coeffs.copy()
    *_, d22 = natural_blocks(coeffs, k, n)
    d22 *= scale
    return MatrixPolynomial(coeffs)


def noisy_22_pencil(kind, draw, scale):
    """(P, L, dL, A = L + dL) at k = n = 2 for a drawn dL of norm 1e-6 whose
    (2,2) block is scaled by ``scale`` and then given Gaussian noise of
    3e-14 ||dL|| per entry: dL is structured only to rounding, as a dL read
    back from a file may be."""
    k, n, norm = 2, 2, 1e-6
    p = random_structured(n, 2 * k + 1, kind, 1.0, seed=draw)
    pencil = build_linearization(p, kind)
    coeffs = random_structured_perturbation(k, n, kind, norm, seed=100 + draw).coeffs.copy()
    *_, d22 = natural_blocks(coeffs, k, n)
    d22 *= scale
    d22 += 3e-14 * norm * np.random.default_rng(draw).standard_normal(d22.shape)
    dl = MatrixPolynomial(coeffs)
    return p, pencil, dl, pencil.perturbed(dl)


def expected_tridiagonal_grade5(c, kind, n):
    """Hand-coded permuted block-(anti)tridiagonal layout for grade 5."""
    z = np.zeros((n, n))
    eye = np.eye(n)
    sig = -1 if kind.flips_sign else 1
    fam = kind.condition_family
    if fam == "sum":
        const = np.block(
            [
                [c[4], -sig * eye, z, z, z],
                [-eye, z, z, z, z],
                [z, z, c[2], -sig * eye, z],
                [z, z, -eye, z, z],
                [z, z, z, z, c[0]],
            ]
        )
        lam = np.block(
            [
                [c[5], z, z, z, z],
                [z, z, eye, z, z],
                [z, sig * eye, c[3], z, z],
                [z, z, z, z, eye],
                [z, z, z, sig * eye, c[1]],
            ]
        )
    elif fam == "diff":
        const = np.block(
            [
                [z, z, z, z, c[0]],
                [z, z, -eye, z, z],
                [z, z, c[2], sig * eye, z],
                [-eye, z, z, z, z],
                [c[4], sig * eye, z, z, z],
            ]
        )
        lam = np.block(
            [
                [z, z, z, -sig * eye, c[1]],
                [z, z, z, z, eye],
                [z, -sig * eye, c[3], z, z],
                [z, z, eye, z, z],
                [c[5], z, z, z, z],
            ]
        )
    else:
        const = np.block(
            [
                [c[4], -sig * eye, z, z, z],
                [-eye, z, z, z, z],
                [z, z, -c[2], -sig * eye, z],
                [z, z, -eye, z, z],
                [z, z, z, z, c[0]],
            ]
        )
        lam = np.block(
            [
                [c[5], z, z, z, z],
                [z, z, eye, z, z],
                [z, -sig * eye, -c[3], z, z],
                [z, z, z, z, eye],
                [z, z, z, -sig * eye, c[1]],
            ]
        )
    return const, lam


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240810)
