import numpy as np
import pytest

from strukt import StructureKind, from_coeff_list, is_structured
from strukt.backward import StructuredPerturbation
from strukt.linearize import natural_blocks
from strukt.polycore import MatrixPolynomial

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


def perturbation_blocks(pert):
    """(dA11, dB11, dA21, dB21, dA22, dB22), views of the perturbation's pencil."""
    d11, d21, _, d22 = natural_blocks(pert.pencil.coeffs, pert.k, pert.n)
    return (*d11, *d21, *d22)


def with_scaled_22_block(pert, scale):
    """The perturbation with its (2,2) block times ``scale``; still structured,
    because the kind's involution maps the (2,2) block to itself."""
    coeffs = pert.pencil.coeffs.copy()
    *_, d22 = natural_blocks(coeffs, pert.k, pert.n)
    d22 *= scale
    return StructuredPerturbation.from_pencil(
        MatrixPolynomial(coeffs), pert.k, pert.n, pert.kind
    )


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
