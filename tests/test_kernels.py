"""The hot kernels against their plain references in `oracles`: the same
bytes on both fields, at every grade, on non-contiguous inputs and at
overflow scales; and a certification trial that takes no warning-state
switch and no `np.linalg.norm` call."""

import importlib
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strukt import MatrixPolynomial, MobiusMatrix, polycore, random_structured
from strukt.backward import run_certification
from strukt.linearize import assemble, natural_blocks, recover_from_m
from strukt.minbases import build_Lambda, build_Lk

from conftest import ALL_KINDS
from oracles import (
    reference_norm,
    reference_poly_matmul,
    reference_product,
    reference_recover_from_m,
    reference_structure_project,
)

# A real involutory driver other than the six canonical matrices.
_INVOLUTORY = MobiusMatrix(math.sqrt(0.7), 0.6, 0.5, -math.sqrt(0.7))
_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def _draw(rng, shape, complex_field):
    """Standard normal entries, about a fifth of them +0.0 and a tenth -0.0
    in each part, so signed zeros meet every kernel."""

    def part():
        x = rng.standard_normal(shape)
        u = rng.random(shape)
        x[u < 0.2] = 0.0
        x[u > 0.9] = -0.0
        return x

    if not complex_field:
        return part()
    z = part().astype(np.complex128)
    z.imag = part()
    return z


def _layout(rng, shape, complex_field, layout):
    """An array of ``shape``: contiguous, a swapaxes view, or a slice of
    the (1,2) block of a natural partition (rows and columns strided)."""
    e, r, c = shape
    if layout == "swapaxes":
        return _draw(rng, (e, c, r), complex_field).swapaxes(1, 2)
    if layout == "block":
        size = max(r, c)
        return natural_blocks(_draw(rng, (e, 3 * size, 3 * size), complex_field), 1, size)[2][:, :r, :c]
    return _draw(rng, shape, complex_field)


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


_LAYOUTS = st.sampled_from(["contiguous", "swapaxes", "block"])


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

@given(
    seed=st.integers(0, 2**32 - 1),
    complex_field=st.booleans(),
    grade=st.integers(1, 9),
    k=st.integers(1, 3),
    n=st.integers(1, 3),
    block=st.integers(0, 4),
    exponent=st.sampled_from([0, -300, 150, 154, 200, 300]),
)
@_SETTINGS
def test_array_norm_is_the_reference_norm(seed, complex_field, grade, k, n, block, exponent):
    """Bit for bit on a whole stack, its four natural blocks and its
    swapaxes view, also where the squares overflow; and without a warning."""
    size = (2 * k + 1) * n
    coeffs = _draw(np.random.default_rng(seed), (grade + 1, size, size), complex_field)
    coeffs *= 10.0**exponent
    views = (coeffs, *natural_blocks(coeffs, k, n), coeffs.swapaxes(1, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = polycore.array_norm(views[block])
    assert np.float64(got).tobytes() == np.float64(reference_norm(views[block])).tobytes()


def test_array_norm_at_overflow_scales_raises_no_warning():
    """Each of the real and imaginary sums of squares is finite, and their
    sum overflows; so do the squares of a 1e200 entry. Either norm is
    recomputed on scaled entries, finite and the reference's."""
    split = np.full((1, 2, 1), 9e153 + 9e153j)
    assert float(np.vdot(split.real, split.real)) == float(np.vdot(split.imag, split.imag)) < math.inf
    for a in (split, np.full(5, 1e200), np.full(3, -1e300 + 0j)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = polycore.array_norm(a)
        assert math.isfinite(got) and got == reference_norm(a)
    assert polycore.array_norm(np.full(2, np.inf)) == math.inf
    assert math.isnan(polycore.array_norm(np.array([1.0, np.nan])))


def test_array_norm_of_integers_is_taken_in_float64():
    """Squares of 4e9 overflow int64; as np.linalg.norm does, the norm is
    taken on float64 entries."""
    a = np.array([[4_000_000_000, -3], [0, 7]])
    assert polycore.array_norm(a) == reference_norm(a) == 4e9
    assert polycore.array_norm(np.array([True, False, True])) == math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Products, projection, sandwich
# ---------------------------------------------------------------------------

@given(
    seed=st.integers(0, 2**32 - 1),
    fields=st.tuples(st.booleans(), st.booleans()),
    grades=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    dims=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    layouts=st.tuples(_LAYOUTS, _LAYOUTS),
)
@_SETTINGS
def test_poly_matmul_is_the_reference_product(seed, fields, grades, dims, layouts):
    """One stacked product per left coefficient adds the same terms in the
    same order as one 2-D product per pair, on the same operands, views
    included."""
    rng = np.random.default_rng(seed)
    rows, inner, cols = dims
    a = _layout(rng, (grades[0] + 1, rows, inner), fields[0], layouts[0])
    b = _layout(rng, (grades[1] + 1, inner, cols), fields[1], layouts[1])
    _same(polycore._coeff_product(a, b), reference_product(a, b))
    p, q = MatrixPolynomial(a), MatrixPolynomial(b)
    _same(polycore.poly_matmul(p, q).coeffs, reference_poly_matmul(p, q).coeffs)


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_completion_rhs_from_a_transposed_view(k, n, complex_field, rng):
    """The completion multiplies a perturbed L_k (x) I_n by the swapaxes
    view of the monomial row, not by a transposed copy; the bytes agree.
    (A 2-D product is not layout-independent everywhere: with a strided
    vector operand, matmul's vector kernels may add in another order. Here
    the view is a matrix operand, or at n = 1 a unit-stride vector.)"""
    lk = build_Lk(k, n).coeffs
    K = lk + 1e-3 * _draw(rng, lk.shape, complex_field)
    lam = build_Lambda(k, n)
    _same(
        polycore._coeff_product(K, lam.coeffs.swapaxes(1, 2)),
        reference_product(K, polycore.transpose_poly(lam).coeffs),
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(ALL_KINDS + [_INVOLUTORY]),
    complex_field=st.booleans(),
    grade=st.integers(1, 9),
    n=st.integers(1, 4),
)
@_SETTINGS
def test_structure_project_is_the_reference_projection(seed, kind, complex_field, grade, n):
    p = MatrixPolynomial(_draw(np.random.default_rng(seed), (grade + 1, n, n), complex_field))
    _same(
        polycore.structure_project(p, kind).coeffs, reference_structure_project(p, kind).coeffs
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(ALL_KINDS),
    complex_field=st.booleans(),
    k=st.integers(1, 4),
    n=st.integers(1, 3),
    m_grade=st.integers(0, 1),
    monomial=st.booleans(),
)
@_SETTINGS
def test_recover_from_m_is_the_reference_sandwich(seed, kind, complex_field, k, n, m_grade, monomial):
    """The sandwich on swapaxes views of the row, against transposed copies;
    the row is the monomial row or a perturbed one, M the (1,1) block of a
    natural partition, of grade 0 or 1."""
    rng = np.random.default_rng(seed)
    row = build_Lambda(k, n)
    if not monomial:
        row = row + MatrixPolynomial(1e-3 * _draw(rng, row.coeffs.shape, complex_field))
    size = (2 * k + 1) * n
    m = MatrixPolynomial(natural_blocks(_draw(rng, (m_grade + 1, size, size), complex_field), k, n)[0])
    _same(recover_from_m(m, row, kind).coeffs, reference_recover_from_m(m, row, kind).coeffs)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_assemble_12_block_is_the_adjoint_of_the_substituted_basis(kind, k):
    n = 2
    m = MatrixPolynomial(np.zeros((2, (k + 1) * n, (k + 1) * n)))
    c12 = natural_blocks(assemble(m, k, n, kind).poly.coeffs, k, n)[2]
    want = polycore.star_adjoint(polycore.mobius(build_Lk(k, n), kind.mobius)).coeffs
    _same(c12, want)


# ---------------------------------------------------------------------------
# Overhead guard
# ---------------------------------------------------------------------------

class _Overhead(Exception):
    """Raised by the stand-ins below; not a `StruktError`, so no trial
    records it as its own failure."""


@pytest.mark.parametrize("field", [polycore.REAL, polycore.COMPLEX])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_trial_takes_no_errstate_and_no_linalg_norm(monkeypatch, kind, field):
    """After a warm-up trial has filled the caches, a trial calls no
    `np.linalg.norm` and enters no `np.errstate` from strukt code, as a
    context manager or as a decorator. Both forms set the state through
    `_make_extobj`; numpy's own linear algebra (the gap's SVD) may still."""
    ufunc_config = importlib.import_module("numpy._core._ufunc_config")
    make_extobj = ufunc_config._make_extobj

    def guarded_extobj(*args, **kwargs):
        # Frame 1 is errstate's __enter__, whose caller holds the with block,
        # or the wrapper of a decorated function, which it holds as ``func``.
        frame = sys._getframe(1)
        func = frame.f_locals.get("func")
        owner = func.__module__ if callable(func) else frame.f_back.f_globals["__name__"]
        if owner.split(".")[0] == "strukt":
            raise _Overhead(f"np.errstate entered in {owner}")
        return make_extobj(*args, **kwargs)

    def refuse_norm(*args, **kwargs):
        raise _Overhead("np.linalg.norm called")

    p = random_structured(2, 5, kind, 1.0, seed=6, field=field)
    run_certification(p, kind, "tridiagonal", [1e-6], 1, 7)
    monkeypatch.setattr(ufunc_config, "_make_extobj", guarded_extobj)
    monkeypatch.setattr(np.linalg, "norm", refuse_norm)
    [row] = run_certification(p, kind, "tridiagonal", [1e-6], 1, 8)
    assert row.error is None and row.ratio_le_bound and row.structure_ok
