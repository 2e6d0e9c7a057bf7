import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from strukt import (
    StructureKind,
    compare_spectra,
    minimal_indices,
    pencil_eigs,
    random_structured,
    reference_polyeigs,
    symmetry_check,
)
from strukt import polycore, spectra
from strukt.errors import SingularPolynomialError, SpectrumMismatchError, StruktError
from strukt.linearize import build_linearization

from conftest import ALL_KINDS, with_entry
from oracles import INVOLUTIONS, finite_values, n_infinite, symmetry_by_table


def test_pencil_eigs_diagonal():
    spec = pencil_eigs(-np.diag([1.0, 2.0]), np.eye(2))
    vals = sorted(finite_values(spec).real)
    assert vals == pytest.approx([1.0, 2.0])
    assert n_infinite(spec) == 0


def test_pencil_eigs_infinite():
    # l * diag(1, 0) - I has one eigenvalue at 1 and one at infinity
    spec = pencil_eigs(-np.eye(2), np.diag([1.0, 0.0]))
    assert n_infinite(spec) == 1
    assert finite_values(spec).real == pytest.approx([1.0])


def _normalize_pairs_loop(alpha, beta):
    """The per-eigenvalue phase loop `spectra._normalize_pairs` replaced."""
    alpha = np.asarray(alpha, dtype=complex).copy()
    beta = np.asarray(beta, dtype=complex).copy()
    norms = np.hypot(np.abs(alpha), np.abs(beta))
    alpha /= norms
    beta /= norms
    for i in range(alpha.size):
        ref = beta[i] if np.abs(beta[i]) > spectra.INFINITE_BETA_TOL else alpha[i]
        phase = ref / np.abs(ref)
        alpha[i] /= phase
        beta[i] /= phase
    order = np.lexsort((alpha.imag, alpha.real, np.abs(beta) <= spectra.INFINITE_BETA_TOL))
    return alpha[order], beta[order]


@pytest.mark.parametrize("field_tag", [polycore.REAL, polycore.COMPLEX])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_normalize_pairs_matches_the_loop_bit_for_bit(kind, field_tag, rng):
    """On pencil spectra, their involution images, and pairs at and near
    infinity, the vectorized phase normalization returns the loop's bytes."""
    p = random_structured(3, 5, kind, 1.0, seed=4, field=field_tag)
    pencil = build_linearization(p, kind)
    w = scipy.linalg.eig(pencil.l0, -pencil.l1, right=False, homogeneous_eigvals=True)
    alpha = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    beta = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    beta[:3] = 0.0
    beta[3:6] *= 1e-13
    alpha[6:8] = 0.0
    for a, b in [(w[0], w[1]), INVOLUTIONS[kind](w[0], w[1]), (alpha, beta)]:
        got = spectra._normalize_pairs(a, b)
        want_alpha, want_beta = _normalize_pairs_loop(a, b)
        assert got.alpha.tobytes() == want_alpha.tobytes()
        assert got.beta.tobytes() == want_beta.tobytes()


def test_reference_polyeigs_cube_roots():
    p = polycore.from_coeff_list([np.eye(1), np.zeros((1, 1)), np.zeros((1, 1)), np.eye(1)])
    spec = reference_polyeigs(p)
    got = np.sort_complex(finite_values(spec))
    want = np.sort_complex(np.array([-1.0, 0.5 + 0.8660254037844386j, 0.5 - 0.8660254037844386j]))
    assert np.allclose(got, want, atol=1e-10)


def test_reference_polyeigs_zero_eigenvalues():
    p = polycore.from_coeff_list([np.zeros((2, 2)), np.eye(2)])
    spec = reference_polyeigs(p)
    assert np.allclose(finite_values(spec), 0.0)


def test_reference_polyeigs_rejects_singular():
    p = polycore.from_coeff_list([np.zeros((2, 2)), np.diag([1.0, 0.0])])
    with pytest.raises(SingularPolynomialError):
        reference_polyeigs(p)


def test_palindromic_spectrum_reciprocal_closure():
    kind = StructureKind.palindromic
    p = random_structured(3, 5, kind, 1.0, seed=14)
    spec = reference_polyeigs(p)
    assert symmetry_check(spec, kind) <= 1e-8


@pytest.mark.parametrize("field", [polycore.REAL, polycore.COMPLEX])
@pytest.mark.parametrize(
    "kind", [k for k in ALL_KINDS if k is not StructureKind.skew_symmetric]
)
def test_transport_pencil_vs_reference(kind, field):
    """Complex kinds are conjugate-transpose structures: palindromic spectra
    pair l with 1/conj(l) and alternating ones l with -conj(l)."""
    p = random_structured(3, 5, kind, 1.0, seed=15, field=field)
    pencil = build_linearization(p, kind, "stacked")
    got = pencil_eigs(pencil.l0, pencil.l1)
    want = reference_polyeigs(p)
    assert compare_spectra(got, want).max_distance <= 1e-6
    assert symmetry_check(got, kind) <= 1e-8


def _spectrum_of(values, infinite=0):
    alpha = list(map(complex, values)) + [1.0] * infinite
    beta = [1.0] * len(values) + [0.0] * infinite
    return spectra._normalize_pairs(np.array(alpha), np.array(beta))


def test_symmetry_check_examples():
    assert symmetry_check(_spectrum_of([2.0, 0.5]), StructureKind.palindromic) <= 1e-15
    assert symmetry_check(_spectrum_of([3.0, -3.0, 1j, -1j]), StructureKind.even) <= 1e-15
    assert symmetry_check(_spectrum_of([2.0, 3.0]), StructureKind.palindromic) > 0.1


def test_symmetry_check_zero_pairs_with_infinity():
    spec = _spectrum_of([0.0], infinite=1)
    assert symmetry_check(spec, StructureKind.palindromic) <= 1e-15


@pytest.mark.parametrize("field_tag", [polycore.REAL, polycore.COMPLEX])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_symmetry_check_is_the_tabulated_pairing(kind, field_tag):
    """The pairing read off the kind's Mobius matrix scores every spectrum
    exactly as the hand-written table of the six kinds does: pencil spectra
    of structured polynomials, and spectra with zero, infinite and unpaired
    eigenvalues."""
    specs = [
        _spectrum_of([0.0, 2.0, -0.5 + 1j, 1j], infinite=2),
        _spectrum_of([2.0, 3.0, 1.0 - 1j]),
    ]
    for k, n in ((1, 4), (2, 2), (3, 3)):
        for seed in range(3):
            p = random_structured(n, 2 * k + 1, kind, 1.0, seed=seed, field=field_tag)
            pencil = build_linearization(p, kind)
            specs.append(pencil_eigs(pencil.l0, pencil.l1))
    for spec in specs:
        assert symmetry_check(spec, kind) == symmetry_by_table(spec, kind)


def test_compare_spectra_identical_and_permuted():
    a = _spectrum_of([1.0, 2.0, 3.0])
    b = _spectrum_of([3.0, 1.0, 2.0])
    assert compare_spectra(a, b).max_distance <= 1e-15


def test_compare_spectra_infinity_vs_huge():
    a = _spectrum_of([], infinite=1)
    b = _spectrum_of([1e16])
    match = compare_spectra(a, b)
    assert match.max_distance == pytest.approx(1e-16, rel=1e-6)


def test_compare_spectra_cardinality_mismatch():
    with pytest.raises(SpectrumMismatchError):
        compare_spectra(_spectrum_of([1.0]), _spectrum_of([1.0, 2.0]))


# ---------------------------------------------------------------------------
# the assignment solver against scipy
# ---------------------------------------------------------------------------

def _same_assignment(cost):
    rows, cols = linear_sum_assignment(cost)
    got = spectra._assign(cost)
    assert np.array_equal(rows, np.arange(len(cost)))
    assert got.dtype == np.intp and got.tolist() == cols.tolist()


# Sums of these lose low bits, so a later shortest-path cost can round below
# an earlier one and raise a column dual: the case `_assign` rescans for.
_ROUNDING = np.array([0.0, 1e-18, 1e-17, 0.1, np.nextafter(0.1, 1.0), 0.2, 0.3, 1 / 3, 0.7, 1.0])


def _oracle_matrices():
    rng = np.random.default_rng(21)
    yield np.zeros((0, 0))
    yield np.array([[0.7]])
    for n in range(13):
        for _ in range(20):
            yield rng.random((n, n))
            yield rng.choice(_ROUNDING, (n, n))
        yield rng.integers(0, 3, (n, n)).astype(float)
        yield rng.integers(-2, 2, (n, n)).astype(float)
        yield np.full((n, n), 2.5)
        yield np.zeros((n, n))
        halved = rng.random((n, n))
        halved[rng.random((n, n)) < 0.5] = 0.0
        yield halved


def test_assign_returns_scipys_columns():
    """Empty, one-by-one, uniform, rounding-prone, small-integer, constant,
    all-zero and half-zero matrices: identical column arrays, ties and all."""
    for cost in _oracle_matrices():
        _same_assignment(cost)


def test_assign_matches_scipy_on_skew_symmetric_spectra(monkeypatch):
    """The double eigenvalues of skew-symmetric P collide in the first step;
    these matrices run both the two-step and the generic augment."""
    calls = {"two_step": 0, "augment": 0}

    def counted(name):
        inner = getattr(spectra, "_" + name)

        def call(*args):
            calls[name] += 1
            return inner(*args)

        return call

    for name in calls:
        monkeypatch.setattr(spectra, "_" + name, counted(name))
    kind = StructureKind.skew_symmetric
    for n in (4, 12):
        for seed in range(4):
            p = random_structured(n, 5, kind, 1.0, seed=seed)
            pencil = build_linearization(p, kind)
            got = pencil_eigs(pencil.l0, pencil.l1)
            _same_assignment(spectra._chordal_matrix(got, reference_polyeigs(p)))
    assert calls["two_step"] > 0 and calls["augment"] > 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    hnp.arrays(
        np.float64,
        st.integers(0, 9).map(lambda n: (n, n)),
        elements=st.one_of(
            st.floats(-1e6, 1e6, allow_nan=False),
            st.sampled_from([0.0, -0.0, 1.0, 1e-300]),
        ),
    )
)
def test_assign_matches_scipy_on_float_matrices(cost):
    _same_assignment(cost)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_assign_refuses_non_finite_costs(bad):
    cost = np.ones((3, 3))
    cost[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        spectra._assign(cost)


def test_assign_refuses_a_non_square_matrix():
    with pytest.raises(ValueError, match="square"):
        spectra._assign(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# minimal indices
# ---------------------------------------------------------------------------

def test_minimal_indices_zero_polynomial():
    p = polycore.zeros(1, 1, 1)
    rep = minimal_indices(p)
    assert rep.right == (0,) and rep.left == (0,)
    assert rep.complete


def test_minimal_indices_block_diagonal_singular():
    coeffs = np.zeros((4, 2, 2))
    coeffs[0, 1, 1] = 3.0
    coeffs[1, 1, 1] = 1.0
    coeffs[3, 1, 1] = 2.0
    p = polycore.MatrixPolynomial(coeffs)
    rep = minimal_indices(p)
    assert rep.right == (0,) and rep.left == (0,)


@pytest.mark.parametrize("g", [3, 5])
def test_minimal_index_shift_of_linearization(g):
    k = (g - 1) // 2
    coeffs = np.zeros((g + 1, 2, 2))
    coeffs[0, 1, 1] = 3.0
    coeffs[1, 1, 1] = 1.0
    coeffs[g, 1, 1] = 2.0
    p = polycore.MatrixPolynomial(coeffs)
    pencil = build_linearization(p, StructureKind.symmetric, "tridiagonal")
    rep = minimal_indices(pencil.poly)
    assert rep.right == (k,) and rep.left == (k,)


def test_minimal_indices_left_right_equal_for_structured():
    p = random_structured(3, 5, StructureKind.skew_symmetric, 1.0, seed=16)
    rep = minimal_indices(p)
    assert rep.right == rep.left
    assert rep.complete


def test_minimal_indices_partial_flag():
    p = random_structured(3, 5, StructureKind.skew_symmetric, 1.0, seed=16)
    rep = minimal_indices(p, max_degree=1)
    assert not rep.complete


def test_normal_rank():
    p = polycore.from_coeff_list([np.diag([1.0, 0.0]), np.zeros((2, 2))])
    assert spectra.normal_rank(p) == 1
    assert spectra.normal_rank(polycore.zeros(2, 2, 1)) == 0


def _count_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_a_regular_polynomial_takes_one_svd(monkeypatch):
    """`normal_rank` stops at the first sample of full rank, so
    `is_regular`, and the regularity check of `reference_polyeigs`, cost a
    regular P one SVD; a singular P is sampled at every point."""
    p = random_structured(3, 5, StructureKind.symmetric, 1.0, seed=6)
    calls = _count_svds(monkeypatch)
    assert spectra.is_regular(p)
    assert calls == [(3, 3)]
    calls.clear()
    reference_polyeigs(p)
    assert calls == [(3, 3)]
    calls.clear()
    singular = polycore.from_coeff_list([np.diag([1.0, 0.0]), np.eye(2) * [1.0, 0.0]])
    assert not spectra.is_regular(singular)
    assert len(calls) == len(spectra._regularity_samples(singular))
    assert not spectra.is_regular(polycore.zeros(2, 3, 1))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_reference_polyeigs_refuses_non_finite_coefficients(bad):
    p = with_entry(random_structured(2, 3, StructureKind.even, seed=2), bad)
    with pytest.raises(StruktError, match="finite"):
        reference_polyeigs(p)


_FRESH_PROCESS_SCIPY = """
import contextlib, io, json, sys
from pathlib import Path
from strukt import StructureKind, build_linearization, cli, linearize, random_structured
from strukt import run_certification, save_polynomial, spectra
from strukt.backward import random_structured_perturbation

def loaded():
    return [name for name in ("scipy.linalg", "scipy.optimize") if name in sys.modules]

def cli_ok(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

tmp = Path(sys.argv[1])
for kind in (StructureKind.symmetric, StructureKind.palindromic):
    p = random_structured(2, 5, kind, 1.0, seed=8)
    assert run_certification(p, kind, "tridiagonal", [1e-6], trials=1, seed=9)[0].error is None
pencil = build_linearization(p, kind)
a = pencil.perturbed(random_structured_perturbation(2, 2, kind, 1e-8, seed=1))
linearize.recover(a)
poly = tmp / "p.json"
save_polynomial(p, poly)
config = tmp / "c.json"
config.write_text(json.dumps({"kind": "odd", "grade": 3, "n": 2, "trials": 2}))
cli_ok("linearize", str(poly), "--kind", kind.value)
cli_ok("perturb", str(tmp / "p.pencil.json"), "--norm", "1e-8")
cli_ok("recover", str(tmp / "p.pencil.json"))
cli_ok("recover", str(tmp / "p.pencil.perturbed.json"))
cli_ok("sigma-min", "--kmax", "2")
cli_ok("certify", str(config), "--output", str(tmp / "r.csv"))
states = [loaded()]
cli_ok("eigs", str(poly))
states.append(loaded())
cli_ok("certify", str(config), "--eigs", "--output", str(tmp / "e.csv"))
states.append(loaded())
spec = spectra.pencil_eigs(pencil.l0, pencil.l1)
assert spectra.compare_spectra(spec, spec).max_distance == 0.0
assert spectra.symmetry_check(spec, kind) <= 1e-8
states.append(loaded())
print(repr(states))
"""


def test_only_the_spectral_checks_load_scipy(tmp_path):
    """In a fresh process, importing strukt, certifying without eigenvalues,
    building, recovering and the non-spectral subcommands load neither
    scipy.linalg nor scipy.optimize; `strukt eigs`, `strukt certify --eigs`
    and the chordal matchings load scipy.linalg and never scipy.optimize."""
    env = dict(os.environ, PYTHONPATH=str(Path(spectra.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS_SCIPY, str(tmp_path)],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    assert out.strip().splitlines()[-1] == repr(
        [[], ["scipy.linalg"], ["scipy.linalg"], ["scipy.linalg"]]
    )
