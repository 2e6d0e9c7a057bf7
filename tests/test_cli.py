import argparse
import contextlib
import hashlib
import inspect
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strukt import StructureKind, frob_norm, load_polynomial, random_structured, save_polynomial
from strukt import backward, linearize, polycore, spectra
from strukt.cli import (
    EXIT_CERTIFICATION,
    EXIT_OK,
    EXIT_USAGE,
    ExperimentConfig,
    build_parser,
    main,
)

from conftest import near_overflow, noisy_22_pencil, with_entry
from oracles import is_structured
from strukt.errors import StruktError


@pytest.fixture
def poly_file(tmp_path):
    p = random_structured(2, 5, StructureKind.symmetric, 1.0, seed=3)
    path = tmp_path / "poly.json"
    save_polynomial(p, path)
    return path, p


def test_linearize_recover_roundtrip(tmp_path, poly_file, capsys):
    path, p = poly_file
    pencil_path = tmp_path / "pencil.json"
    assert main(["linearize", str(path), "--kind", "symmetric", "--output", str(pencil_path)]) == EXIT_OK
    back_path = tmp_path / "back.json"
    assert main(["recover", str(pencil_path), "--output", str(back_path)]) == EXIT_OK
    back = load_polynomial(back_path)
    assert frob_norm(back - p) <= 1e-13 * frob_norm(p)
    out = capsys.readouterr().out
    assert "sign=" in out and "norm_P=" in out


def test_linearize_even_grade_exits_2(tmp_path, capsys):
    p = polycore.from_coeff_list([np.eye(2)] * 5)  # grade 4 symmetric
    path = tmp_path / "even.json"
    save_polynomial(p, path)
    assert main(["linearize", str(path), "--kind", "symmetric"]) == EXIT_USAGE
    assert "odd grade required" in capsys.readouterr().err


def test_linearize_refuses_a_small_polynomial_with_a_relative_defect(tmp_path, capsys):
    """The structure gate is relative to ||P|| with no floor at 1: a P of
    norm 1e-6 off its structure by 1.4e-10 of that norm is refused."""
    p = random_structured(2, 5, StructureKind.symmetric, 1e-6, seed=3)
    coeffs = p.coeffs.copy()
    coeffs[0, 0, 1] += 1e-16
    path = tmp_path / "small.json"
    save_polynomial(polycore.MatrixPolynomial(coeffs), path)
    assert main(["linearize", str(path), "--kind", "symmetric"]) == EXIT_USAGE
    assert "input polynomial is not symmetric" in _assert_one_error_line(capsys)


def test_linearize_missing_file_exits_2(tmp_path):
    assert main(["linearize", str(tmp_path / "nope.json"), "--kind", "even"]) == EXIT_USAGE


def test_recover_missing_sidecar_exits_2(tmp_path, poly_file):
    path, _ = poly_file
    assert main(["recover", str(path)]) == EXIT_USAGE


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    return err


_HEAD = '"rows": 1, "cols": 1, "grade": 1, '


@pytest.mark.parametrize(
    "doc",
    [
        "{}",
        "[1, 2]",
        '{"rows": 2, "cols": 2, "grade": 1}',
        "{" + _HEAD + '"field": "complex", "coeffs": [[[1.0]], [[1.0]]]}',
        "{" + _HEAD + '"field": "complex", "coeffs": [[[[1.0]]], [[[1.0]]]]}',
        "{" + _HEAD + '"field": "real", "coeffs": 5}',
        "{" + _HEAD + '"field": ["real"], "coeffs": [[[1.0]], [[1.0]]]}',
        "{" + _HEAD + '"field": "real", "coeffs": [[[1e999]], [[1.0]]]}',
        "{" + _HEAD + '"field": "real", "coeffs": [[[null]], [[1.0]]]}',
        "{" + _HEAD + '"field": "real", "coeffs": [[["1.5"]], [[0.0]]]}',
        "{" + _HEAD + '"field": "real", "coeffs": [[[true]], [[0.0]]]}',
        '{"rows": 2, "cols": 2, "grade": 1, "field": "real", '
        '"coeffs": [[[1.0, true], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]]}',
        "{" + _HEAD + '"field": "real", "coeffs": [[["nan"]], [[0.0]]]}',
    ],
)
def test_linearize_malformed_polynomial_file_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert main(["linearize", str(path), "--kind", "even"]) == EXIT_USAGE
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("missing", ["k", "n", "kind", "sign"])
def test_recover_sidecar_missing_key_exits_2(tmp_path, poly_file, capsys, missing):
    path, _ = poly_file
    pencil_path = tmp_path / "pencil.json"
    main(["linearize", str(path), "--kind", "symmetric", "--output", str(pencil_path)])
    sidecar = linearize.sidecar_path(pencil_path)
    record = json.loads(sidecar.read_text())
    del record[missing]
    sidecar.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["recover", str(pencil_path)]) == EXIT_USAGE
    _assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "key, value", [("grade", "5"), ("grade", 5.0), ("rows", "10"), ("cols", True)]
)
def test_linearize_polynomial_field_of_wrong_type_exits_2(tmp_path, poly_file, capsys, key, value):
    path, _ = poly_file
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    assert main(["linearize", str(path), "--kind", "symmetric"]) == EXIT_USAGE
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("key, value", [("k", "2"), ("n", 2.0), ("sign", True)])
def test_recover_sidecar_field_of_wrong_type_exits_2(tmp_path, poly_file, capsys, key, value):
    path, _ = poly_file
    pencil_path = tmp_path / "pencil.json"
    main(["linearize", str(path), "--kind", "symmetric", "--output", str(pencil_path)])
    sidecar = linearize.sidecar_path(pencil_path)
    record = json.loads(sidecar.read_text())
    record[key] = value
    sidecar.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["recover", str(pencil_path)]) == EXIT_USAGE
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("command", ["recover", "perturb", "eigs"])
@pytest.mark.parametrize("key, value", [("k", 3), ("k", 1), ("n", 1), ("n", 3), ("sign", 5), ("sign", -1)])
def test_sidecar_that_does_not_describe_the_pencil_exits_2(
    tmp_path, poly_file, capsys, command, key, value
):
    """The symmetric grade-5 pencil of n = 2 is 10 x 10 with k = 2 and
    recovery sign 1; a sidecar saying otherwise is refused before any work."""
    path, _ = poly_file
    pencil_path = tmp_path / "pencil.json"
    main(["linearize", str(path), "--kind", "symmetric", "--output", str(pencil_path)])
    sidecar = linearize.sidecar_path(pencil_path)
    record = json.loads(sidecar.read_text())
    record[key] = value
    sidecar.write_text(json.dumps(record))
    capsys.readouterr()
    out = tmp_path / "out.json"
    norm = ["--norm", "1e-6"] if command == "perturb" else []
    assert main([command, str(pencil_path), "--output", str(out), *norm]) == EXIT_USAGE
    assert "sidecar" in _assert_one_error_line(capsys)
    assert not out.exists()


def test_sidecar_of_a_polynomial_that_is_not_a_pencil_exits_2(tmp_path, poly_file, capsys):
    """A 10 x 10 polynomial of grade 2 with a valid k = 2, n = 2 sidecar."""
    path, _ = poly_file
    pencil_path = tmp_path / "pencil.json"
    main(["linearize", str(path), "--kind", "symmetric", "--output", str(pencil_path)])
    save_polynomial(polycore.pad_to_grade(load_polynomial(pencil_path), 2), pencil_path)
    capsys.readouterr()
    assert main(["recover", str(pencil_path)]) == EXIT_USAGE
    assert "grade 2" in _assert_one_error_line(capsys)


def test_recover_zero_pencil_exits_2(tmp_path, capsys):
    """An all-zero pencil has a zero (2,1) block, not L_k (x) I_n, so it
    linearizes nothing: its dL leaves the star-Sylvester system no gap."""
    size = 10
    zero = polycore.zeros(size, size, 1)
    path = tmp_path / "zero.json"
    polycore.save_polynomial(zero, path)
    with open(tmp_path / "zero.sidecar.json", "w") as fh:
        json.dump({"k": 2, "n": 2, "kind": "symmetric", "sign": 1}, fh)
    out = tmp_path / "rec.json"
    assert main(["recover", str(path), "--output", str(out)]) == EXIT_USAGE
    assert "gap" in _assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("field", [polycore.REAL, polycore.COMPLEX])
def test_recover_of_a_pencil_near_overflow_writes_finite_strict_json(tmp_path, field, capsys):
    """A palindromic pencil whose (1,1) block peaks at 1.5e308, with its
    largest entry moved up by one ulp: well inside the structure gate, and
    the projection of that block does not overflow, so `recover` writes a
    finite polynomial in strict JSON and warns of nothing."""
    kind = StructureKind.palindromic
    pencil = linearize.build_linearization(random_structured(2, 5, kind, 1.0, seed=3, field=field), kind)
    coeffs = pencil.poly.coeffs.copy()
    m11 = linearize.natural_blocks(coeffs, 2, 2)[0]
    m11 *= 1.5 / polycore._peak(m11)
    m11 *= 1e308
    at = np.unravel_index(np.abs(m11.real).argmax(), m11.shape)
    m11.real[at] = np.nextafter(m11.real[at], np.copysign(np.inf, m11.real[at]))
    path, out = tmp_path / "a.json", tmp_path / "r.json"
    linearize.save_pencil(linearize.BlockKroneckerPencil(polycore.MatrixPolynomial(coeffs), 2, 2, kind), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["recover", str(path), "--output", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    doc = json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(f"{name} in the file"))
    assert np.isfinite(polycore.from_json_dict(doc).coeffs).all()


def test_recover_refuses_to_write_a_polynomial_that_is_not_finite(tmp_path, poly_file, monkeypatch, capsys):
    """`save_polynomial` writes strict JSON: a NaN coefficient ends in a
    typed error with exit 2, and no file is written."""
    path, p = poly_file
    pencil_path, out = tmp_path / "pencil.json", tmp_path / "r.json"
    linearize.save_pencil(linearize.build_linearization(p, StructureKind.symmetric), pencil_path)
    monkeypatch.setattr(linearize, "recover", lambda pencil: with_entry(p, np.nan))
    assert main(["recover", str(pencil_path), "--output", str(out)]) == EXIT_USAGE
    assert "finite" in _assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("kind", list(StructureKind))
def test_recover_takes_a_pencil_file_whose_perturbation_is_structured_to_rounding(
    tmp_path, kind, capsys
):
    """A pencil file whose dL has an unstructured (2,2) part at rounding
    level, with the drawn (2,2) block zeroed, recovers: the gate admits dL
    by its projection, which a structured X can rezero."""
    p, _, _, a = noisy_22_pencil(kind, 1, 0.0)
    path, out = tmp_path / "a.json", tmp_path / "r.json"
    linearize.save_pencil(a, path)
    assert main(["recover", str(path), "--output", str(out)]) == EXIT_OK
    assert frob_norm(load_polynomial(out) - p) <= 1e-4


@pytest.mark.parametrize("field", [polycore.REAL, polycore.COMPLEX])
@pytest.mark.parametrize("kind", list(StructureKind))
def test_recover_replays_perturbed_pencil(tmp_path, kind, field):
    """`recover` of a `perturb` file is the polynomial the perturbed pencil
    linearizes: same spectrum, structured, and bit for bit what congruence
    and reconstruction give on the same file's pencil."""
    poly_path, pencil_path, pert_path, out = (
        tmp_path / name for name in ("p.json", "l.json", "a.json", "r.json")
    )
    save_polynomial(random_structured(2, 5, kind, 1.0, seed=5, field=field), poly_path)
    argv = ["linearize", str(poly_path), "--kind", kind.value, "--output", str(pencil_path)]
    assert main(argv) == EXIT_OK
    assert main(["perturb", str(pencil_path), "--norm", "1e-4", "--output", str(pert_path)]) == EXIT_OK
    assert main(["recover", str(pert_path), "--output", str(out)]) == EXIT_OK
    got = load_polynomial(out)

    a = linearize.load_pencil(pert_path)
    match = spectra.compare_spectra(spectra.pencil_eigs(a.l0, a.l1), spectra.reference_polyeigs(got))
    assert match.max_distance <= 1e-10
    assert polycore.structure_residual(got, kind) <= 1e-11
    cong = backward.congruence_zero_block(a)
    recon = backward.reconstruct_perturbed_polynomial(a.m_pencil, cong.b21, kind)
    assert got.coeffs.tobytes() == recon.poly.coeffs.tobytes()


def test_perturb_writes_pencil(tmp_path, poly_file):
    path, _ = poly_file
    complex_path = tmp_path / "cpoly.json"
    save_polynomial(
        random_structured(2, 5, StructureKind.symmetric, 1.0, seed=3, field=polycore.COMPLEX),
        complex_path,
    )
    for field, poly_path in ((polycore.REAL, path), (polycore.COMPLEX, complex_path)):
        pencil_path = tmp_path / f"pencil_{field}.json"
        main(["linearize", str(poly_path), "--kind", "symmetric", "--output", str(pencil_path)])
        out = tmp_path / f"pert_{field}.json"
        assert main(["perturb", str(pencil_path), "--norm", "1e-6", "--seed", "4", "--output", str(out)]) == EXIT_OK
        dl = load_polynomial(out) - load_polynomial(pencil_path)
        assert abs(frob_norm(dl) - 1e-6) <= 1e-16
        assert is_structured(dl, StructureKind.symmetric, tol=1e-10)
        assert np.any(dl.coeffs.imag != 0.0) == (field == polycore.COMPLEX)
        sidecar, pencil_sidecar = linearize.sidecar_path(out), linearize.sidecar_path(pencil_path)
        assert sidecar.read_bytes() == pencil_sidecar.read_bytes()


@pytest.mark.parametrize("norm", ["-1", "nan", "inf"])
def test_perturb_bad_norm_exits_2(tmp_path, poly_file, capsys, norm):
    path, _ = poly_file
    pencil_path = tmp_path / "pencil.json"
    main(["linearize", str(path), "--kind", "symmetric", "--output", str(pencil_path)])
    capsys.readouterr()
    out = tmp_path / "pert.json"
    assert main(["perturb", str(pencil_path), f"--norm={norm}", "--output", str(out)]) == EXIT_USAGE
    _assert_one_error_line(capsys)
    assert not out.exists()


def test_sigma_min_passes(capsys):
    assert main(["sigma-min", "--kmax", "3", "--kinds", "even,odd"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "1.41421356" in out
    rows = [line.split() for line in out.splitlines()[1:]]
    assert len(rows) == 3 * 2 * 2
    assert {(row[1], row[2]) for row in rows} == {(n, kind) for n in "12" for kind in ("even", "odd")}


def test_sigma_min_reads_the_n1_rows_off_one_svd(monkeypatch, capsys):
    """An n = 1 row is the reduced form itself: its SVD is taken once, and
    its red_diff, a comparison with itself, prints as "-"."""
    svd, calls = np.linalg.svd, []

    def counting_svd(a, **kw):
        calls.append(a.shape)
        return svd(a, **kw)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert main(["sigma-min", "--kmax", "2", "--kinds", "palindromic,odd"]) == EXIT_OK
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(calls) == len(rows) == 2 * 2 * 2
    assert [row[-1] == "-" for row in rows] == [row[1] == "1" for row in rows]


@pytest.mark.parametrize("kmax", ["0", "-2"])
def test_sigma_min_refuses_a_kmax_below_one(kmax, capsys):
    """A --kmax below 1 would tabulate no row and check nothing: it exits 2
    with one error line and prints no table header."""
    assert main(["sigma-min", f"--kmax={kmax}"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --kmax") and err.count("\n") == 1


def test_eigs_on_polynomial(tmp_path, capsys):
    p = random_structured(2, 3, StructureKind.palindromic, 1.0, seed=6)
    path = tmp_path / "p.json"
    save_polynomial(p, path)
    assert main(["eigs", str(path), "--kind", "palindromic"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 6
    assert doc["symmetry_score"] <= 1e-8


def test_eigs_on_pencil_file(tmp_path, poly_file, capsys):
    path, _ = poly_file
    pencil_path = tmp_path / "pencil.json"
    main(["linearize", str(path), "--kind", "symmetric", "--output", str(pencil_path)])
    capsys.readouterr()
    assert main(["eigs", str(pencil_path)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 10
    assert doc["kind"] == "symmetric"


def test_eigs_refuses_a_singular_pencil_file(tmp_path, capsys):
    """A real skew-symmetric pencil of odd size (2k+1)n = 15 is singular:
    `strukt eigs` refuses it, as it refuses its polynomial, and writes
    nothing."""
    kind = StructureKind.skew_symmetric
    p = random_structured(3, 5, kind, 1.0, seed=2)
    path, pencil_path, out = tmp_path / "p.json", tmp_path / "pencil.json", tmp_path / "e.json"
    save_polynomial(p, path)
    assert main(["linearize", str(path), "--kind", kind.value, "--output", str(pencil_path)]) == EXIT_OK
    capsys.readouterr()
    for target in (path, pencil_path):
        assert main(["eigs", str(target), "--output", str(out)]) == EXIT_USAGE
        assert "singular" in _assert_one_error_line(capsys)
    assert not out.exists()


def test_eigs_refuses_a_pair_that_is_not_finite(tmp_path, poly_file, monkeypatch, capsys):
    """A non-finite eigenvalue pair ends in a typed error and writes no file:
    the output is strict JSON, never a NaN."""
    path, _ = poly_file
    nan_pair = spectra.SpectrumReport(alpha=np.array([np.nan + 0j]), beta=np.array([1 + 0j]))
    monkeypatch.setattr(spectra, "reference_polyeigs", lambda p: nan_pair)
    out = tmp_path / "e.json"
    assert main(["eigs", str(path), "--output", str(out)]) == EXIT_USAGE
    assert "not finite" in _assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("peak", [1e-310, 1.7e308])
def test_eigs_of_extreme_but_finite_coefficients_is_strict_json(peak, tmp_path, capsys):
    raw = np.random.default_rng(5).standard_normal((4, 3, 3))
    path = tmp_path / "p.json"
    save_polynomial(polycore.MatrixPolynomial(raw * (peak / np.abs(raw).max())), path)
    assert main(["eigs", str(path)]) == EXIT_OK
    out, err = capsys.readouterr()
    doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the output"))
    assert doc["count"] == 9 and not any(pair["infinite"] for pair in doc["pairs"])
    assert err == ""


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", list(StructureKind), ids=lambda k: k.value)
@pytest.mark.parametrize("scale", [1e-12, 1e-310])
def test_eigs_takes_a_small_polynomial_and_its_pencil(scale, kind, field, tmp_path, capsys):
    """The pencil's regularity test reads it balanced, so the +-1 entries of
    L_k do not make the pencil of a small regular P look singular: at norm
    1e-12 and at entries near 1e-310, `strukt eigs` takes P and its pencil
    and prints as many finite pairs for each, with no warning."""
    p = random_structured(2, 3, kind, 1.0, seed=3, field=field) * scale
    path, pencil_path = tmp_path / "p.json", tmp_path / "pencil.json"
    save_polynomial(p, path)
    assert main(["linearize", str(path), "--kind", kind.value, "--output", str(pencil_path)]) == EXIT_OK
    capsys.readouterr()
    for target in (path, pencil_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eigs", str(target)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out, parse_constant=lambda name: pytest.fail(name))
        assert doc["count"] == 6 and not any(pair["infinite"] for pair in doc["pairs"])


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", list(StructureKind), ids=lambda k: k.value)
def test_eigs_takes_a_polynomial_near_overflow_and_its_pencil(kind, field, tmp_path, capsys):
    """A P with a part of 1.7e308 linearizes, and the balanced regularity
    test of its pencil reads the largest real or imaginary part of each
    block, not the complex modulus, which overflows: `strukt eigs` takes P
    and its pencil and prints finite pairs, with no warning."""
    p = near_overflow(random_structured(2, 3, kind, 1.0, seed=3, field=field))
    path, pencil_path = tmp_path / "p.json", tmp_path / "pencil.json"
    save_polynomial(p, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["linearize", str(path), "--kind", kind.value, "--output", str(pencil_path)]) == EXIT_OK
        capsys.readouterr()
        for target in (path, pencil_path):
            assert main(["eigs", str(target)]) == EXIT_OK
            doc = json.loads(capsys.readouterr().out, parse_constant=lambda name: pytest.fail(name))
            assert doc["count"] == 6 and not any(pair["infinite"] for pair in doc["pairs"])


def test_certify_default_config(tmp_path, capsys):
    out = tmp_path / "rep.csv"
    assert main(["certify", "--output", str(out)]) == EXIT_OK
    assert "certify: 20/20" in capsys.readouterr().out
    assert out.read_text().count("\n") == 21


def test_certify_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["certify", "--output", str(a)]) == EXIT_OK
    assert main(["certify", "--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


#: sha256 of the CSV that the bundled campaign writes, recorded with numpy
#: 2.4.6, scipy 1.17.1 and Python 3.11.7, with one and with two BLAS threads.
_CAMPAIGN_CSV_SHA256 = "e5f0c4bd9377c763da1d66d14ac08df66c646a9646c0ebf224d9d1bd59b4a72a"


def test_bundled_campaign_report_bytes_are_pinned(tmp_path, capsys):
    """`strukt certify scripts/configs/default_certify.json --eigs` certifies
    all 1800 trials and writes the pinned CSV bytes: a change that moves any
    reported digit of the campaign moves this hash. Other numpy, scipy or
    BLAS builds may round differently."""
    config = Path(__file__).parents[1] / "scripts" / "configs" / "default_certify.json"
    out = tmp_path / "campaign.csv"
    assert main(["certify", str(config), "--eigs", "--output", str(out)]) == EXIT_OK
    assert "certify: 1800/1800" in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _CAMPAIGN_CSV_SHA256


def test_certify_zero_norm_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "kind": "palindromic",
                "grade": 3,
                "n": 2,
                "pert_norms": [0.0],
                "trials": 1,
                "seed": 7,
            }
        )
    )
    out = tmp_path / "rep.json"
    assert main(["certify", str(cfg), "--format", "json", "--output", str(out)]) == EXIT_OK
    rows = json.loads(out.read_text())
    assert rows[0]["ratio"] == 0.0


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"trials": 0}', "trials must be >= 1"),
        ('{"pert_norms": []}', "at least one perturbation norm"),
        ('{"pert_norms": [NaN]}', "finite and nonnegative"),
        ('{"pert_norms": [Infinity]}', "finite and nonnegative"),
        ('{"mode": "certifed"}', "mode must be"),
    ],
    ids=["trials-0", "pert_norms-empty", "pert_norms-nan", "pert_norms-inf", "mode-misspelled"],
)
def test_certify_config_that_run_certification_refuses_exits_2(tmp_path, doc, message):
    """A config with no trials, no norms, a norm outside [0, inf) or an
    unknown mode certifies nothing: `run_certification` refuses it before any
    trial, so `certify` exits 2 with one error line and writes no report."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc)
    out = tmp_path / "rep.csv"
    code, err = _run_cli(["certify", str(cfg), "--output", str(out)])
    assert code == EXIT_USAGE and err.count("error:") == 1
    assert message in err
    assert not out.exists()


def test_linearize_grade_1_exits_2_and_writes_nothing(tmp_path):
    """A grade-1 polynomial has k = 0, and `recover` and `eigs` read no
    pencil with k = 0 back, so `linearize` refuses it before writing."""
    path = tmp_path / "lin.json"
    save_polynomial(random_structured(2, 1, StructureKind.symmetric, 1.0, seed=3), path)
    code, err = _run_cli(["linearize", str(path), "--kind", "symmetric"])
    assert code == EXIT_USAGE and err.count("error:") == 1
    assert "grade >= 3" in err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["lin.json"]


def test_certify_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grade": 4}))
    assert main(["certify", str(cfg)]) == EXIT_USAGE
    cfg.write_text(json.dumps({"no_such_key": 1}))
    assert main(["certify", str(cfg)]) == EXIT_USAGE


def test_certify_empirical_large_perturbation(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "kind": "symmetric",
                "grade": 3,
                "n": 2,
                "pert_norms": [1e-3],
                "trials": 2,
                "seed": 11,
                "mode": "empirical",
            }
        )
    )
    assert main(["certify", str(cfg)]) == EXIT_OK


def test_certify_grade_1_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grade": 1, "trials": 1}))
    assert main(["certify", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "grade" in err and "Traceback" not in err


def _certify_rows(tmp_path, capsys, **config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grade": 3, "n": 2, "trials": 2, "seed": 5, **config}))
    out = tmp_path / "rep.csv"
    assert main(["certify", str(cfg), "--output", str(out)]) == EXIT_OK
    return capsys.readouterr().out, out.read_text().splitlines()


def test_certify_all_kinds_concatenates_single_kind_reports(tmp_path, capsys):
    summary, rows = _certify_rows(tmp_path, capsys, kind="all")
    assert "certify: 12/12 trials within bound; kind=all" in summary
    header, data = rows[0], rows[1:]
    expected = []
    for kind in StructureKind:
        _, single = _certify_rows(tmp_path, capsys, kind=kind.value)
        assert single[0] == header
        expected += single[1:]
        assert f"{kind.value:>16} {2:>7} {2:>9} {2:>10}" in summary
    assert data == expected


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == EXIT_USAGE


_OPTIONS = {
    "linearize": {"--kind", "--placement", "--output"},
    "recover": {"--output"},
    "perturb": {"--norm", "--seed", "--output"},
    "sigma-min": {"--kmax", "--kinds"},
    "eigs": {"--kind", "--output"},
    "certify": {"--seed", "--mode", "--output", "--format", "--eigs", "--timings"},
}


def test_every_subcommand_option_is_read_by_its_command():
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(_OPTIONS)
    for name, parser in sub.choices.items():
        actions = [a for a in parser._actions if a.dest != "help"]
        assert {opt for a in actions for opt in a.option_strings} == _OPTIONS[name]
        read = set(re.findall(r"\bargs\.(\w+)", inspect.getsource(parser.get_default("func"))))
        assert {a.dest for a in actions} == read, name


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma-min", "--output", "x.json"],
        ["recover", "p.json", "--mode", "empirical"],
        ["eigs", "p.json", "--seed", "3"],
        ["linearize", "p.json", "--kind", "even", "--format", "json"],
        ["certify", "--placement", "stacked"],
    ],
)
def test_option_another_subcommand_reads_exits_2(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_validation_direct():
    with pytest.raises(StruktError):
        ExperimentConfig(grade=4).validate()
    with pytest.raises(StruktError):
        ExperimentConfig(grade=1).validate()
    with pytest.raises(StruktError):
        ExperimentConfig(kind="no-such-kind").validate()
    assert ExperimentConfig(kind="all").validate().kinds() == list(StructureKind)
    for bad in _BAD_TYPES + [
        {"grade": True},
        {"pert_norms": [True]},
        {"output": 3},
    ]:
        with pytest.raises(StruktError):
            ExperimentConfig(**bad).validate()


_BAD_TYPES = [{"trials": "3"}, {"n": 2.5}, {"pert_norms": 1e-8}, {"seed": "x"}]


def test_certify_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for doc in ("5", '[["grade"]]'):
        cfg.write_text(doc)
        assert main(["certify", str(cfg)]) == EXIT_USAGE
        assert "JSON object" in capsys.readouterr().err


def test_certify_config_of_wrong_type_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for bad in _BAD_TYPES:
        cfg.write_text(json.dumps(bad))
        assert main(["certify", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: config ") and "Traceback" not in err


# ---------------------------------------------------------------------------
# The CLI over generated inputs
# ---------------------------------------------------------------------------

_DROP = object()
_NAN, _INF = float("nan"), float("inf")


def _edits(base, choices):
    """``base`` with up to two keys set to one of their listed values or dropped."""
    edit = st.sampled_from(sorted(choices)).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from([*choices[key], _DROP]))
    )
    return st.lists(edit, max_size=2).map(
        lambda pairs: {
            key: value for key, value in {**base, **dict(pairs)}.items() if value is not _DROP
        }
    )


_SIDECARS = st.one_of(
    _edits(
        {"k": 2, "n": 2, "kind": "palindromic", "sign": 1},
        {
            "k": [1, 3, 0, -1, "2", 2.0, None, True],
            "n": [1, 0, 2.5, "2", []],
            "kind": ["even", "odd", "bogus", 7, None],
            "sign": [-1, 5, True, "1"],
        },
    ),
    st.sampled_from(["", "{", "[]", "null", "3", '{"k": 2}']),
)

_CONFIGS = _edits(
    {"kind": "palindromic", "grade": 3, "n": 2, "trials": 1, "seed": 5},
    {
        "kind": ["all", "even", "bogus", 3, None],
        "grade": [5, 1, 4, -3, 3.0, "3", True],
        "n": [1, 0, -1, 2.5, None],
        "trials": [2, 0, "1"],
        "seed": [0, -1, 2**40, 1.5, "x"],
        "placement": ["stacked", "bogus", 1],
        "mode": ["empirical", "x"],
        "format": ["json", "xml"],
        "extra": [1],
    },
)
_NORMS = [1e-8, 0.0, 1e-3, 0.5, 10.0, -1.0, _NAN, _INF, -_INF, 1e300, 5e-324]


@pytest.fixture(scope="module")
def base_pencil(tmp_path_factory):
    root = tmp_path_factory.mktemp("base")
    poly = root / "p.json"
    save_polynomial(random_structured(2, 5, StructureKind.palindromic, 1.0, seed=3), poly)
    pencil = root / "pencil.json"
    argv = ["linearize", str(poly), "--kind", "palindromic", "--output", str(pencil)]
    assert _run_cli(argv) == (EXIT_OK, "")
    return pencil


def _run_cli(argv):
    """Exit code and stderr of `main`, which must return and not raise."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean_exit(code, err):
    """Exit 0, 1 or 2, and one `error:` line exactly when the exit is 2."""
    assert code in (EXIT_OK, EXIT_CERTIFICATION, EXIT_USAGE)
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == (code == EXIT_USAGE)


@given(
    command=st.sampled_from(["recover", "perturb", "eigs"]),
    sidecar=_SIDECARS,
    norm=st.sampled_from(_NORMS),
    seed=st.sampled_from([0, 4, -1, 2**40]),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cli_on_edited_sidecars_exits_cleanly(base_pencil, command, sidecar, norm, seed):
    """`recover`, `perturb` and `eigs` on a pencil whose sidecar has keys
    dropped or set to values of the wrong type or range, or is not a JSON
    object, and `perturb` with any norm and seed."""
    with tempfile.TemporaryDirectory() as tmp:
        pencil = Path(tmp) / "pencil.json"
        pencil.write_bytes(base_pencil.read_bytes())
        text = sidecar if isinstance(sidecar, str) else json.dumps(sidecar)
        linearize.sidecar_path(pencil).write_text(text)
        argv = [command, str(pencil), "--output", str(Path(tmp) / "out.json")]
        if command == "perturb":
            argv += [f"--norm={norm!r}", f"--seed={seed}"]
        _assert_clean_exit(*_run_cli(argv))


@given(
    config=_CONFIGS,
    norms=st.lists(st.sampled_from([*_NORMS, True, "x"]), min_size=1, max_size=2),
    flags=st.lists(st.sampled_from(["--eigs", "--timings", "--mode=empirical", "--format=json"])),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cli_on_edited_configs_exits_cleanly(config, norms, flags):
    """`certify` on configs with keys dropped, unknown or set to values of
    the wrong type or range, and perturbation norms of any value."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({**config, "pert_norms": norms}))
        argv = ["certify", str(cfg), "--output", str(Path(tmp) / "out.csv"), *flags]
        _assert_clean_exit(*_run_cli(argv))
