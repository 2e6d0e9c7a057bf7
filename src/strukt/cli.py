"""Command-line front end.

Subcommands: linearize | recover | perturb | certify | sigma-min | eigs.
Exit codes: 0 success, 1 certification failure, 2 usage or input error.
All commands are deterministic given identical inputs and seeds; per-trial
wall times are recorded only when --timings is passed so report files stay
byte-reproducible by default.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import backward, linearize, polycore, spectra, sylvester
from .errors import StruktError
from .polycore import StructureKind

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_USAGE = 2

ALL_KINDS = [k.value for k in StructureKind]


@dataclass
class ExperimentConfig:
    """Certification campaign description, loadable from a single JSON file.

    ``kind`` names one structure kind, or "all" for the six in enum order.
    `validate` checks the types, kind, grade, n, placement and format;
    `backward.run_certification` refuses a bad trial count, norm list or
    mode before any trial.
    """

    kind: str = "symmetric"
    grade: int = 5
    n: int = 2
    placement: str = "tridiagonal"
    pert_norms: list = field(default_factory=lambda: [1e-8])
    trials: int = 20
    seed: int = 20240801
    mode: str = "certified"
    output: str | None = None
    format: str = "csv"

    def validate(self) -> "ExperimentConfig":
        for name, want in typing.get_type_hints(ExperimentConfig).items():
            _check_type(name, getattr(self, name), want)
        for nrm in self.pert_norms:
            _check_type("pert_norms entry", nrm, int | float)
        self.kinds()
        if self.grade % 2 == 0 or self.grade < 3:
            raise StruktError("grade must be odd and at least 3")
        if self.n < 1:
            raise StruktError("n must be >= 1")
        if self.placement not in linearize.PLACEMENTS:
            raise StruktError(f"unknown placement {self.placement!r}")
        if self.format not in ("csv", "json"):
            raise StruktError("format must be 'csv' or 'json'")
        return self

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            doc = polycore.require_keys(json.load(fh), (), "config")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise StruktError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc).validate()

    def kinds(self) -> list[StructureKind]:
        if self.kind == "all":
            return list(StructureKind)
        return [polycore.parse_kind(self.kind)]


def _check_type(name: str, value, want) -> None:
    # bool is an int to Python but never a count, seed or norm in a config.
    if isinstance(value, bool) or not isinstance(value, want):
        want = getattr(want, "__name__", want)
        raise StruktError(f"config {name} must be {want}, got {value!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_linearize(args) -> int:
    p = polycore.load_polynomial(args.input)
    kind = polycore.parse_kind(args.kind)
    pencil = linearize.build_linearization(p, kind, args.placement)
    out = args.output or (str(Path(args.input).with_suffix("")) + ".pencil.json")
    linearize.save_pencil(pencil, out)
    residual = polycore.structure_residual(pencil.poly, kind)
    print(f"norm_P={polycore.frob_norm(p)!r}")
    print(f"norm_M={polycore.frob_norm(pencil.m_pencil)!r}")
    print(f"k={pencil.k} n={pencil.n} kind={kind.value} sign={pencil.sign}")
    print(f"structure_residual={residual!r}")
    print(f"wrote {out} and {linearize.sidecar_path(out)}")
    return EXIT_OK


def cmd_recover(args) -> int:
    pencil = linearize.load_pencil(args.pencil)
    recovered = linearize.recover(pencil)
    out = args.output or (str(Path(args.pencil).with_suffix("")) + ".recovered.json")
    polycore.save_polynomial(recovered, out)
    print(f"sign={pencil.sign} grade={recovered.grade}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_perturb(args) -> int:
    pencil = linearize.load_pencil(args.pencil)
    dl = backward.random_structured_perturbation(
        pencil.k, pencil.n, pencil.kind, args.norm, args.seed, field_tag=pencil.poly.field
    )
    out = args.output or (str(Path(args.pencil).with_suffix("")) + ".perturbed.json")
    linearize.save_pencil(pencil.perturbed(dl), out)
    print(f"norm_dL={polycore.frob_norm(dl)!r}")
    print(f"wrote {out} and {linearize.sidecar_path(out)}")
    return EXIT_OK


def cmd_sigma_min(args) -> int:
    """Check the law sigma_min = 2 sin(pi/(4k)) at n = 1, 2, and that every
    singular value of the system matrix is one of its n = 1 form's, repeated
    n^2 times."""
    kinds = [
        polycore.parse_kind(name)
        for name in (args.kinds.split(",") if args.kinds else ALL_KINDS)
    ]
    if args.kmax < 1:
        raise StruktError(f"--kmax must be at least 1, got {args.kmax}")
    failures = 0
    print(
        f"{'k':>3} {'n':>3} {'kind':>16} {'formula':>19} {'svd':>19} "
        f"{'rel_err':>9} {'red_diff':>9}"
    )
    for k in range(1, args.kmax + 1):
        formula = sylvester.sigma_min_formula(k)
        svds = {
            (n, kind): np.linalg.svd(sylvester.build_TA(k, n, kind), compute_uv=False)
            for n in (1, 2)
            for kind in kinds
        }
        for (n, kind), full in svds.items():
            rel_err = abs(full[-1] - formula) / formula
            red_diff = float(np.max(np.abs(full - np.repeat(svds[1, kind], n * n)))) / full[0]
            red_text = f"{red_diff:.1e}" if n > 1 else "-"
            print(
                f"{k:>3} {n:>3} {kind.value:>16} {formula:>19.15f} "
                f"{full[-1]:>19.15f} {rel_err:>9.1e} {red_text:>9}"
            )
            if rel_err > 1e-10 or red_diff > 1e-10:
                failures += 1
    if failures:
        print(f"{failures} entries above 1e-10 relative error")
        return EXIT_CERTIFICATION
    return EXIT_OK


def cmd_eigs(args) -> int:
    path = Path(args.input)
    kind = polycore.parse_kind(args.kind) if args.kind else None
    if linearize.sidecar_path(path).exists():
        pencil = linearize.load_pencil(path)
        spec = spectra.pencil_eigs(pencil.l0, pencil.l1)
        kind = kind or pencil.kind
    else:
        spec = spectra.reference_polyeigs(polycore.load_polynomial(path))
    rows = [
        {
            "alpha": [float(a.real), float(a.imag)],
            "beta": [float(b.real), float(b.imag)],
            "infinite": bool(inf),
        }
        for a, b, inf in zip(spec.alpha, spec.beta, spec.infinite_mask)
    ]
    doc = {"count": len(spec), "pairs": rows}
    if kind is not None:
        doc["kind"] = kind.value
        doc["symmetry_score"] = spectra.symmetry_check(spec, kind)
    text = json.dumps(doc)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return EXIT_OK


def _print_kind_table(reports, kinds) -> None:
    """Per-kind counts and the worst trial's distance to its certified bound."""
    print(
        f"{'kind':>16} {'trials':>7} {'bound_ok':>9} {'struct_ok':>10} "
        f"{'max_ratio':>12} {'ratio/bound':>12}"
    )
    for kind in kinds:
        rows = [r for r in reports if r.kind == kind.value]
        live = [r for r in rows if r.bound > 0]
        max_ratio = max((r.ratio for r in live), default=0.0)
        worst = max((r.ratio / r.bound for r in live), default=0.0)
        print(
            f"{kind.value:>16} {len(rows):>7} "
            f"{sum(r.ratio_le_bound for r in rows):>9} "
            f"{sum(r.structure_ok for r in rows):>10} {max_ratio:>12.3e} {worst:>12.3e}"
        )


def cmd_certify(args) -> int:
    if args.config:
        config = ExperimentConfig.from_json(args.config)
    else:
        config = ExperimentConfig().validate()
    if args.seed is not None:
        config.seed = args.seed
    if args.mode:
        config.mode = args.mode
    if args.output:
        config.output = args.output
    if args.format:
        config.format = args.format

    reports = []
    for kind in config.kinds():
        p = polycore.random_structured(
            config.n, config.grade, kind, target_norm=1.0, seed=config.seed
        )
        reports += backward.run_certification(
            p,
            kind,
            config.placement,
            config.pert_norms,
            config.trials,
            config.seed,
            mode=config.mode,
            compute_eigs=args.eigs,
        )
    if not args.timings:
        for rep in reports:
            rep.wall_ms = 0.0

    total = len(reports)
    passed = sum(1 for r in reports if r.ratio_le_bound and r.structure_ok)
    k = (config.grade - 1) // 2
    print(
        f"certify: {passed}/{total} trials within bound; "
        f"kind={config.kind} g={config.grade} n={config.n} "
        f"placement={config.placement} mode={config.mode}"
    )
    _print_kind_table(reports, config.kinds())
    print(
        "simplified multiplier (valid when norm_M is close to norm_P): "
        f"{backward.corollary_factor(k, config.n)!r}"
    )
    if config.output:
        if config.format == "csv":
            backward.reports_to_csv(reports, config.output)
        else:
            backward.reports_to_json(reports, config.output)
        print(f"wrote {config.output}")
    if config.mode == "certified" and passed < total:
        return EXIT_CERTIFICATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strukt",
        description="Structure-preserving block Kronecker linearizations "
        "and backward-error certification for odd-grade matrix polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lin = sub.add_parser("linearize", help="build a structured pencil from a polynomial file")
    lin.add_argument("input")
    lin.add_argument("--kind", required=True, choices=ALL_KINDS)
    lin.add_argument("--placement", default="tridiagonal", choices=sorted(linearize.PLACEMENTS))
    lin.add_argument("--output")
    lin.set_defaults(func=cmd_linearize)

    rec = sub.add_parser(
        "recover", help="recover the polynomial a built or perturbed pencil file linearizes"
    )
    rec.add_argument("pencil")
    rec.add_argument("--output")
    rec.set_defaults(func=cmd_recover)

    per = sub.add_parser("perturb", help="write a structured perturbation of a pencil")
    per.add_argument("pencil")
    per.add_argument("--norm", type=float, required=True)
    per.add_argument("--seed", type=int, default=0)
    per.add_argument("--output")
    per.set_defaults(func=cmd_perturb)

    sig = sub.add_parser("sigma-min", help="tabulate the system-matrix singular value law")
    sig.add_argument("--kmax", type=int, default=6)
    sig.add_argument("--kinds", help="comma-separated subset of structure kinds")
    sig.set_defaults(func=cmd_sigma_min)

    eig = sub.add_parser("eigs", help="eigenvalues of a polynomial or pencil file")
    eig.add_argument("input")
    eig.add_argument("--kind", choices=ALL_KINDS)
    eig.add_argument("--output")
    eig.set_defaults(func=cmd_eigs)

    cer = sub.add_parser("certify", help="run a certification campaign")
    cer.add_argument("config", nargs="?", help="JSON config; defaults are built in")
    cer.add_argument("--seed", type=int, help="overrides the config's seed")
    cer.add_argument("--mode", choices=backward.MODES)
    cer.add_argument("--output")
    cer.add_argument("--format", choices=["csv", "json"])
    cer.add_argument("--eigs", action="store_true", help="record eigenvalue transport per trial")
    cer.add_argument("--timings", action="store_true", help="record real wall times per trial")
    cer.set_defaults(func=cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (StruktError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
