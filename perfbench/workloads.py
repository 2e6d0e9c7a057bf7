"""Benchmark workloads: inputs derived from a seed, one op per request, and
the correctness gate each op must pass.

Importing this module puts the checkout's `src/` first on `sys.path` and
refuses to run against any other copy of `strukt`.  The BLAS thread count is
read at numpy import, so the caller pins it in the environment beforehand.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "strukt" / "__init__.py").is_file():
    raise ImportError(f"strukt sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import strukt  # noqa: E402
from strukt import backward, linearize, minbases, polycore, spectra, sylvester  # noqa: E402
from strukt.polycore import StructureKind, frob_norm  # noqa: E402

if Path(strukt.__file__).resolve().parent != SRC / "strukt":
    raise ImportError(f"imported strukt from {strukt.__file__}, expected {SRC}")

# Every library function the traced run records, looked up through its module.
TRACED = [
    (backward, "run_certification"),
    (backward, "random_structured_perturbation"),
    (backward, "congruence_zero_block"),
    (backward, "reconstruct_perturbed_polynomial"),
    (sylvester, "quadratic_fixed_point"),
    (minbases, "dual_basis_complete"),
    (linearize, "build_linearization"),
    (linearize, "recover"),
    (polycore, "random_structured"),
    (spectra, "pencil_eigs"),
    (spectra, "reference_polyeigs"),
    (spectra, "compare_spectra"),
    (spectra, "symmetry_check"),
]

# Spawn-key namespaces under the workload seed.
_POLY_KEY, _REQUEST_KEY, _TRACE_KEY = 0, 1, 2
SEEDS_PER_CHILD = 1 << 16
CAMPAIGN_REPEATS = 2
# QZ iteration counts depend on the coefficients, so each verify cell gets
# several polynomials; otherwise a run's cost would hinge on a few draws.
VERIFY_VARIANTS = 16


class Outcome(NamedTuple):
    ok: bool
    ratio_over_bound: float  # NaN unless the op is a passing certification
    iters: int


@dataclass(frozen=True)
class Request:
    shape: tuple  # (k, n, field): ops of equal shape share warm-up
    run: Callable[[int], Outcome]  # takes the per-request seed


def _poly(seed: int, cell: int, kind, k: int, n: int, field: str):
    ss = np.random.SeedSequence(seed, spawn_key=(_POLY_KEY, cell))
    return polycore.random_structured(n, 2 * k + 1, kind, 1.0, seed=ss, field=field)


def _certify_op(p, kind, norm) -> Callable[[int], Outcome]:
    def run(request_seed: int) -> Outcome:
        [rep] = backward.run_certification(p, kind, "tridiagonal", [norm], 1, request_seed)
        ok = rep.error is None and rep.ratio_le_bound and rep.structure_ok
        return Outcome(bool(ok), rep.ratio / rep.bound if ok else math.nan, rep.iters)

    return run


def _verify_op(p, kind) -> Callable[[int], Outcome]:
    def run(_request_seed: int) -> Outcome:
        pencil = linearize.build_linearization(p, kind, "tridiagonal")
        recovered = frob_norm(linearize.recover(pencil) - p) <= 1e-12 * frob_norm(p)
        got = spectra.pencil_eigs(pencil.l0, pencil.l1)
        want = spectra.reference_polyeigs(p)
        transported = spectra.compare_spectra(got, want).max_distance <= 1e-8
        symmetric = spectra.symmetry_check(got, kind) <= 1e-8
        return Outcome(recovered and transported and symmetric, math.nan, 0)

    return run


@dataclass(frozen=True)
class Certify:
    """Single-trial `run_certification` requests over a grid of cells.

    In campaign order each P gets a block of consecutive requests (every norm,
    CAMPAIGN_REPEATS times); otherwise the cell changes on every op.  Cells cycle
    through the shapes fastest, so any prefix of the cycle has a balanced mix.
    """

    shapes: tuple
    fields: tuple
    norms: tuple
    campaign: bool

    def requests(self, seed: int) -> list[Request]:
        cells = [
            (kind, k, n, field)
            for kind in StructureKind
            for field in self.fields
            for k, n in self.shapes
        ]
        polys = [_poly(seed, i, *cell) for i, cell in enumerate(cells)]

        def request(i, norm):
            kind, k, n, field = cells[i]
            return Request((k, n, field), _certify_op(polys[i], kind, norm))

        if self.campaign:
            return [
                request(i, norm)
                for i in range(len(cells))
                for _ in range(CAMPAIGN_REPEATS)
                for norm in self.norms
            ]
        return [request(i, norm) for norm in self.norms for i in range(len(cells))]


@dataclass(frozen=True)
class Verify:
    """Forward path without perturbation: build, recover, and check spectra."""

    shapes: tuple

    def requests(self, seed: int) -> list[Request]:
        cells = [
            (kind, k, n)
            for _ in range(VERIFY_VARIANTS)
            for kind in StructureKind
            for k, n in self.shapes
        ]
        return [
            Request((k, n, polycore.REAL), _verify_op(_poly(seed, i, kind, k, n, polycore.REAL), kind))
            for i, (kind, k, n) in enumerate(cells)
        ]


WORKLOADS = {
    "certify-large": Certify(
        shapes=((2, 6), (3, 5), (4, 4)),
        fields=(polycore.REAL,),
        norms=(1e-8, 1e-6),
        campaign=True,
    ),
    # (1, 3) costs between the (2, 2) and the (2, 3)/(3, 2) ops; without it
    # the median sits on a gap in op cost between them and jumps between runs.
    "certify-small": Certify(
        shapes=((1, 2), (2, 2), (2, 3), (3, 2), (1, 3)),
        fields=(polycore.REAL, polycore.COMPLEX),
        norms=(1e-10, 1e-6, 1e-4),
        campaign=False,
    ),
    # n is even: skew-symmetric polynomials of odd size are singular.  The
    # pencils are all of size (2k+1)n = 108 or 110, so op times do not cluster
    # by shape; with clusters, the median sits between two of them and jumps.
    "linearize-verify": Verify(shapes=((1, 36), (2, 22), (4, 12))),
}


def request_seeds(seed: int, child: int) -> np.ndarray:
    """Per-request seeds for one worker process."""
    ss = np.random.SeedSequence(seed, spawn_key=(_REQUEST_KEY, child))
    return ss.generate_state(SEEDS_PER_CHILD)


def trace_mask(seed: int, child: int) -> np.ndarray:
    """Which ops of a traced run record spans; the rest time the untraced path."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_TRACE_KEY, child)))
    return rng.random(SEEDS_PER_CHILD) < 0.5
