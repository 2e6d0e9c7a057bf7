"""Structure-preserving block Kronecker linearizations of odd-grade matrix
polynomials, with certified mapping of structured pencil perturbations back to
structured polynomial perturbations."""

from .errors import (
    ConvergenceError,
    GradeError,
    NumericalError,
    SingularPolynomialError,
    SpectrumMismatchError,
    StructureError,
    StruktError,
    ThresholdError,
)
from .polycore import (
    COMPLEX,
    REAL,
    MatrixPolynomial,
    MobiusMatrix,
    StructureKind,
    evaluate,
    frob_norm,
    from_coeff_list,
    load_polynomial,
    mobius,
    pair_norm,
    poly_matmul,
    random_structured,
    reversal,
    save_polynomial,
    star_adjoint,
    structure_project,
    transpose_poly,
)
from .minbases import (
    DualBasisPair,
    build_Lambda,
    build_Lk,
    convolution_matrix,
    dual_basis_complete,
)
from .linearize import (
    BlockKroneckerPencil,
    assemble,
    build_linearization,
    placement_stacked,
    placement_tridiagonal,
    recover,
)
from .sylvester import (
    FixedPointState,
    build_TA,
    quadratic_fixed_point,
    sigma_min_formula,
)
from .backward import (
    BackwardErrorReport,
    congruence_zero_block,
    random_structured_perturbation,
    reconstruct_perturbed_polynomial,
    run_certification,
    theorem_bound,
)
from .spectra import (
    MinimalIndexReport,
    SpectrumReport,
    compare_spectra,
    minimal_indices,
    pencil_eigs,
    reference_polyeigs,
    symmetry_check,
)

__version__ = "0.1.0"
