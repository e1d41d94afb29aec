"""Verification library for two specialized monic Wilson polynomial
families, the difference-equation eigenproblems governing the boost
decomposition of a parity operator, the parity-reconstruction expansion,
and matrix-level audits of the underlying operator algebra."""

from .errors import (
    DegenerateFamily,
    DomainPole,
    IllConditioned,
    InvalidSpin,
    LatticePole,
    NoConvergence,
    ParityWilsonError,
)
from .numcore import (
    BParamPolynomial,
    RationalPolynomial,
    frac_to_str,
    poly_eval,
)
from .wilson import (
    CASE_A,
    CASE_B,
    PointMass,
    WeightFunction,
    WilsonFamily,
    alternating_reflect,
    family_weight,
    generating_function_check,
    monic_from_hypergeometric,
    monic_from_recurrence,
    norm_closed_form,
    printed_norm_rhs,
    recurrence_discrepancy_report,
)
from .spectral import (
    EigenpairRecord,
    LatticeFunction,
    ScanReport,
    casoratian,
    conjecture_scan,
    default_w_grid,
    eigenfunction,
    eigenvalue,
    g_callable,
    g_polynomial,
    residual_g,
    residual_master,
    second_solution,
)
from .expand import (
    CoefficientTable,
    DiscreteMeasure,
    auto_cutoff,
    discrete_measure,
    family_values,
    inner_product,
    parity_coefficients,
    parity_target,
    project,
    reconstruction_residual,
    stieltjes_monic_table,
    tail_bound,
)
from .lorentz import (
    DerivedOperators,
    LorentzRep,
    SpinZeroExtraction,
    algebra_audit,
    build_spin_rep,
    build_vector_rep,
    derived_operators,
    n0_extraction,
)

__version__ = "0.1.0"
