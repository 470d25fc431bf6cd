"""Exact arithmetic for p-adic q-analysis.

Layers, bottom up: fixed-precision p-adic numbers and Teichmuller/log/exp
machinery (padic), Dirichlet characters with values in the roots of unity of
Z_p (characters), exact classical Bernoulli apparatus (classical), the
q-Bernoulli families in both single and r-fold form (qbernoulli), the
two-variable p-adic q-L-function with closed-form special values, series
evaluation and difference identities (lfunctions), congruence verification
with valuation certificates (congruences), floating-point brute-force
oracles used to validate conventions (oracles), and randomized invariant
suites (invariants).
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    DivergenceDetected,
    DivisionByZero,
    DomainError,
    InconclusivePrecision,
    NoConsistentNormalization,
    NormalizationUnresolved,
    NotAUnit,
    PoleError,
    PrecisionExhausted,
    PreconditionViolated,
    QplError,
    TailTooLarge,
    UnsupportedOrder,
)
from .padic import (
    PadicNumber,
    QContext,
    angle_q,
    fraction_valuation,
    in_D,
    in_Rstar,
    int_valuation,
    iwasawa_log,
    p_star,
    padic_exp,
    padic_power,
    rstar_threshold,
    teichmuller,
    teichmuller_int,
)
from .characters import (
    DirichletCharacter,
    char_build,
    char_product,
    char_twist_omega,
    euler_phi,
    induce,
    omega_pow,
    parse_char_spec,
    primitive,
    principal_char,
)
from .classical import (
    bernoulli_number,
    multi_gen_bernoulli_poly,
    norlund_number,
    norlund_poly,
    pochhammer,
    stirling_first,
    sum_counts,
)
from .qbernoulli import (
    carlitz_beta,
    gen_q_beta_poly,
    kim_sum_of_products,
    multi_gen_q_beta_poly,
    multi_q_beta_poly,
    series_beta,
    volkenborn_beta_poly,
)
from .lfunctions import (
    LParams,
    Lpq_at_r,
    Lpq_difference_rhs,
    Lpq_eval,
    Lpq_special,
    Lq_special,
    SeriesValue,
    choose_F,
    partial_q_zeta_special,
    q_zeta_special,
)
from .congruences import (
    Bnr_structure,
    CongruenceReport,
    binom_operator,
    forward_diff,
    stirling_expansion,
    verify_binom_op_thm,
    verify_classical_kummer,
    verify_thm53,
    verify_thm54,
)
from .oracles import (
    choose_M,
    closed_multi_beta,
    oracle_carlitz_beta,
    oracle_carlitz_beta_poly,
    oracle_multi_beta,
    oracle_multi_gen_beta,
    oracle_q_zeta,
    oracle_resolve_conventions,
)
from .invariants import SUITES, SuiteResult, run_suites
