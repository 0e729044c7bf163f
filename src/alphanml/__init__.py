"""Universal prediction for discrete memoryless sources.

A one-parameter family of predictors that interpolates between Bayes
mixtures (alpha = 1) and the normalized maximum likelihood distribution
(alpha -> infinity), together with worst-case, average and alpha-regret
evaluation, luckiness-weighted variants, large-n regret formulas and
brute-force oracles for cross-checking every fast path.
"""

from __future__ import annotations

from .exceptions import InfeasibleModelError, NumericError, UnsupportedError
from .numerics import (
    LOG_TWO,
    log_gamma,
    log_multinomial,
    log_multivariate_beta,
    log_sum_exp,
    log_sum_exp_array,
    xlogy,
)
from .typeclass import (
    CountVector,
    count_vector_ranks,
    count_vector_total,
    count_vectors,
    log_multiplicities,
)
from .predictors import (
    AlphaNML,
    DirichletParams,
    LuckinessAlphaNML,
    LuckinessNML,
    Mixture,
    NML,
    NormalizerCache,
    PredictorSpec,
    conditional_distribution,
    cumulative_log_loss,
    kt,
    laplace,
    log_dirichlet_alpha_integral,
    log_joint,
    log_joints,
    log_luckiness_supremum,
    log_ml,
    log_normalizer,
    log_numerators,
    tilted_params,
)
from .regret import (
    RegretReport,
    SimplexPoint,
    TypeClassTable,
    alpha_regret,
    alpha_split_check,
    asymptotic_min_alpha_regret,
    asymptotic_rmax,
    average_regret,
    figure1_table,
    infinity_split_check,
    predictor_kl,
    renyi_divergence_vs_predictor,
    sibson_mi_alpha,
    sibson_mi_infinity,
    w_alpha_closed,
    w_alpha_direct,
    worst_case_regret,
)
from .luckiness import (
    average_luckiness_regret,
    luckiness_alpha_regret,
    luckiness_alpha_regret_supform,
    worst_case_luckiness_regret,
)
from .oracle import (
    OracleConfig,
    brute_sequence_sum,
    brute_simplex_max,
    sequence_counts,
    sequential_mixture_log_prob,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaNML",
    "CountVector",
    "DirichletParams",
    "InfeasibleModelError",
    "LOG_TWO",
    "LuckinessAlphaNML",
    "LuckinessNML",
    "Mixture",
    "NML",
    "NormalizerCache",
    "NumericError",
    "OracleConfig",
    "PredictorSpec",
    "RegretReport",
    "SimplexPoint",
    "TypeClassTable",
    "UnsupportedError",
    "alpha_regret",
    "alpha_split_check",
    "asymptotic_min_alpha_regret",
    "asymptotic_rmax",
    "average_luckiness_regret",
    "average_regret",
    "brute_sequence_sum",
    "brute_simplex_max",
    "conditional_distribution",
    "count_vector_ranks",
    "count_vector_total",
    "count_vectors",
    "cumulative_log_loss",
    "figure1_table",
    "infinity_split_check",
    "kt",
    "laplace",
    "log_dirichlet_alpha_integral",
    "log_gamma",
    "log_joint",
    "log_luckiness_supremum",
    "log_joints",
    "log_ml",
    "log_multinomial",
    "log_multiplicities",
    "log_multivariate_beta",
    "log_normalizer",
    "log_numerators",
    "log_sum_exp",
    "log_sum_exp_array",
    "luckiness_alpha_regret",
    "luckiness_alpha_regret_supform",
    "predictor_kl",
    "renyi_divergence_vs_predictor",
    "sequence_counts",
    "sequential_mixture_log_prob",
    "sibson_mi_alpha",
    "sibson_mi_infinity",
    "tilted_params",
    "w_alpha_closed",
    "w_alpha_direct",
    "worst_case_luckiness_regret",
    "worst_case_regret",
    "xlogy",
]
