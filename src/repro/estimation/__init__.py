"""Estimation algorithms: response matrices and λ-D query combination."""

from repro.estimation.response_matrix import (
    STOP_KAPPA,
    IPFDiagnostics,
    build_response_matrix,
    fit_response_matrix,
    stop_tolerance,
)
from repro.estimation.lambda_query import (
    PairAnswers,
    canonical_pairs,
    estimate_lambda_query,
    fit_lambda_queries,
    fit_lambda_query,
    pair_answers_from_matrix,
    pair_answers_tables,
)
from repro.estimation.engine import SummedAreaTable

__all__ = [
    "STOP_KAPPA",
    "IPFDiagnostics",
    "SummedAreaTable",
    "build_response_matrix",
    "fit_response_matrix",
    "stop_tolerance",
    "PairAnswers",
    "canonical_pairs",
    "pair_answers_from_matrix",
    "pair_answers_tables",
    "estimate_lambda_query",
    "fit_lambda_query",
    "fit_lambda_queries",
]
