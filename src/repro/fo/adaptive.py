"""Adaptive frequency oracle (paper, Section 5.3).

For a grid with ``L`` cells, AFO reports with whichever registered
adaptive-candidate protocol has the lower analytic variance. With the
built-in GRR/OLH pair this is exactly the paper's Eq. 13:

    Var[Φ_AFO] = min( (e^ε + L − 2), 4 e^ε ) / (e^ε − 1)² · m/n

GRR's variance grows linearly in ``L`` while OLH's is constant, so GRR
wins exactly when ``L − 2 ≤ 3 e^ε`` — small grids and/or generous
budgets. Further candidates (e.g. Hadamard Response) enter the
comparison by registering a spec with ``adaptive_candidate=True``; a
candidate only displaces an earlier-registered one by *strictly* lower
variance, which preserves Eq. 13's tie-break toward GRR.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.fo import kernels
from repro.fo.base import FrequencyOracle
from repro.fo.registry import ADAPTIVE, adaptive_candidates, get


def choose_protocol(epsilon: float, domain_size: int) -> str:
    """The lowest-variance adaptive-candidate protocol for this (ε, L)."""
    best_name, best_variance = None, math.inf
    for spec in adaptive_candidates():
        variance = spec.analytic_variance(epsilon, domain_size, 1)
        if variance < best_variance:
            best_name, best_variance = spec.name, variance
    if best_name is None:
        raise ConfigurationError(
            "no adaptive-candidate protocol is registered")
    return best_name


def make_oracle(protocol: str, epsilon: float,
                domain_size: int) -> FrequencyOracle:
    """Instantiate a registered oracle by name.

    Any registered protocol with a client-side oracle works (see
    :func:`repro.fo.registry.registered_names` for the current set);
    ``protocol="adaptive"`` applies :func:`choose_protocol` first.
    """
    if protocol == ADAPTIVE:
        protocol = choose_protocol(epsilon, domain_size)
    spec = get(protocol)
    if spec.factory is None:
        raise ConfigurationError(
            f"protocol {protocol!r} has no standalone client-side oracle; "
            f"it collects through its interactive fitting path and cannot "
            f"be instantiated with make_oracle()")
    oracle = spec.factory(epsilon, domain_size)
    # Warm this protocol's compiled kernels now: make_oracle is the one
    # choke point every collection path (serial, sharded, streaming)
    # builds oracles through, so compile/load cost
    # lands here instead of inside the first timed perturb. Idempotent
    # and cheap once warm.
    kernels.warm(spec.kernels)
    return oracle
