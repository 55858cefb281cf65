"""Poisoning-attack experiments: utility degradation with/without defenses.

Measures what a coalition of malicious users can do to a frequency
oracle's estimate of one target cell (the Cao–Jia–Gong threat model:
fakes inject forged reports to inflate a chosen value), and how much of
that damage the robustness layer removes:

* **undefended** — forged reports fold straight in with the honest batch;
  the raw estimate of the target cell inflates by roughly
  ``fraction / (p − q)`` under a maximal-gain attack.
* **defended** — every report passes the ``quarantine`` ingestion policy
  (structurally invalid or infeasible batches are dropped and counted),
  the ``range``/``l1`` feasibility detectors audit the raw estimates,
  and non-negativity + normalization bound what survives.

:func:`run_poisoning_cell` evaluates one (protocol, attack, fraction)
cell and returns the full numeric artifact; :func:`poisoning_sweep`
tabulates cells across malicious-user fractions.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.fo.adaptive import make_oracle
from repro.metrics import ResultTable
from repro.postprocess import normalize_non_negative
from repro.rng import RngLike, ensure_rng
from repro.robustness.attacks import make_attack
from repro.robustness.detect import run_detectors
from repro.robustness.policy import (
    IngestPolicy,
    IngestStats,
    ReportSpec,
    sanitize_reports,
)


def run_poisoning_cell(protocol: str = "oue", epsilon: float = 1.0,
                       domain_size: int = 32, n: int = 20_000,
                       malicious_fraction: float = 0.05,
                       attack: str = "max_gain", target: int = 0,
                       rng: RngLike = None) -> Dict[str, object]:
    """One attack cell: honest population + forged coalition, both paths.

    ``malicious_fraction`` is the coalition size relative to the honest
    population ``n``. Returns every number the comparison needs: the true
    target frequency, the honest-only estimate, the undefended and
    defended estimates (raw and normalized), detector verdicts, and the
    ingestion accounting of the defended path.
    """
    if not 0.0 <= malicious_fraction < 1.0:
        raise ConfigurationError(
            f"malicious_fraction must be in [0, 1), got "
            f"{malicious_fraction}")
    if not 0 <= target < domain_size:
        raise ConfigurationError(
            f"target {target} outside domain [0, {domain_size})")
    rng = ensure_rng(rng)
    oracle = make_oracle(protocol, epsilon, domain_size)
    values = rng.integers(0, domain_size, size=n)
    true_freq = float(np.mean(values == target))
    honest = oracle.perturb(values, rng)
    honest_est = oracle.estimate(honest)

    num_fake = int(round(malicious_fraction * n))
    batches = [honest]
    if num_fake:
        adversary = make_attack(attack)
        batches.append(adversary.forge(oracle, num_fake, target, rng))

    # Undefended: the forged batch folds straight in.
    undefended_raw = oracle.unbias(oracle.fold(None, batches))

    # Defended: quarantine ingestion, feasibility detectors, projection.
    # The detectors audit the *pre-sanitization* estimates — that is
    # where an attack's infeasibility signature lives; sanitization may
    # already have removed the forged batch from the defended path.
    policy = IngestPolicy(mode="quarantine")
    stats = IngestStats()
    spec = ReportSpec.from_oracle(oracle)
    survivors = sanitize_reports(list(batches), policy, stats,
                                 expected=spec)
    defended_raw = oracle.unbias(oracle.fold(None, survivors)) \
        if survivors else np.zeros(domain_size)
    cell_variance = oracle.theoretical_variance(max(n, 1))
    flags = run_detectors(("range", "l1"), {(0,): undefended_raw},
                          {(0,): cell_variance}, group_sizes=[])
    defended = normalize_non_negative(defended_raw)

    return {
        "protocol": protocol,
        "attack": attack,
        "epsilon": epsilon,
        "n": n,
        "num_fake": num_fake,
        "malicious_fraction": malicious_fraction,
        "target": target,
        "true_target_freq": true_freq,
        "honest_estimate": float(honest_est[target]),
        "undefended_estimate": float(undefended_raw[target]),
        "defended_raw_estimate": float(defended_raw[target]),
        "defended_estimate": float(defended[target]),
        "undefended_inflation": float(undefended_raw[target] - true_freq),
        "defended_inflation": float(defended[target] - true_freq),
        "flagged": any(f.triggered for f in flags),
        "detectors": [f.as_dict() for f in flags],
        "ingest": stats.as_dict(),
    }


def poisoning_sweep(protocol: str = "oue", epsilon: float = 1.0,
                    domain_size: int = 32, n: int = 20_000,
                    fractions: Sequence[float] = (0.0, 0.01, 0.05, 0.10),
                    attack: str = "max_gain", target: int = 0,
                    rng: RngLike = None) -> ResultTable:
    """Target-cell inflation vs malicious-user fraction, both paths."""
    rng = ensure_rng(rng)
    table = ResultTable(
        ["fraction", "true", "undefended", "defended", "flagged",
         "dropped_reports"],
        title=f"Poisoning ({attack} on {protocol}, ε={epsilon})")
    for fraction in fractions:
        cell = run_poisoning_cell(
            protocol, epsilon, domain_size, n, fraction, attack, target,
            rng)
        table.add_row(fraction, cell["true_target_freq"],
                      cell["undefended_estimate"],
                      cell["defended_estimate"], cell["flagged"],
                      cell["ingest"]["dropped_reports"])
    return table
