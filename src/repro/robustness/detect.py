"""Aggregator-side feasibility detectors for the post-processing stage.

Sanitizers (``robustness.policy``) reject reports that are *structurally*
invalid. A competent adversary sends structurally valid reports — an MGA
fake is indistinguishable row by row — so the second defense layer checks
whether the *aggregate outcome* is feasible for honest data:

* ``range`` — raw (pre-post-processing) frequency estimates are unbiased
  with known per-cell variance, so honest estimates live in
  ``[−τ, 1 + τ]`` for τ a few standard deviations wide. A cell far
  outside the band means the support counts cannot have come from honest
  reports of any input distribution.
* ``l1`` — honest raw estimates sum to 1 up to noise; a large
  ``|Σ f̂ − 1|`` deviation is the signature of injected support
  (each MGA fake adds ≈ 1/(p−q)·1/n to the grand total).
* ``imbalance`` — users are assigned to groups uniformly at random, so
  group sizes are a multinomial sample; a group whose report count sits
  many sigmas from ``n/m`` indicates targeted report injection into one
  grid's population.

Detectors never mutate estimates — they *flag*. The flags land in
:meth:`repro.core.Aggregator.robustness_report` so operators (and the
attack experiments) can audit every run; bounding the damage is the
post-processing stage's job (non-negativity + normalization already cap
any cell's post-processed share).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: detector names accepted by ``FelipConfig(detectors=...)``
DETECTOR_NAMES = ("range", "l1", "imbalance")

#: acceptance-band half-width, in standard deviations of honest noise
DEFAULT_SIGMAS = 5.0

#: absolute slack added to every band (guards tiny-variance regimes)
DEFAULT_SLACK = 0.05


@dataclass(frozen=True)
class DetectorFlag:
    """One detector's verdict on one grid (or on the whole run)."""

    detector: str
    grid: Optional[Tuple[int, ...]]
    triggered: bool
    value: float
    threshold: float
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "detector": self.detector,
            "grid": list(self.grid) if self.grid is not None else None,
            "triggered": bool(self.triggered),
            "value": float(self.value),
            "threshold": float(self.threshold),
            "detail": self.detail,
        }


def validate_detector_names(names: Sequence[str]) -> Tuple[str, ...]:
    """Validate a ``FelipConfig.detectors`` tuple (order-preserving)."""
    unknown = [n for n in names if n not in DETECTOR_NAMES]
    if unknown:
        raise ConfigurationError(
            f"unknown detectors {unknown}; expected subset of "
            f"{DETECTOR_NAMES}")
    return tuple(names)


def range_feasibility(frequencies: np.ndarray, cell_variance: float,
                      grid: Optional[Tuple[int, ...]] = None,
                      sigmas: float = DEFAULT_SIGMAS,
                      slack: float = DEFAULT_SLACK) -> DetectorFlag:
    """Flag raw estimates outside ``[−τ, 1 + τ]``."""
    freqs = np.asarray(frequencies, dtype=np.float64)
    tau = slack + sigmas * math.sqrt(max(cell_variance, 0.0))
    if freqs.size == 0 or not np.all(np.isfinite(freqs)):
        return DetectorFlag("range", grid, True, math.inf, tau,
                            "non-finite estimates")
    overshoot = float(max(freqs.max() - 1.0, -freqs.min(), 0.0))
    return DetectorFlag(
        "range", grid, overshoot > tau, overshoot, tau,
        f"worst overshoot {overshoot:.4f} vs τ={tau:.4f}")


def l1_feasibility(frequencies: np.ndarray, cell_variance: float,
                   grid: Optional[Tuple[int, ...]] = None,
                   sigmas: float = DEFAULT_SIGMAS,
                   slack: float = DEFAULT_SLACK) -> DetectorFlag:
    """Flag a grid whose raw estimates do not sum to ≈ 1."""
    freqs = np.asarray(frequencies, dtype=np.float64)
    num_cells = max(len(freqs), 1)
    tau = slack + sigmas * math.sqrt(max(cell_variance, 0.0) * num_cells)
    if freqs.size == 0 or not np.all(np.isfinite(freqs)):
        return DetectorFlag("l1", grid, True, math.inf, tau,
                            "non-finite estimates")
    deviation = float(abs(freqs.sum() - 1.0))
    return DetectorFlag(
        "l1", grid, deviation > tau, deviation, tau,
        f"|Σf̂ − 1| = {deviation:.4f} vs τ={tau:.4f}")


def group_imbalance(group_sizes: Sequence[int],
                    sigmas: float = DEFAULT_SIGMAS) -> DetectorFlag:
    """Flag report-count imbalance across the uniformly assigned groups."""
    sizes = np.asarray(group_sizes, dtype=np.float64)
    m = len(sizes)
    n = float(sizes.sum())
    if m < 2 or n <= 0:
        return DetectorFlag("imbalance", None, False, 0.0, sigmas,
                            "fewer than two groups")
    expected = n / m
    std = math.sqrt(n * (1.0 / m) * (1.0 - 1.0 / m))
    worst = float(np.abs(sizes - expected).max())
    z = worst / max(std, 1e-12)
    return DetectorFlag(
        "imbalance", None, z > sigmas, z, sigmas,
        f"worst group deviates {worst:.0f} reports from {expected:.0f} "
        f"(z={z:.2f})")


def run_detectors(names: Sequence[str],
                  raw_estimates: Dict[Tuple[int, ...], np.ndarray],
                  cell_variances: Dict[Tuple[int, ...], float],
                  group_sizes: Sequence[int],
                  sigmas: float = DEFAULT_SIGMAS) -> List[DetectorFlag]:
    """Run the named detectors over every grid's raw estimates.

    ``raw_estimates`` must be the *pre-post-processing* frequencies:
    consistency and non-negativity project estimates onto the simplex,
    which would erase exactly the infeasibility these detectors look for.
    """
    names = validate_detector_names(names)
    flags: List[DetectorFlag] = []
    for name in names:
        if name == "imbalance":
            flags.append(group_imbalance(group_sizes, sigmas=sigmas))
            continue
        check = range_feasibility if name == "range" else l1_feasibility
        for key, freqs in raw_estimates.items():
            flags.append(check(freqs, cell_variances.get(key, 0.0),
                               grid=key, sigmas=sigmas))
    return flags
