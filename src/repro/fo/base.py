"""Frequency-oracle interface.

Every oracle exposes the client/server split of the paper's (Ψ, Φ) pair:

* :meth:`FrequencyOracle.perturb` — Ψ, run once per user on their private
  value. Simulated in a vectorized batch, but each row uses independent
  randomness, so the output is distributionally identical to n independent
  clients.
* :meth:`FrequencyOracle.estimate` — Φ, run by the aggregator over all
  reports; returns the unbiased frequency estimate of every domain value.

Φ is split in two so no collection keeps its reports: batch, budget-split
and streaming collection fold each shard where it is perturbed (or
admitted), merge the folded states, and only unbias them. The
aggregator knows every grid's cells before any user reports, so
:meth:`FrequencyOracle.fold` can reduce any number of reports to a
:class:`FoldedState` — the user count plus one fixed-length vector of
exact sufficient statistics (OLH support counts, a GRR histogram, HR's
signed projections, or the unary/histogram/square-wave sums the report
already carries) — and :meth:`FrequencyOracle.unbias` turns that state
into the estimate. ``estimate(report)`` is ``unbias(fold(None,
[report]))``: each protocol has exactly one unbiasing formula.

Estimates are raw (possibly negative, not summing to one); post-processing
is a separate stage (:mod:`repro.postprocess`), as in the paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PrivacyError, ProtocolError
from repro.fo import kernels
from repro.rng import RngLike, ensure_rng


def validate_epsilon(epsilon: float) -> float:
    """Validate a privacy budget; returns it as ``float``."""
    epsilon = float(epsilon)
    if not np.isfinite(epsilon) or epsilon <= 0.0:
        raise PrivacyError(f"epsilon must be positive and finite, "
                           f"got {epsilon}")
    return epsilon


# ---------------------------------------------------------------------------
# Structural checks of the report constructors. A report is built from
# whatever a client sent (the wire decoder calls the constructor), so each
# raises ProtocolError on anything a well-formed report cannot hold.
# ---------------------------------------------------------------------------


def row_array(rows, name: str) -> np.ndarray:
    """``rows`` as a 1-D array of an integer dtype: one entry per user."""
    rows = np.asarray(rows)
    if rows.ndim != 1:
        raise ProtocolError(f"{name} must be 1-D, got shape {rows.shape}")
    if not np.issubdtype(rows.dtype, np.integer):
        raise ProtocolError(
            f"{name} must be integers, got dtype {rows.dtype}")
    return rows


def user_count(n) -> int:
    """A report's declared user count, as an ``int`` >= 0."""
    try:
        count = int(n)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != n or count < 0:
        raise ProtocolError(f"n must be an integer >= 0, got {n!r}")
    return count


def sum_array(sums, name: str) -> np.ndarray:
    """``sums`` as a finite 1-D ``float64`` vector."""
    sums = np.asarray(sums)
    if sums.ndim != 1:
        raise ProtocolError(f"{name} must be 1-D, got shape {sums.shape}")
    if sums.dtype.kind not in "iuf":
        raise ProtocolError(f"{name} must be numeric, got dtype "
                            f"{sums.dtype}")
    if sums.dtype.kind == "f" and not np.isfinite(sums).all():
        raise ProtocolError(f"{name} has NaN or inf entries")
    return sums.astype(np.float64, copy=False)


def counter_array(counts, name: str, n: int) -> np.ndarray:
    """``counts`` as a 1-D ``int64`` vector of integral counts in
    ``[0, n]``: how many of ``n`` users set each entry."""
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.dtype.kind not in "iuf":
        raise ProtocolError(f"{name} must be a 1-D numeric vector, got "
                            f"{counts.dtype} of shape {counts.shape}")
    if counts.dtype.kind == "f" and not np.isfinite(counts).all():
        raise ProtocolError(f"{name} has NaN or inf entries")
    if len(counts) and (counts.min() < 0 or counts.max() > n):
        raise ProtocolError(
            f"{name} must lie in [0, n={n}], got range "
            f"[{counts.min()}, {counts.max()}]")
    as_int = counts.astype(np.int64, copy=False)
    if as_int is not counts and not np.array_equal(as_int, counts):
        raise ProtocolError(f"{name} must be integral counts")
    return as_int


@dataclass(frozen=True)
class FoldedState:
    """``n`` users' reports folded into one fixed-length vector.

    The vector is read-only: a fold builds a new state instead of
    changing one, so a state handed to an aggregator (or rendered into a
    checkpoint) keeps describing the instant it was taken.
    """

    n: int
    vector: np.ndarray

    def __post_init__(self) -> None:
        self.vector.flags.writeable = False


class FrequencyOracle(ABC):
    """Abstract ε-LDP frequency oracle over the domain ``{0..d-1}``."""

    #: short protocol identifier ("grr", "olh", "oue")
    name: str = ""

    #: dtype of the folded vector: exact integer counts, unless the
    #: protocol's sufficient statistic is a float sum
    state_dtype = np.dtype(np.int64)

    #: bounds of every folded-vector entry as multiples of ``n`` (counts
    #: of users lie in [0, n]); ``None`` for unbounded float sums
    state_bounds: Optional[Tuple[int, int]] = (0, 1)

    #: report field a sufficient-statistic report folds by addition;
    #: per-user-row protocols override :meth:`_statistic` instead
    summed_field: str = ""

    def __init__(self, epsilon: float, domain_size: int):
        self.epsilon = validate_epsilon(epsilon)
        if domain_size < 2:
            raise ProtocolError(
                f"domain_size must be >= 2, got {domain_size}"
            )
        self.domain_size = int(domain_size)

    def _check_values(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.ndim != 1:
            raise ProtocolError(
                f"values must be a 1-D array, got shape {values.shape}"
            )
        if values.size and (values.min() < 0
                            or values.max() >= self.domain_size):
            raise ProtocolError(
                f"values outside domain [0, {self.domain_size})"
            )
        return values.astype(np.int64, copy=False)

    @abstractmethod
    def perturb(self, values: np.ndarray, rng: RngLike = None) -> Any:
        """Ψ: perturb one private value per user; returns a report batch."""

    @property
    def state_length(self) -> int:
        """Length of the folded vector (the domain, for most protocols)."""
        return self.domain_size

    def _check_report(self, report: Any) -> None:
        """Raise :class:`ProtocolError` unless this oracle can fold
        ``report`` (same domain and protocol parameters)."""

    def _statistic(self, reports: Sequence[Any],
                   prior: Optional[np.ndarray]) -> np.ndarray:
        """The folded vector of ``prior`` (``None``: empty) followed by
        ``reports``: one left fold of the summed field, prior first."""
        arrays = [getattr(report, self.summed_field) for report in reports]
        return kernels.fold_arrays(arrays if prior is None
                                   else [prior, *arrays])

    def fold(self, state: Optional[FoldedState],
             reports: Sequence[Any]) -> FoldedState:
        """Fold ``reports`` (in arrival order) into ``state``.

        ``state`` is ``None`` before the first fold. Integer statistics
        add exactly, and float sums keep one left fold (the state, then
        the reports in order), so folding a stream in any number of
        steps gives the same vector, bit for bit, as folding it at once.
        """
        for report in reports:
            self._check_report(report)
        users = sum(len(report) for report in reports)
        if state is None:
            return FoldedState(users, self._statistic(reports, None))
        return FoldedState(state.n + users,
                           self._statistic(reports, state.vector))

    def check_state(self, state: FoldedState) -> None:
        """Raise :class:`ProtocolError` unless ``state`` could be a fold
        of this oracle's reports (its restore-time validation)."""
        vector = state.vector
        if not isinstance(state.n, int) or state.n < 0:
            raise ProtocolError(f"folded n must be an integer >= 0, "
                                f"got {state.n!r}")
        if vector.dtype != self.state_dtype or \
                vector.shape != (self.state_length,):
            raise ProtocolError(
                f"folded vector must be {self.state_dtype} of length "
                f"{self.state_length}, got {vector.dtype} of shape "
                f"{vector.shape}")
        if self.state_bounds is None:
            if not np.isfinite(vector).all():
                raise ProtocolError("folded vector has non-finite entries")
            return
        low, high = (bound * state.n for bound in self.state_bounds)
        if len(vector) and (vector.min() < low or vector.max() > high):
            raise ProtocolError(
                f"folded counts must lie in [{low}, {high}] for "
                f"n={state.n}, got [{vector.min()}, {vector.max()}]")

    @abstractmethod
    def unbias(self, state: FoldedState) -> np.ndarray:
        """Φ on a folded state: unbiased frequency estimates."""

    def estimate(self, report: Any) -> np.ndarray:
        """Φ: unbiased frequency estimates (length ``domain_size``)."""
        return self.unbias(self.fold(None, [report]))

    @staticmethod
    def _check_users(state: FoldedState) -> None:
        if state.n == 0:
            raise ProtocolError("cannot estimate from zero reports")

    @abstractmethod
    def theoretical_variance(self, n: int) -> float:
        """Analytic per-value estimation variance with ``n`` reports."""

    def run(self, values: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Convenience: perturb then estimate in one call."""
        rng = ensure_rng(rng)
        return self.estimate(self.perturb(values, rng))

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(epsilon={self.epsilon}, "
                f"domain_size={self.domain_size})")
