"""Optimal grid sizing (paper, Section 5.2).

Each grid's predicted squared error is the sum of a *noise-and-sampling*
term (grows with cell count: more cells inside the query rectangle, each
carrying independent LDP noise) and a *non-uniformity* term (shrinks with
cell count: finer cells mean less mass misattributed by the within-cell
uniformity assumption). The optimum balances the two, and depends on the
grid type, the protocol, the query selectivity ``r``, the budget ε, the
population ``n`` and the group count ``m``.

Closed forms exist for the OLH cases (paper Eq. 5 and the numeric x
categorical analogue); the GRR cases and the numeric x numeric system are
solved by bisection on the (monotone) stationarity conditions, per the
paper. Continuous optima are then refined over neighboring integers against
the exact objective, since granularities are integer cell counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import ConfigurationError, GridError
from repro.fo.registry import adaptive_candidates, get as protocol_spec
from repro.grids.solvers import (
    bisect_increasing_root,
    coordinate_descent,
    refine_integer_1d,
    refine_integer_2d,
)


@dataclass(frozen=True)
class SizingParams:
    """Shared inputs of every sizing computation.

    Attributes
    ----------
    epsilon:
        Privacy budget ε (each user spends all of it on one grid).
    n:
        Total population size.
    m:
        Number of user groups (== number of grids); each grid is estimated
        from roughly ``n / m`` reports.
    alpha1, alpha2:
        Non-uniformity constants for 1-D and 2-D grids (paper defaults 0.7
        and 0.03).
    """

    epsilon: float
    n: int
    m: int
    alpha1: float = 0.7
    alpha2: float = 0.03

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ConfigurationError(
                f"epsilon must be positive, got {self.epsilon}")
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if self.m < 1:
            raise ConfigurationError(f"m must be >= 1, got {self.m}")
        if self.alpha1 <= 0 or self.alpha2 <= 0:
            raise ConfigurationError("alpha constants must be positive")

    @property
    def cell_variance_olh(self) -> float:
        """Per-cell OLH variance with population partitioning: 4me^ε/n(e^ε−1)²."""
        e = math.exp(self.epsilon)
        return 4.0 * e * self.m / (self.n * (e - 1) ** 2)

    def cell_variance_grr(self, num_cells: int) -> float:
        """Per-cell GRR variance for an ``L``-cell grid: m(e^ε+L−2)/n(e^ε−1)²."""
        e = math.exp(self.epsilon)
        return (self.m * (e + max(num_cells, 1) - 2)
                / (self.n * (e - 1) ** 2))

    def cell_variance(self, protocol: str, num_cells: int) -> float:
        """Per-cell variance of ``protocol`` on an ``L``-cell grid.

        Dispatches to the protocol's registered planning variance model
        (:attr:`repro.fo.registry.ProtocolSpec.cell_variance`); unknown
        names raise the registry's unified
        :class:`~repro.errors.ConfigurationError`.
        """
        return protocol_spec(protocol).cell_variance(self, num_cells)


def _check_selectivity(r: float, name: str = "selectivity") -> float:
    r = float(r)
    if not 0.0 < r <= 1.0:
        raise GridError(f"{name} must be in (0, 1], got {r}")
    return r


# ---------------------------------------------------------------------------
# Predicted-error objectives (paper Eqs. 3, 4, 9, 10, 11, 12)
# ---------------------------------------------------------------------------

def error_1d_numerical(l: float, r: float, params: SizingParams,
                       protocol: str) -> float:
    """Total predicted squared error of a 1-D numerical grid with l cells."""
    nonuni = (params.alpha1 / l) ** 2
    noise = l * r * params.cell_variance(protocol, int(round(l)))
    return nonuni + noise


def error_1d_categorical(d: int, r: float, params: SizingParams,
                         protocol: str) -> float:
    """1-D categorical grid: pure noise, cell count fixed at the domain."""
    return d * r * params.cell_variance(protocol, d)


def error_2d_numerical(lx: float, ly: float, rx: float, ry: float,
                       params: SizingParams, protocol: str) -> float:
    """numeric x numeric 2-D grid error (paper Eqs. 9 / 10)."""
    nonuni = (2.0 * params.alpha2 * (lx * rx + ly * ry) / (lx * ly)) ** 2
    noise = (lx * rx * ly * ry
             * params.cell_variance(protocol, int(round(lx * ly))))
    return nonuni + noise


def error_2d_num_cat(lx: float, ly: int, rx: float, ry: float,
                     params: SizingParams, protocol: str) -> float:
    """numeric(x) x categorical(y) grid error (paper Eqs. 11 / 12)."""
    nonuni = (2.0 * params.alpha2 * ry / lx) ** 2
    noise = (lx * rx * ly * ry
             * params.cell_variance(protocol, int(round(lx * ly))))
    return nonuni + noise


def error_2d_categorical(dx: int, dy: int, rx: float, ry: float,
                         params: SizingParams, protocol: str) -> float:
    """categorical x categorical grid: pure noise at the full domain product."""
    return dx * rx * dy * ry * params.cell_variance(protocol, dx * dy)


# ---------------------------------------------------------------------------
# Workload-weighted (expected) objectives
#
# The paper's objectives above treat the query selectivity ``r`` as a
# single prior. A declared workload instead gives a per-attribute
# selectivity *distribution*; the expected predicted error over that
# distribution only needs its first two moments ``(E[r], E[r²])``:
# the noise terms are linear in each attribute's ``r`` (so they take
# E[r], with independent attributes making E[r_x r_y] = E[r_x]E[r_y]),
# and the 2-D non-uniformity term is quadratic (so it takes E[r²]).
# With a degenerate histogram (E[r²] = E[r]²) every expected objective
# reduces exactly to its fixed-selectivity counterpart.
# ---------------------------------------------------------------------------

def _check_moments(moments: Tuple[float, float],
                   name: str = "selectivity") -> Tuple[float, float]:
    mean, mean_sq = float(moments[0]), float(moments[1])
    _check_selectivity(mean, f"{name} mean")
    if not mean ** 2 - 1e-12 <= mean_sq <= 1.0:
        raise GridError(
            f"{name} second moment must satisfy E[r]^2 <= E[r^2] <= 1, "
            f"got E[r]={mean}, E[r^2]={mean_sq}")
    return mean, mean_sq


def error_1d_numerical_expected(l: float, moments: Tuple[float, float],
                                params: SizingParams,
                                protocol: str) -> float:
    """Expected 1-D numerical grid error over a selectivity histogram.

    The 1-D objective is linear in ``r``, so the expectation is the plain
    objective at the mean selectivity.
    """
    mean, _ = _check_moments(moments)
    return error_1d_numerical(l, mean, params, protocol)


def error_2d_numerical_expected(lx: float, ly: float,
                                moments_x: Tuple[float, float],
                                moments_y: Tuple[float, float],
                                params: SizingParams,
                                protocol: str) -> float:
    """Expected numeric x numeric grid error over selectivity histograms.

    ``E[(l_x r_x + l_y r_y)²] = l_x² E[r_x²] + 2 l_x l_y E[r_x]E[r_y]
    + l_y² E[r_y²]`` (independent attributes), so the non-uniformity term
    keeps its closed form in the first two moments.
    """
    mx, sx = _check_moments(moments_x, "rx")
    my, sy = _check_moments(moments_y, "ry")
    nonuni = (4.0 * params.alpha2 ** 2
              * (lx * lx * sx + 2.0 * lx * ly * mx * my + ly * ly * sy)
              / (lx * ly) ** 2)
    noise = (lx * mx * ly * my
             * params.cell_variance(protocol, int(round(lx * ly))))
    return nonuni + noise


def error_2d_num_cat_expected(lx: float, ly: int,
                              moments_x: Tuple[float, float],
                              moments_y: Tuple[float, float],
                              params: SizingParams,
                              protocol: str) -> float:
    """Expected numeric(x) x categorical(y) grid error over histograms."""
    mx, _ = _check_moments(moments_x, "rx")
    my, sy = _check_moments(moments_y, "ry")
    nonuni = 4.0 * params.alpha2 ** 2 * sy / lx ** 2
    noise = (lx * mx * ly * my
             * params.cell_variance(protocol, int(round(lx * ly))))
    return nonuni + noise


def error_2d_categorical_expected(dx: int, dy: int,
                                  moments_x: Tuple[float, float],
                                  moments_y: Tuple[float, float],
                                  params: SizingParams,
                                  protocol: str) -> float:
    """Expected categorical x categorical grid error (pure noise)."""
    mx, _ = _check_moments(moments_x, "rx")
    my, _ = _check_moments(moments_y, "ry")
    return error_2d_categorical(dx, dy, mx, my, params, protocol)


# ---------------------------------------------------------------------------
# Optimal sizes
# ---------------------------------------------------------------------------

def _noise_coeff(params: SizingParams) -> Tuple[float, float]:
    """(A, B): OLH noise coefficient, GRR base coefficient m/n(e^ε−1)²."""
    e = math.exp(params.epsilon)
    base = params.m / (params.n * (e - 1) ** 2)
    return 4.0 * e * base, base


def optimal_size_1d_numerical(d: int, r: float, params: SizingParams,
                              protocol: str) -> Tuple[int, float]:
    """Optimal cell count for a 1-D numerical grid; returns (l, error).

    OLH: closed form (paper Eq. 5). GRR: bisection on the derivative of
    Eq. 4, which is increasing in ``l``.
    """
    r = _check_selectivity(r)
    if d < 1:
        raise GridError(f"domain must be >= 1, got {d}")
    if d == 1:
        return 1, 0.0
    a1, eps = params.alpha1, params.epsilon
    e = math.exp(eps)
    A, B = _noise_coeff(params)

    if not protocol_spec(protocol).variance_grows_with_cells:
        continuous = ((params.n * a1 ** 2 * (e - 1) ** 2)
                      / (2.0 * params.m * r * e)) ** (1.0 / 3.0)
    else:
        def derivative(l: float) -> float:
            return (-2.0 * a1 ** 2 / l ** 3
                    + r * B * (e - 2.0 + 2.0 * l))
        continuous = bisect_increasing_root(derivative, 1.0, float(d))

    continuous = min(max(continuous, 2.0), float(d))
    return refine_integer_1d(
        lambda l: error_1d_numerical(l, r, params, protocol),
        continuous, 2, d)


def optimal_size_2d_numerical(dx: int, dy: int, rx: float, ry: float,
                              params: SizingParams,
                              protocol: str) -> Tuple[int, int, float]:
    """Optimal (l_x, l_y) for a numeric x numeric grid; returns errors too.

    Solves the two coupled stationarity equations by coordinate descent,
    each inner solve a bisection (the partial derivatives are increasing in
    their own variable), then refines on the integer lattice.
    """
    rx = _check_selectivity(rx, "rx")
    ry = _check_selectivity(ry, "ry")
    if dx < 2 or dy < 2:
        # Degenerate axes cannot be binned further; fall back to exact cells.
        lx, ly = max(dx, 1), max(dy, 1)
        return lx, ly, error_2d_numerical(lx, ly, rx, ry, params, protocol)
    a2, eps = params.alpha2, params.epsilon
    e = math.exp(eps)
    A, B = _noise_coeff(params)
    size_independent = not protocol_spec(protocol).variance_grows_with_cells

    def d_dx(lx: float, ly: float) -> float:
        nonuni = -8.0 * a2 ** 2 * ry * (lx * rx + ly * ry) / (lx ** 3 * ly)
        if size_independent:
            return nonuni + A * rx * ry * ly
        return nonuni + B * rx * ry * ly * (e - 2.0 + 2.0 * lx * ly)

    def d_dy(lx: float, ly: float) -> float:
        nonuni = -8.0 * a2 ** 2 * rx * (lx * rx + ly * ry) / (ly ** 3 * lx)
        if size_independent:
            return nonuni + A * rx * ry * lx
        return nonuni + B * rx * ry * lx * (e - 2.0 + 2.0 * lx * ly)

    lx, ly = coordinate_descent(
        solve_x=lambda y: bisect_increasing_root(
            lambda x: d_dx(x, y), 1.0, float(dx)),
        solve_y=lambda x: bisect_increasing_root(
            lambda y: d_dy(x, y), 1.0, float(dy)),
        x0=min(8.0, float(dx)), y0=min(8.0, float(dy)))

    lx = min(max(lx, 2.0), float(dx))
    ly = min(max(ly, 2.0), float(dy))
    return refine_integer_2d(
        lambda x, y: error_2d_numerical(x, y, rx, ry, params, protocol),
        (lx, ly), (2, 2), (dx, dy))


def optimal_size_2d_num_cat(d_num: int, d_cat: int, rx: float, ry: float,
                            params: SizingParams,
                            protocol: str) -> Tuple[int, float]:
    """Optimal numeric-axis cell count when the y axis is categorical.

    The categorical axis is fixed at ``l_y = d_cat`` (one cell per value);
    only the numeric axis length is optimized (paper Eqs. 11 / 12).
    Returns ``(l_x, error)``.
    """
    rx = _check_selectivity(rx, "rx")
    ry = _check_selectivity(ry, "ry")
    if d_num == 1:
        return 1, error_2d_num_cat(1, d_cat, rx, ry, params, protocol)
    a2, eps = params.alpha2, params.epsilon
    e = math.exp(eps)
    A, B = _noise_coeff(params)

    if not protocol_spec(protocol).variance_grows_with_cells:
        continuous = (8.0 * a2 ** 2 * ry
                      / (A * rx * d_cat)) ** (1.0 / 3.0)
    else:
        def derivative(lx: float) -> float:
            return (-8.0 * a2 ** 2 * ry ** 2 / lx ** 3
                    + B * rx * ry * d_cat * (e - 2.0 + 2.0 * lx * d_cat))
        continuous = bisect_increasing_root(derivative, 1.0, float(d_num))

    continuous = min(max(continuous, 2.0), float(d_num))
    return refine_integer_1d(
        lambda lx: error_2d_num_cat(lx, d_cat, rx, ry, params, protocol),
        continuous, 2, d_num)


# ---------------------------------------------------------------------------
# Per-grid planning (size + adaptive protocol choice, Section 5.3)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridPlanning:
    """A sized grid with its chosen protocol and predicted error.

    ``ly`` is ``None`` for 1-D grids.
    """

    lx: int
    ly: Optional[int]
    protocol: str
    predicted_error: float

    @property
    def num_cells(self) -> int:
        return self.lx if self.ly is None else self.lx * self.ly


def plan_grid(domain_x: int, numerical_x: bool, r_x: float,
              params: SizingParams,
              domain_y: Optional[int] = None,
              numerical_y: bool = False, r_y: float = 1.0,
              protocols: Optional[Sequence[str]] = None,
              moments_x: Optional[Tuple[float, float]] = None,
              moments_y: Optional[Tuple[float, float]] = None
              ) -> GridPlanning:
    """Size one grid under every candidate protocol; keep the best.

    This is the Adaptive Frequency Oracle applied at planning time: the
    GRR-optimal and OLH-optimal sizes generally differ, so we compare the
    *minimized* predicted error of each protocol and report with the winner.
    For fixed-size (categorical) grids this reduces exactly to the paper's
    Eq. 13 variance comparison.

    ``protocols=None`` (the default) uses the registry's adaptive
    candidates, resolved at call time so protocols registered after this
    module was imported still participate. Candidates are compared in
    registration order with a strict-improvement rule, preserving the
    paper's tie-break toward the earlier (GRR) candidate.

    ``moments_x``/``moments_y`` switch the objective to the
    workload-weighted expected error over a selectivity histogram with
    the given ``(E[r], E[r²])`` moments (the fixed selectivities then
    only seed the continuous solvers); ``None`` keeps the paper's
    fixed-selectivity objective bit-for-bit.
    """
    if protocols is None:
        protocols = tuple(s.name for s in adaptive_candidates())
    if not protocols:
        raise ConfigurationError("need at least one candidate protocol")
    if moments_x is not None or moments_y is not None:
        return _plan_grid_expected(
            domain_x, numerical_x, params, protocols,
            moments_x if moments_x is not None else (r_x, r_x * r_x),
            domain_y, numerical_y,
            moments_y if moments_y is not None else (r_y, r_y * r_y))
    best: Optional[GridPlanning] = None
    for protocol in protocols:
        if domain_y is None:
            if numerical_x:
                lx, err = optimal_size_1d_numerical(domain_x, r_x, params,
                                                    protocol)
            else:
                lx, err = domain_x, error_1d_categorical(domain_x, r_x,
                                                         params, protocol)
            candidate = GridPlanning(lx=lx, ly=None, protocol=protocol,
                                     predicted_error=err)
        elif numerical_x and numerical_y:
            lx, ly, err = optimal_size_2d_numerical(domain_x, domain_y,
                                                    r_x, r_y, params,
                                                    protocol)
            candidate = GridPlanning(lx=lx, ly=ly, protocol=protocol,
                                     predicted_error=err)
        elif numerical_x and not numerical_y:
            lx, err = optimal_size_2d_num_cat(domain_x, domain_y, r_x, r_y,
                                              params, protocol)
            candidate = GridPlanning(lx=lx, ly=domain_y, protocol=protocol,
                                     predicted_error=err)
        elif not numerical_x and numerical_y:
            ly, err = optimal_size_2d_num_cat(domain_y, domain_x, r_y, r_x,
                                              params, protocol)
            candidate = GridPlanning(lx=domain_x, ly=ly, protocol=protocol,
                                     predicted_error=err)
        else:
            err = error_2d_categorical(domain_x, domain_y, r_x, r_y,
                                       params, protocol)
            candidate = GridPlanning(lx=domain_x, ly=domain_y,
                                     protocol=protocol, predicted_error=err)
        if best is None or candidate.predicted_error < best.predicted_error:
            best = candidate
    return best


def _plan_grid_expected(domain_x: int, numerical_x: bool,
                        params: SizingParams, protocols: Sequence[str],
                        moments_x: Tuple[float, float],
                        domain_y: Optional[int], numerical_y: bool,
                        moments_y: Tuple[float, float]) -> GridPlanning:
    """Size one grid against the expected-error objectives.

    The fixed-selectivity solvers at the mean selectivities seed the
    search (the expected objectives differ from them only through the
    second-moment non-uniformity terms), then the integer refinement
    re-ranks against the exact expected objective.
    """
    mx, _ = _check_moments(moments_x, "rx")
    my, _ = _check_moments(moments_y, "ry")
    best: Optional[GridPlanning] = None
    for protocol in protocols:
        if domain_y is None:
            if numerical_x:
                seed, _ = optimal_size_1d_numerical(domain_x, mx, params,
                                                    protocol)
                lx, err = refine_integer_1d(
                    lambda l: error_1d_numerical_expected(
                        l, moments_x, params, protocol),
                    float(seed), min(2, domain_x), domain_x)
            else:
                lx = domain_x
                err = error_1d_categorical(domain_x, mx, params, protocol)
            candidate = GridPlanning(lx=lx, ly=None, protocol=protocol,
                                     predicted_error=err)
        elif numerical_x and numerical_y:
            sx, sy, _ = optimal_size_2d_numerical(domain_x, domain_y,
                                                  mx, my, params, protocol)
            lx, ly, err = refine_integer_2d(
                lambda x, y: error_2d_numerical_expected(
                    x, y, moments_x, moments_y, params, protocol),
                (float(sx), float(sy)),
                (min(2, domain_x), min(2, domain_y)), (domain_x, domain_y))
            candidate = GridPlanning(lx=lx, ly=ly, protocol=protocol,
                                     predicted_error=err)
        elif numerical_x and not numerical_y:
            seed, _ = optimal_size_2d_num_cat(domain_x, domain_y, mx, my,
                                              params, protocol)
            lx, err = refine_integer_1d(
                lambda l: error_2d_num_cat_expected(
                    l, domain_y, moments_x, moments_y, params, protocol),
                float(seed), min(2, domain_x), domain_x)
            candidate = GridPlanning(lx=lx, ly=domain_y, protocol=protocol,
                                     predicted_error=err)
        elif not numerical_x and numerical_y:
            seed, _ = optimal_size_2d_num_cat(domain_y, domain_x, my, mx,
                                              params, protocol)
            ly, err = refine_integer_1d(
                lambda l: error_2d_num_cat_expected(
                    l, domain_x, moments_y, moments_x, params, protocol),
                float(seed), min(2, domain_y), domain_y)
            candidate = GridPlanning(lx=domain_x, ly=ly, protocol=protocol,
                                     predicted_error=err)
        else:
            err = error_2d_categorical_expected(domain_x, domain_y,
                                                moments_x, moments_y,
                                                params, protocol)
            candidate = GridPlanning(lx=domain_x, ly=domain_y,
                                     protocol=protocol, predicted_error=err)
        if best is None or candidate.predicted_error < best.predicted_error:
            best = candidate
    return best
