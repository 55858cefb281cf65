"""Grid planning: which grids to collect, their sizes, their protocols.

The planner turns (schema, config, n) into the complete collection plan:

* the grid set — all ``C(k, 2)`` attribute pairs, plus (OHG) one 1-D grid
  per numerical attribute;
* per-grid cell counts via the Section 5.2 error model (or the shared
  power-of-two granularity in TDG/HDG mode);
* per-grid protocol via the adaptive frequency oracle (Section 5.3);
* per-grid per-cell variance, fed to consistency weighting later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.core.config import FelipConfig
from repro.errors import ConfigurationError
from repro.grids.binning import Binning
from repro.grids.grid import Grid1D, Grid2D
from repro.grids.sizing import (
    GridPlanning,
    SizingParams,
    optimal_size_1d_numerical,
    optimal_size_2d_numerical,
    plan_grid,
)
from repro.schema import Schema


@dataclass(frozen=True)
class PlannedGrid:
    """One grid of the collection plan."""

    grid: Union[Grid1D, Grid2D]
    protocol: str
    predicted_error: float
    cell_variance: float

    @property
    def key(self):
        return self.grid.key

    @property
    def num_cells(self) -> int:
        return self.grid.num_cells


def _nearest_power_of_two(value: int, lo: int, hi: int) -> int:
    """Nearest power of two to ``value``, clamped to ``[lo, hi]``."""
    if value < 1:
        value = 1
    exponent = round(math.log2(value)) if value > 1 else 0
    candidate = 2 ** max(exponent, 0)
    return max(lo, min(hi, candidate))


def _binning(domain: int, cells: int) -> Binning:
    return Binning(domain, max(1, min(cells, domain)))


def _shared_granularities(schema: Schema, config: FelipConfig,
                          params: SizingParams) -> tuple:
    """TDG/HDG-mode shared (g1, g2) from the largest numerical domain."""
    numeric_domains = [schema[i].domain_size
                       for i in schema.numerical_indices]
    if not numeric_domains:
        return 1, 1
    d = max(numeric_domains)
    r = config.expected_selectivity
    g1, _ = optimal_size_1d_numerical(d, r, params, "olh")
    g2x, g2y, _ = optimal_size_2d_numerical(d, d, r, r, params, "olh")
    g2 = max(g2x, g2y)
    if config.power_of_two_granularity:
        g1 = _nearest_power_of_two(g1, 2, d)
        g2 = _nearest_power_of_two(g2, 2, d)
    return g1, g2


def plan_grids(schema: Schema, config: FelipConfig, n: int) -> \
        List[PlannedGrid]:
    """Build the full collection plan.

    Returns the planned grids in a deterministic order (1-D grids by
    attribute index, then 2-D grids by pair); the group index of each grid
    is its position in this list.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if len(schema) < 2:
        # No pairs exist, so the only possible plan is the attribute's
        # own 1-D grid; marginals then come straight from that grid.
        one_d_attrs = [0]
        pairs = []
    else:
        numerical = set(schema.numerical_indices)
        one_d_attrs = (sorted(numerical) if config.uses_1d_grids else [])
        pairs = schema.pairs()
    m = len(one_d_attrs) + len(pairs)
    params = SizingParams(epsilon=config.epsilon, n=n, m=m,
                          alpha1=config.alpha1, alpha2=config.alpha2)

    shared = None
    if config.shared_granularity:
        shared = _shared_granularities(schema, config, params)

    # Grids over attributes of equal domain, kind, selectivity and
    # moments pose the same sizing problem: solve each once per plan.
    solved: Dict[tuple, GridPlanning] = {}

    def size(attr, other=None) -> GridPlanning:
        problem = tuple(
            (a.domain_size, a.is_numerical, config.selectivity_for(a.name),
             config.selectivity_moments_for(a.name))
            for a in (attr, other) if a is not None)
        if problem not in solved:
            (domain_x, numerical_x, r_x, moments_x), *rest = problem
            domain_y, numerical_y, r_y, moments_y = (
                rest[0] if rest else (None, False, 1.0, None))
            solved[problem] = plan_grid(
                domain_x, numerical_x, r_x, params, domain_y=domain_y,
                numerical_y=numerical_y, r_y=r_y,
                protocols=config.protocols, moments_x=moments_x,
                moments_y=moments_y)
        return solved[problem]

    planned: List[PlannedGrid] = []

    for t in one_d_attrs:
        attr = schema[t]
        if config.one_d_protocol is not None:
            # 1-D backend extensions (sw, ahead, ...) run over the full
            # value domain: either reconstructed at full resolution
            # (EM/EMS) or with a binning decided adaptively at collection
            # time, in which case the planned grid is a placeholder whose
            # cell structure the aggregator replaces after fitting.
            planning = GridPlanning(
                lx=attr.domain_size, ly=None,
                protocol=config.one_d_protocol,
                predicted_error=float("nan"))
        elif shared is not None:
            cells = min(shared[0], attr.domain_size)
            planning = GridPlanning(
                lx=cells, ly=None, protocol="olh",
                predicted_error=float("nan"))
        else:
            planning = size(attr)
        grid = Grid1D(t, attr, _binning(attr.domain_size, planning.lx))
        planned.append(PlannedGrid(
            grid=grid, protocol=planning.protocol,
            predicted_error=planning.predicted_error,
            cell_variance=params.cell_variance(planning.protocol,
                                               grid.num_cells)))

    for i, j in pairs:
        attr_i, attr_j = schema[i], schema[j]
        if shared is not None:
            lx = (min(shared[1], attr_i.domain_size)
                  if attr_i.is_numerical else attr_i.domain_size)
            ly = (min(shared[1], attr_j.domain_size)
                  if attr_j.is_numerical else attr_j.domain_size)
            planning = GridPlanning(lx=lx, ly=ly, protocol="olh",
                                    predicted_error=float("nan"))
        else:
            planning = size(attr_i, attr_j)
        grid = Grid2D(i, j, attr_i, attr_j,
                      _binning(attr_i.domain_size, planning.lx),
                      _binning(attr_j.domain_size, planning.ly))
        planned.append(PlannedGrid(
            grid=grid, protocol=planning.protocol,
            predicted_error=planning.predicted_error,
            cell_variance=params.cell_variance(planning.protocol,
                                               grid.num_cells)))

    return planned
