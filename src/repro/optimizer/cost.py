"""The optimizer's plan-time error cost.

:func:`expected_workload_error` scores a *collection plan* (any sequence
of planned grids) under a :class:`~repro.optimizer.WorkloadSpec`: each
grid's predicted squared error is re-evaluated at the workload's
selectivity moments and weighted by how often the workload touches that
grid. Because the score is computed from the same (schema, workload)
inputs for every candidate plan, workload-aware and workload-blind plans
compare on an equal footing — this is the objective the planner
minimizes and the number the benchmarks report.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.grids.sizing import (
    SizingParams,
    error_1d_categorical,
    error_1d_numerical_expected,
    error_2d_categorical_expected,
    error_2d_num_cat_expected,
    error_2d_numerical_expected,
)
from repro.optimizer.workload import WorkloadSpec


def _moments_for(spec: Optional[WorkloadSpec], name: str,
                 fallback: float) -> Tuple[float, float]:
    if spec is not None:
        moments = spec.selectivity_moments(name)
        if moments is not None:
            return moments
    return fallback, fallback * fallback


def expected_grid_error(plan, moments_x: Tuple[float, float],
                        moments_y: Optional[Tuple[float, float]],
                        params: SizingParams) -> float:
    """One planned grid's predicted squared error at given moments.

    ``plan`` is any object with ``grid`` (Grid1D/Grid2D) and
    ``protocol`` attributes (duck-typed so this layer never imports
    ``repro.core``).
    """
    grid = plan.grid
    if moments_y is None:
        attr = grid.attribute
        if attr.is_numerical:
            return error_1d_numerical_expected(
                grid.num_cells, moments_x, params, plan.protocol)
        return error_1d_categorical(attr.domain_size, moments_x[0],
                                    params, plan.protocol)
    lx, ly = grid.shape
    num_x = grid.attribute_x.is_numerical
    num_y = grid.attribute_y.is_numerical
    if num_x and num_y:
        return error_2d_numerical_expected(lx, ly, moments_x, moments_y,
                                           params, plan.protocol)
    if num_x and not num_y:
        return error_2d_num_cat_expected(lx, ly, moments_x, moments_y,
                                         params, plan.protocol)
    if not num_x and num_y:
        return error_2d_num_cat_expected(ly, lx, moments_y, moments_x,
                                         params, plan.protocol)
    return error_2d_categorical_expected(lx, ly, moments_x, moments_y,
                                         params, plan.protocol)


def expected_workload_error(plans: Iterable, schema,
                            params: SizingParams,
                            workload: Optional[WorkloadSpec] = None,
                            fallback_selectivity: float = 0.5) -> float:
    """Workload-weighted expected squared error of a collection plan.

    Every grid's predicted error is evaluated at the workload's
    per-attribute selectivity moments (the config prior where the
    workload is silent) and weighted by the workload's pressure on that
    grid — 1-D grids by attribute weight, 2-D grids by pair-lookup
    weight. Without a workload all grids weigh equally (the legacy
    uniform objective, normalized).

    Lower is better; the absolute scale is squared frequency error, the
    same unit as the paper's Section 5.2 objectives.
    """
    plans = list(plans)
    if not plans:
        raise ConfigurationError("cannot score an empty collection plan")
    total_weight = 0.0
    total_error = 0.0
    for plan in plans:
        grid = plan.grid
        if len(grid.key) == 1:
            name = grid.attribute.name
            moments = _moments_for(workload, name, fallback_selectivity)
            error = expected_grid_error(plan, moments, None, params)
            weight = (workload.attribute_weight(name)
                      if workload is not None else 1.0)
        else:
            name_x = grid.attribute_x.name
            name_y = grid.attribute_y.name
            moments_x = _moments_for(workload, name_x, fallback_selectivity)
            moments_y = _moments_for(workload, name_y, fallback_selectivity)
            error = expected_grid_error(plan, moments_x, moments_y, params)
            weight = (workload.pair_weight(name_x, name_y)
                      if workload is not None else 1.0)
        total_weight += weight
        total_error += weight * error
    if total_weight <= 0:
        # Workload touches none of the planned grids; fall back to the
        # unweighted mean so the score stays comparable.
        return total_error / len(plans) if total_error else float("inf")
    return total_error / total_weight
