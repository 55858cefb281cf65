"""Grid specifications and estimated grids.

A grid is the object one user group reports on: a binned view of one
attribute (:class:`Grid1D`) or one attribute pair (:class:`Grid2D`). After
aggregation, a :class:`GridEstimate` couples the grid with its estimated
per-cell frequencies and can answer 1-D/2-D sub-queries under the
within-cell uniformity assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import GridError, QueryError
from repro.grids.binning import Binning
from repro.queries.predicate import Predicate
from repro.schema import Attribute


def predicate_cell_weights(binning: Binning, predicate: Predicate,
                           attr: Attribute) -> np.ndarray:
    """Per-cell inclusion weights of ``predicate`` under uniformity.

    Range predicates weight border cells by their overlap fraction; set
    predicates require a trivial binning (categorical axes are never binned)
    and weight member cells 1.
    """
    predicate.validate_for(attr)
    if predicate.is_range:
        lo, hi = predicate.interval
        return binning.range_weights(lo, min(hi, binning.domain_size - 1))
    if not binning.is_trivial:
        raise GridError(
            f"set predicate on {attr.name!r} needs a trivial binning, "
            f"grid has {binning.num_cells} cells over domain "
            f"{binning.domain_size}"
        )
    weights = np.zeros(binning.num_cells, dtype=np.float64)
    weights[np.fromiter(predicate.members, dtype=np.int64)] = 1.0
    return weights


class Grid1D:
    """Binned view of a single attribute (OHG's refinement grids)."""

    def __init__(self, attr_index: int, attribute: Attribute,
                 binning: Binning):
        if binning.domain_size != attribute.domain_size:
            raise GridError(
                f"binning domain {binning.domain_size} != attribute "
                f"{attribute.name!r} domain {attribute.domain_size}"
            )
        self.attr_index = attr_index
        self.attribute = attribute
        self.binning = binning

    @property
    def num_cells(self) -> int:
        """``L``, the report domain size."""
        return self.binning.num_cells

    @property
    def key(self) -> Tuple[int, ...]:
        """Stable identifier: the attribute index tuple."""
        return (self.attr_index,)

    def encode(self, records: np.ndarray) -> np.ndarray:
        """Map full records ``(n, k)`` to this grid's cell indices."""
        return self.binning.cell_of(records[:, self.attr_index])

    def __repr__(self) -> str:
        return (f"Grid1D({self.attribute.name}, "
                f"cells={self.num_cells})")


class Grid2D:
    """Binned view of an attribute pair — FELIP's workhorse."""

    def __init__(self, attr_index_x: int, attr_index_y: int,
                 attribute_x: Attribute, attribute_y: Attribute,
                 binning_x: Binning, binning_y: Binning):
        if attr_index_x == attr_index_y:
            raise GridError("2-D grid needs two distinct attributes")
        if binning_x.domain_size != attribute_x.domain_size:
            raise GridError(
                f"x binning domain {binning_x.domain_size} != "
                f"{attribute_x.name!r} domain {attribute_x.domain_size}"
            )
        if binning_y.domain_size != attribute_y.domain_size:
            raise GridError(
                f"y binning domain {binning_y.domain_size} != "
                f"{attribute_y.name!r} domain {attribute_y.domain_size}"
            )
        self.attr_index_x = attr_index_x
        self.attr_index_y = attr_index_y
        self.attribute_x = attribute_x
        self.attribute_y = attribute_y
        self.binning_x = binning_x
        self.binning_y = binning_y

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.binning_x.num_cells, self.binning_y.num_cells)

    @property
    def num_cells(self) -> int:
        """``L = l_x * l_y``, the report domain size."""
        return self.binning_x.num_cells * self.binning_y.num_cells

    @property
    def key(self) -> Tuple[int, ...]:
        """Stable identifier: the attribute index tuple."""
        return (self.attr_index_x, self.attr_index_y)

    def encode(self, records: np.ndarray) -> np.ndarray:
        """Map full records ``(n, k)`` to flattened (row-major) cell
        indices."""
        cx = self.binning_x.cell_of(records[:, self.attr_index_x])
        cy = self.binning_y.cell_of(records[:, self.attr_index_y])
        return cx * self.binning_y.num_cells + cy

    def __repr__(self) -> str:
        return (f"Grid2D({self.attribute_x.name} x {self.attribute_y.name}, "
                f"shape={self.shape})")


@dataclass
class GridEstimate:
    """A grid plus its estimated per-cell frequencies.

    ``frequencies`` is flat (length ``num_cells``); 2-D grids use row-major
    order matching :meth:`Grid2D.encode`. The vector is mutable on purpose:
    post-processing (non-negativity, consistency) edits it in place.
    """

    grid: object
    frequencies: np.ndarray

    def __post_init__(self) -> None:
        self.frequencies = np.asarray(self.frequencies, dtype=np.float64)
        if self.frequencies.shape != (self.grid.num_cells,):
            raise GridError(
                f"frequency vector has shape {self.frequencies.shape}, "
                f"grid has {self.grid.num_cells} cells"
            )

    @property
    def is_2d(self) -> bool:
        return isinstance(self.grid, Grid2D)

    def matrix(self) -> np.ndarray:
        """2-D grids only: frequencies reshaped to ``(l_x, l_y)``."""
        if not self.is_2d:
            raise GridError("matrix() is only defined for 2-D grids")
        return self.frequencies.reshape(self.grid.shape)

    # -- uniformity-assumption query answering -------------------------------

    def answer_1d(self, predicate: Predicate) -> float:
        """1-D grids: weighted cell-mass sum for one predicate."""
        if self.is_2d:
            raise GridError("answer_1d() is only defined for 1-D grids")
        weights = predicate_cell_weights(self.grid.binning, predicate,
                                         self.grid.attribute)
        return float(weights @ self.frequencies)

    def answer_2d(self, predicate_x: Optional[Predicate],
                  predicate_y: Optional[Predicate]) -> float:
        """2-D grids: weighted mass for up to two predicates.

        ``None`` on an axis means unconstrained (weight 1 everywhere), so
        this also answers the grid's two 1-D marginal queries.
        """
        if not self.is_2d:
            raise GridError("answer_2d() is only defined for 2-D grids")
        grid = self.grid
        if predicate_x is None:
            wx = np.ones(grid.binning_x.num_cells)
        else:
            wx = predicate_cell_weights(grid.binning_x, predicate_x,
                                        grid.attribute_x)
        if predicate_y is None:
            wy = np.ones(grid.binning_y.num_cells)
        else:
            wy = predicate_cell_weights(grid.binning_y, predicate_y,
                                        grid.attribute_y)
        return float(wx @ self.matrix() @ wy)

    def marginal_along(self, attr_index: int) -> np.ndarray:
        """Cell-level marginal of one of the grid's attributes."""
        if not self.is_2d:
            if attr_index != self.grid.attr_index:
                raise GridError(
                    f"grid is over attribute {self.grid.attr_index}, "
                    f"not {attr_index}"
                )
            return self.frequencies.copy()
        if attr_index == self.grid.attr_index_x:
            return self.matrix().sum(axis=1)
        if attr_index == self.grid.attr_index_y:
            return self.matrix().sum(axis=0)
        raise GridError(
            f"grid is over attributes {self.grid.key}, not {attr_index}"
        )
