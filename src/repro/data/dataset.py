"""In-memory dataset: an ``(n, k)`` integer-coded matrix plus its schema."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import DataError
from repro.rng import RngLike, ensure_rng
from repro.schema import Schema


class Dataset:
    """Integer-coded multidimensional dataset.

    ``records[u, t]`` is the code (in ``[0, schema[t].domain_size)``) of user
    ``u``'s value for attribute ``t``. The container validates codes once at
    construction so downstream code can trust the invariant.
    """

    def __init__(self, schema: Schema, records: np.ndarray,
                 validate: bool = True):
        records = np.asarray(records)
        if records.ndim != 2:
            raise DataError(f"records must be 2-D, got shape {records.shape}")
        if records.shape[1] != len(schema):
            raise DataError(
                f"records have {records.shape[1]} columns but schema has "
                f"{len(schema)} attributes"
            )
        if not np.issubdtype(records.dtype, np.integer):
            if np.issubdtype(records.dtype, np.floating):
                # Exact: a tolerance would round 250.002 to 250. The
                # bound refuses NaN and ±inf (inf equals its own rint)
                # and whatever else int64 cannot hold.
                if not (np.all(np.abs(records) < 2.0 ** 63)
                        and np.array_equal(records, np.rint(records))):
                    raise DataError(
                        "float records must be finite integer values")
                records = records.astype(np.int64)
            else:
                raise DataError(f"unsupported record dtype {records.dtype}")
        records = records.astype(np.int64, copy=False)
        if validate:
            self._validate_codes(schema, records)
        self.schema = schema
        self.records = records

    @staticmethod
    def _validate_codes(schema: Schema, records: np.ndarray) -> None:
        if records.size == 0:
            return
        mins = records.min(axis=0)
        maxs = records.max(axis=0)
        for t, attr in enumerate(schema):
            if mins[t] < 0 or maxs[t] >= attr.domain_size:
                raise DataError(
                    f"attribute {attr.name!r}: codes span "
                    f"[{mins[t]}, {maxs[t]}] outside [0, {attr.domain_size})"
                )

    # -- basic properties ----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of users (rows)."""
        return self.records.shape[0]

    @property
    def k(self) -> int:
        """Number of attributes (columns)."""
        return self.records.shape[1]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, schema={self.schema!r})"

    # -- views and derivations ------------------------------------------------

    def column(self, attr) -> np.ndarray:
        """Codes of one attribute, by name or index (a view, not a copy)."""
        if isinstance(attr, str):
            attr = self.schema.index_of(attr)
        return self.records[:, attr]

    def sample(self, n: int, rng: RngLike = None,
               replace: bool = False) -> "Dataset":
        """Random subsample of ``n`` users."""
        if not replace and n > self.n:
            raise DataError(
                f"cannot sample {n} users without replacement from {self.n}"
            )
        idx = ensure_rng(rng).choice(self.n, size=n, replace=replace)
        return Dataset(self.schema, self.records[idx], validate=False)

    def project(self, names: Sequence[str]) -> "Dataset":
        """Dataset restricted to the named attributes."""
        cols = [self.schema.index_of(nm) for nm in names]
        return Dataset(self.schema.subset(names), self.records[:, cols],
                       validate=False)

    def marginal(self, attr) -> np.ndarray:
        """Exact (non-private) frequency vector of one attribute."""
        if isinstance(attr, str):
            attr = self.schema.index_of(attr)
        d = self.schema[attr].domain_size
        counts = np.bincount(self.records[:, attr], minlength=d)
        return counts / max(self.n, 1)

    def joint_marginal(self, attr_i, attr_j) -> np.ndarray:
        """Exact (non-private) 2-D frequency matrix of two attributes."""
        if isinstance(attr_i, str):
            attr_i = self.schema.index_of(attr_i)
        if isinstance(attr_j, str):
            attr_j = self.schema.index_of(attr_j)
        di = self.schema[attr_i].domain_size
        dj = self.schema[attr_j].domain_size
        flat = self.records[:, attr_i] * dj + self.records[:, attr_j]
        counts = np.bincount(flat, minlength=di * dj)
        return counts.reshape(di, dj) / max(self.n, 1)
