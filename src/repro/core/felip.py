"""The public FELIP facade.

:class:`Felip` wraps the collection pipeline behind a fit/answer interface
and provides named constructors for every strategy the paper evaluates.

Example
-------
>>> from repro import Felip, data, queries
>>> dataset = data.uniform_dataset(50_000, rng=7)
>>> model = Felip.ohg(dataset.schema, epsilon=1.0).fit(dataset, rng=7)
>>> q = queries.Query([queries.between("num_0", 10, 60)])
>>> round(model.answer(q), 2)  # doctest: +SKIP
0.51
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.core.config import FelipConfig
from repro.core.server import Aggregator
from repro.data.dataset import Dataset
from repro.queries.query import Query
from repro.rng import RngLike
from repro.schema import Schema


class Felip:
    """Frequency Estimation under Local dIfferential Privacy (the paper's
    FELIP), configured as one of the OUG / OHG strategy variants."""

    def __init__(self, schema: Schema, config: Optional[FelipConfig] = None,
                 **overrides):
        if config is None:
            config = FelipConfig()
        if overrides:
            config = replace(config, **overrides)
        self.schema = schema
        self.config = config
        self._aggregator = Aggregator(schema, config)

    # -- named strategy constructors ------------------------------------------

    @classmethod
    def oug(cls, schema: Schema, epsilon: float = 1.0,
            **overrides) -> "Felip":
        """Optimized Uniform Grid: 2-D grids only, adaptive protocol."""
        return cls(schema, FelipConfig(epsilon=epsilon, strategy="oug"),
                   **overrides)

    @classmethod
    def ohg(cls, schema: Schema, epsilon: float = 1.0,
            **overrides) -> "Felip":
        """Optimized Hybrid Grid: 2-D grids plus 1-D refinement grids."""
        return cls(schema, FelipConfig(epsilon=epsilon, strategy="ohg"),
                   **overrides)

    @classmethod
    def oug_olh(cls, schema: Schema, epsilon: float = 1.0,
                **overrides) -> "Felip":
        """OUG with the protocol pinned to OLH (paper Section 6.3)."""
        return cls(schema, FelipConfig(epsilon=epsilon, strategy="oug",
                                       protocols=("olh",)), **overrides)

    @classmethod
    def ohg_olh(cls, schema: Schema, epsilon: float = 1.0,
                **overrides) -> "Felip":
        """OHG with the protocol pinned to OLH (paper Section 6.3)."""
        return cls(schema, FelipConfig(epsilon=epsilon, strategy="ohg",
                                       protocols=("olh",)), **overrides)

    # -- pipeline --------------------------------------------------------------

    def fit(self, dataset: Dataset, rng: RngLike = None) -> "Felip":
        """Run the LDP collection and aggregation on ``dataset``."""
        self._aggregator.fit(dataset, rng)
        return self

    def answer(self, query: Query) -> float:
        """Estimated fractional answer of a query."""
        return self._aggregator.answer(query)

    def answer_workload(self, queries: Iterable[Query]) -> np.ndarray:
        """Estimated answers for a workload (batched by λ and pair set)."""
        return self._aggregator.answer_workload(queries)

    def plan_answers(self, queries: Iterable[Query]):
        """Compile a workload into an inspectable AnswerPlan (pure).

        See :meth:`repro.core.Aggregator.plan_answers`; execute the
        result with :meth:`execute_answer_plan`.
        """
        return self._aggregator.plan_answers(queries)

    def execute_answer_plan(self, plan) -> np.ndarray:
        """Answer a compiled AnswerPlan, in its workload's order."""
        return self._aggregator.execute_answer_plan(plan)

    def recorded_workload(self):
        """Harvest a WorkloadSpec from recorded queries.

        Requires ``record_workload=True`` in the config; see
        :meth:`repro.core.Aggregator.recorded_workload`.
        """
        return self._aggregator.recorded_workload()

    def materialize(self, pairs=None) -> "Felip":
        """Eagerly build response matrices + summed-area answer caches.

        See :meth:`repro.core.Aggregator.materialize`; returns ``self``
        for chaining (``Felip.ohg(...).fit(ds).materialize()``).
        """
        self._aggregator.materialize(pairs)
        return self

    def fit_diagnostics(self):
        """Convergence diagnostics of Algorithm 3 / 4 iterative fits."""
        return self._aggregator.fit_diagnostics()

    def marginal(self, attribute) -> np.ndarray:
        """Estimated value-level distribution of one attribute."""
        return self._aggregator.marginal(attribute)

    def estimate_mean(self, attribute) -> float:
        """Estimated mean of a numerical attribute (in decoded units)."""
        return self._aggregator.estimate_mean(attribute)

    def joint(self, attr_i, attr_j) -> np.ndarray:
        """Estimated value-level joint distribution of two attributes."""
        return self._aggregator.joint(attr_i, attr_j)

    def set_prior(self, attr_i, attr_j, matrix: np.ndarray) -> "Felip":
        """Seed a pair's response matrix with public prior knowledge.

        See :meth:`repro.core.Aggregator.set_prior`; returns ``self`` for
        chaining. May be called before or after :meth:`fit`.
        """
        self._aggregator.set_prior(attr_i, attr_j, matrix)
        return self

    # -- introspection -----------------------------------------------------------

    @property
    def aggregator(self) -> Aggregator:
        """The underlying aggregator (grids, plans, response matrices)."""
        return self._aggregator

    @property
    def grid_plans(self):
        """The collection plan (after :meth:`fit`)."""
        return self._aggregator.plans

    def __repr__(self) -> str:
        return (f"Felip(strategy={self.config.strategy!r}, "
                f"epsilon={self.config.epsilon}, "
                f"protocols={self.config.protocols})")
