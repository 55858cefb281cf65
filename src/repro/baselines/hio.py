"""HIO: Hierarchical-Interval Optimized mechanism (Wang et al. SIGMOD'19).

The paper's main competitor for multidimensional queries with point and
range constraints (Sections 3.1 and 6.2). Per attribute ``t`` a hierarchy
with ``h_t + 1`` levels is built; the population is divided into
``Π_t (h_t + 1)`` groups, one per *k-dim level* (a choice of one level per
attribute). A user in group ``(l_1..l_k)`` reports, via OLH, the tuple of
interval indices containing their record at those levels.

A query is expanded to all ``k`` attributes (root interval for absent ones),
each attribute's constraint is decomposed into its minimal hierarchy cover,
and the answer is the sum of the estimated frequencies of the cross product
of covers — each term served lazily by the group matching its level tuple
(the full cross-product cell space is astronomically large, so per-interval
frequencies are estimated on demand and memoized).

The group count explodes with ``k`` and domain size, which is exactly HIO's
curse of dimensionality the paper demonstrates: many groups end up with a
handful of users (estimate variance blows up) or none (estimate falls back
to zero).

Deviation from the original (documented in DESIGN.md): when the
cross-product of exact covers exceeds ``term_cap``, the largest cover is
coarsened to a single shallower level with fractional overlap weights; this
keeps high-λ queries tractable without changing the mechanism's privacy or
its qualitative accuracy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.hierarchy import Hierarchy
from repro.core.partition import partition_users
from repro.data.dataset import Dataset
from repro.errors import NotFittedError, QueryError
from repro.fo import kernels
from repro.fo.base import validate_epsilon
from repro.fo.hashing import chain_hash, random_seeds
from repro.fo.olh import optimal_hash_range
from repro.queries.predicate import Predicate
from repro.queries.query import Query
from repro.rng import RngLike, ensure_rng
from repro.schema import Schema

#: (level, interval_index, weight)
_WeightedEntry = Tuple[int, int, float]


@dataclass
class _Group:
    """Reports of one k-dim level group (``buckets`` stored as uint64)."""

    levels: Tuple[int, ...]
    seeds: np.ndarray
    buckets: np.ndarray

    @cached_property
    def mixed_seeds(self) -> np.ndarray:
        """Pre-mixed splitmix64 state, computed on first estimate.

        HIO estimates per-interval frequencies lazily and memoizes them,
        so one group is typically queried many times; caching the mix
        keeps repeated queries from re-hashing the seeds.
        """
        return kernels.mix_seeds(self.seeds)

    @property
    def size(self) -> int:
        return len(self.seeds)


class HIO:
    """Hierarchy-based LDP mechanism for multidimensional queries."""

    def __init__(self, schema: Schema, epsilon: float = 1.0,
                 branching: int = 4, term_cap: int = 100_000):
        self.schema = schema
        self.epsilon = validate_epsilon(epsilon)
        if branching < 2:
            raise QueryError(f"branching must be >= 2, got {branching}")
        if term_cap < 1:
            raise QueryError(f"term_cap must be >= 1, got {term_cap}")
        self.branching = branching
        self.term_cap = term_cap
        self.hierarchies = [
            Hierarchy(attr.domain_size, branching,
                      categorical=attr.is_categorical)
            for attr in schema
        ]
        self.g = optimal_hash_range(self.epsilon)
        e = math.exp(self.epsilon)
        self.p = e / (e + self.g - 1)
        self.n: Optional[int] = None
        self._groups: Dict[Tuple[int, ...], _Group] = {}
        self._cache: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], float] = {}

    @property
    def num_groups(self) -> int:
        """``Π_t (h_t + 1)`` — one group per k-dim level."""
        count = 1
        for hierarchy in self.hierarchies:
            count *= hierarchy.num_levels
        return count

    def level_combos(self) -> List[Tuple[int, ...]]:
        """All k-dim levels in deterministic order."""
        ranges = [range(h.num_levels) for h in self.hierarchies]
        return list(itertools.product(*ranges))

    # -- collection -----------------------------------------------------------

    def fit(self, dataset: Dataset, rng: RngLike = None) -> "HIO":
        """Collect one OLH report per user on their group's k-dim level."""
        if dataset.schema != self.schema:
            raise QueryError("dataset schema does not match HIO's")
        rng = ensure_rng(rng)
        self.n = dataset.n
        self._groups = {}
        self._cache = {}
        combos = self.level_combos()
        n = dataset.n
        assignment = partition_users(n, len(combos), rng)

        # Vectorized over the whole population: first, per attribute, the
        # interval index of every user at their own group's level (each
        # level computed only for the users whose group reads it, so every
        # code is mapped, and domain-checked, once), then one chained
        # hash + GRR pass. Equivalent to per-group encoding, but O(k * n)
        # numpy work instead of a Python loop over the (potentially
        # enormous) group set.
        combo_arr = np.asarray(combos, dtype=np.int64)
        components = []
        for t, hierarchy in enumerate(self.hierarchies):
            levels = combo_arr[:, t][assignment]
            codes = dataset.records[:, t]
            column = np.empty(n, dtype=np.uint64)
            for level in range(hierarchy.num_levels):
                readers = np.flatnonzero(levels == level)
                column[readers] = hierarchy.interval_of(level,
                                                        codes[readers])
            components.append(column)

        seeds = random_seeds(n, rng)
        hashed = chain_hash(seeds, components, self.g).astype(np.int64)
        keep = rng.random(n) < self.p
        others = rng.integers(0, self.g - 1, size=n)
        others = others + (others >= hashed)
        buckets = np.where(keep, hashed, others).astype(np.uint64)

        order = np.argsort(assignment, kind="stable")
        boundaries = np.searchsorted(assignment[order],
                                     np.arange(len(combos) + 1))
        for g_index, combo in enumerate(combos):
            members = order[boundaries[g_index]:boundaries[g_index + 1]]
            self._groups[combo] = _Group(levels=combo,
                                         seeds=seeds[members],
                                         buckets=buckets[members])
        return self

    # -- estimation -------------------------------------------------------------

    def _estimate_intervals_batch(self, combo: Tuple[int, ...],
                                  intervals_list) -> np.ndarray:
        """Estimate many k-dim intervals of one group in one pass.

        The support counting over (terms x users) runs through the shared
        kernel layer (:func:`repro.fo.kernels.support_counts`), so a
        query's whole term batch costs one memory-bounded sweep instead
        of one Python iteration per term. The group's mixed seed state is
        cached, and results are memoized per (combo, interval).
        """
        group = self._groups[combo]
        estimates = np.zeros(len(intervals_list))
        missing = [i for i, iv in enumerate(intervals_list)
                   if (combo, iv) not in self._cache]
        if missing and group.size > 0:
            arr = np.asarray([intervals_list[i] for i in missing],
                             dtype=np.uint64)
            support = kernels.support_counts(
                group.mixed_seeds, group.buckets, self.g, arr)
            missing_est = ((support / group.size - 1.0 / self.g)
                           / (self.p - 1.0 / self.g))
            for idx, est in zip(missing, missing_est):
                self._cache[(combo, intervals_list[idx])] = float(est)
        elif missing:
            for i in missing:
                self._cache[(combo, intervals_list[i])] = 0.0
        for i, iv in enumerate(intervals_list):
            estimates[i] = self._cache[(combo, iv)]
        return estimates

    def _attribute_cover(self, t: int,
                         predicate: Optional[Predicate]) \
            -> List[_WeightedEntry]:
        """Weighted cover of attribute ``t``'s constraint."""
        hierarchy = self.hierarchies[t]
        if predicate is None:
            return [(0, 0, 1.0)]
        if predicate.is_range:
            lo, hi = predicate.interval
            hi = min(hi, hierarchy.domain_size - 1)
            if lo == 0 and hi == hierarchy.domain_size - 1:
                return [(0, 0, 1.0)]
            return [(level, idx, 1.0)
                    for level, idx in hierarchy.cover(lo, hi)]
        members = sorted(predicate.members)
        if len(members) == hierarchy.domain_size:
            return [(0, 0, 1.0)]
        leaf_level = hierarchy.num_levels - 1
        return [(leaf_level, v, 1.0) for v in members]

    def _coarsen(self, covers: List[List[_WeightedEntry]],
                 attr_indices: Sequence[int]) -> None:
        """Shrink the largest covers until the cross product fits the cap."""
        def product_size() -> int:
            size = 1
            for cover in covers:
                size *= max(len(cover), 1)
            return size

        while product_size() > self.term_cap:
            largest = max(range(len(covers)), key=lambda i: len(covers[i]))
            cover = covers[largest]
            hierarchy = self.hierarchies[attr_indices[largest]]
            deepest = max(level for level, _, _ in cover)
            if deepest == 0:
                break
            lo = min(hierarchy.interval_bounds(level, idx)[0]
                     for level, idx, _ in cover)
            hi = max(hierarchy.interval_bounds(level, idx)[1]
                     for level, idx, _ in cover)
            covers[largest] = hierarchy.approximate_cover(lo, hi,
                                                          deepest - 1)

    # -- query answering -----------------------------------------------------------

    def answer(self, query: Query) -> float:
        """Estimated fractional answer of a query."""
        if self.n is None:
            raise NotFittedError("call fit() before querying")
        query.validate_for(self.schema)
        k = len(self.schema)
        predicates: List[Optional[Predicate]] = [None] * k
        for predicate in query:
            predicates[self.schema.index_of(predicate.attribute)] = predicate

        covers = [self._attribute_cover(t, predicates[t]) for t in range(k)]
        self._coarsen(covers, list(range(k)))

        # Group the cross product's terms by k-dim level so each group's
        # support counts are computed in one vectorized batch.
        by_combo: Dict[Tuple[int, ...], List] = {}
        for combination in itertools.product(*covers):
            combo = tuple(entry[0] for entry in combination)
            intervals = tuple(entry[1] for entry in combination)
            weight = 1.0
            for entry in combination:
                weight *= entry[2]
            terms, weights = by_combo.setdefault(combo, ([], []))
            terms.append(intervals)
            weights.append(weight)

        total = 0.0
        for combo, (terms, weights) in by_combo.items():
            estimates = self._estimate_intervals_batch(combo, terms)
            total += float(np.asarray(weights) @ estimates)
        # Answers are frequencies; clamp the noise-driven overshoot (tiny
        # groups at high k produce wild per-interval estimates).
        return min(max(total, 0.0), 1.0)

    def answer_workload(self, queries) -> np.ndarray:
        """Estimated answers for a workload."""
        return np.array([self.answer(q) for q in queries])

    def __repr__(self) -> str:
        return (f"HIO(epsilon={self.epsilon}, branching={self.branching}, "
                f"groups={self.num_groups})")
