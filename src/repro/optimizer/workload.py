"""Declared or harvested workload structure.

A :class:`WorkloadSpec` is the optimizer's view of what the aggregator
will actually be asked: how often each attribute is constrained, how
query dimensionality λ is distributed, which attribute pairs co-occur,
and the per-attribute selectivity histogram. It is deliberately *not* a
list of queries — the point is that the structure can be declared up
front (an analyst knows the dashboard's query mix) or harvested from a
recorded workload (``WorkloadSpec.from_queries``), and the two forms are
interchangeable everywhere downstream.

Weights are stored normalized (each family sums to 1) so specs harvested
from differently sized recordings compare directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, QueryError


def _normalized(weights: Mapping, what: str) -> Dict:
    total = 0.0
    for key, value in weights.items():
        value = float(value)
        if value < 0:
            raise ConfigurationError(
                f"{what} weight for {key!r} must be >= 0, got {value}")
        total += value
    if total <= 0:
        raise ConfigurationError(f"{what} weights need positive mass")
    return {key: float(value) / total for key, value in weights.items()
            if value > 0}


@dataclass(frozen=True)
class AttributeProfile:
    """One attribute's role in the workload.

    Attributes
    ----------
    weight:
        Fraction of all predicates that constrain this attribute.
    histogram:
        Selectivity histogram as ``((selectivity, weight), ...)`` bins;
        weights sum to 1 over the bins.
    """

    weight: float
    histogram: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ConfigurationError(
                f"attribute weight must be >= 0, got {self.weight}")
        if not self.histogram:
            raise ConfigurationError(
                "attribute profile needs at least one selectivity bin")
        for sel, w in self.histogram:
            if not 0.0 < sel <= 1.0:
                raise ConfigurationError(
                    f"selectivity must be in (0, 1], got {sel}")
            if w < 0:
                raise ConfigurationError(
                    f"selectivity bin weight must be >= 0, got {w}")

    @property
    def mean_selectivity(self) -> float:
        """E[r] over the selectivity histogram."""
        return sum(s * w for s, w in self.histogram)

    @property
    def mean_square_selectivity(self) -> float:
        """E[r²] over the selectivity histogram (2-D sizing needs it)."""
        return sum(s * s * w for s, w in self.histogram)

    @property
    def moments(self) -> Tuple[float, float]:
        """``(E[r], E[r²])`` — the pair the sizing objectives consume."""
        return self.mean_selectivity, self.mean_square_selectivity


def _profile(weight: float, selectivities: Sequence[Tuple[float, float]]
             ) -> AttributeProfile:
    bins = _normalized(dict(selectivities), "selectivity")
    histogram = tuple(sorted(bins.items()))
    return AttributeProfile(weight=weight, histogram=histogram)


@dataclass(frozen=True)
class WorkloadSpec:
    """Structure of a declared (or recorded) query workload.

    Attributes
    ----------
    attributes:
        Per-attribute-name :class:`AttributeProfile`; attribute weights
        sum to 1 over the mapping.
    lambda_weights:
        λ → fraction of queries with that many predicates (sums to 1).
    pair_weights:
        Sorted attribute-name pair → fraction of pair *lookups* the
        workload induces: each λ-D query touches all ``C(λ, 2)`` pairs of
        its attributes (λ ≥ 3 queries answer through pairwise sign
        tables), so the pair weights are exactly the relative pressure on
        each response matrix.
    total_queries:
        Number of recorded queries behind a harvested spec (0 when
        declared analytically); informational only.
    """

    attributes: Mapping[str, AttributeProfile]
    lambda_weights: Mapping[int, float]
    pair_weights: Mapping[Tuple[str, str], float] = \
        field(default_factory=dict)
    total_queries: int = 0

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ConfigurationError(
                "a workload spec needs at least one attribute profile")
        for lam in self.lambda_weights:
            if int(lam) < 1:
                raise ConfigurationError(
                    f"lambda must be >= 1, got {lam}")
        for a, b in self.pair_weights:
            if a >= b:
                raise ConfigurationError(
                    f"pair names must be sorted and distinct, "
                    f"got ({a!r}, {b!r})")

    # -- constructors -------------------------------------------------------

    @classmethod
    def declare(cls,
                selectivities: Mapping[str, object],
                lambda_weights: Optional[Mapping[int, float]] = None,
                attribute_weights: Optional[Mapping[str, float]] = None,
                pair_weights: Optional[Mapping[Tuple[str, str], float]]
                = None) -> "WorkloadSpec":
        """Declare a workload analytically.

        ``selectivities`` maps attribute name → either a scalar expected
        selectivity or a ``{selectivity: weight}`` histogram. Attributes
        default to uniform weights; λ defaults to all-2-D; pair weights
        default to uniform over the named attributes' pairs.
        """
        if not selectivities:
            raise ConfigurationError("declare() needs selectivities")
        names = sorted(selectivities)
        if attribute_weights is None:
            attribute_weights = {name: 1.0 for name in names}
        attribute_weights = _normalized(attribute_weights, "attribute")
        profiles = {}
        for name in names:
            sel = selectivities[name]
            if isinstance(sel, (int, float)):
                histogram = {float(sel): 1.0}
            else:
                histogram = {float(s): float(w) for s, w in dict(sel).items()}
            profiles[name] = _profile(attribute_weights.get(name, 0.0),
                                      sorted(histogram.items()))
        if lambda_weights is None:
            lambda_weights = {2: 1.0}
        lambda_weights = {int(k): v for k, v
                          in _normalized(lambda_weights, "lambda").items()}
        if pair_weights is None:
            pairs = [(a, b) for i, a in enumerate(names)
                     for b in names[i + 1:]]
            pair_weights = ({pair: 1.0 for pair in pairs} if pairs else {})
        if pair_weights:
            pair_weights = {tuple(sorted(pair)): w for pair, w
                            in _normalized(pair_weights, "pair").items()}
        return cls(attributes=profiles, lambda_weights=lambda_weights,
                   pair_weights=dict(pair_weights))

    @classmethod
    def from_queries(cls, queries: Iterable, schema) -> "WorkloadSpec":
        """Harvest the spec from a recorded workload.

        ``queries`` is any iterable of :class:`repro.queries.Query`; each
        is validated against ``schema`` and folded through a
        :class:`WorkloadAccumulator` (see there for what one query
        contributes).
        """
        counts = WorkloadAccumulator(schema)
        for query in queries:
            query.validate_for(schema)
            counts.add(query)
        return counts.spec()

    # -- accessors ----------------------------------------------------------

    def attribute_weight(self, name: str) -> float:
        """Fraction of predicates constraining ``name`` (0 if absent)."""
        profile = self.attributes.get(name)
        return profile.weight if profile is not None else 0.0

    def selectivity_moments(self, name: str
                            ) -> Optional[Tuple[float, float]]:
        """``(E[r], E[r²])`` for ``name``; None when the workload never
        constrains it (sizing then falls back to the config prior)."""
        profile = self.attributes.get(name)
        return profile.moments if profile is not None else None

    def lambda_weight(self, lam: int) -> float:
        """Fraction of queries with exactly ``lam`` predicates."""
        return float(self.lambda_weights.get(int(lam), 0.0))

    def pair_weight(self, name_a: str, name_b: str) -> float:
        """Pair-lookup weight of a sorted attribute-name pair."""
        if name_a > name_b:
            name_a, name_b = name_b, name_a
        return float(self.pair_weights.get((name_a, name_b), 0.0))

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly rendering (plan artifacts, benchmarks)."""
        return {
            "attributes": {
                name: {"weight": p.weight,
                       "mean_selectivity": p.mean_selectivity,
                       "histogram": [list(b) for b in p.histogram]}
                for name, p in sorted(self.attributes.items())},
            "lambda_weights": {str(k): v for k, v
                               in sorted(self.lambda_weights.items())},
            "pair_weights": {f"{a}|{b}": w for (a, b), w
                             in sorted(self.pair_weights.items())},
            "total_queries": self.total_queries,
        }


class WorkloadAccumulator:
    """Running counts a :class:`WorkloadSpec` is harvested from.

    Every predicate contributes one selectivity observation to its
    attribute's histogram, every query one observation to the λ
    distribution, and every attribute pair of every query one pair
    lookup. Selectivities are kept exact (one histogram bin per observed
    value), so memory grows with the workload's *shape* — distinct
    (attribute, selectivity) bins, λ values and pairs — never with the
    number of queries folded in; :func:`len` counts those entries.
    """

    def __init__(self, schema):
        self.schema = schema
        self.selectivity_bins: Dict[str, Dict[float, int]] = {}
        self.lambda_counts: Dict[int, int] = {}
        self.pair_counts: Dict[Tuple[str, str], int] = {}
        self.total = 0

    def __len__(self) -> int:
        return (sum(len(bins) for bins in self.selectivity_bins.values())
                + len(self.lambda_counts) + len(self.pair_counts))

    def add(self, predicates: Iterable) -> None:
        """Fold in one query (any iterable of its predicates), which the
        caller has already validated against the schema."""
        names = []
        for predicate in predicates:
            name = predicate.attribute
            domain = self.schema[name].domain_size
            sel = round(predicate.selectivity(domain), 12)
            bins = self.selectivity_bins.setdefault(name, {})
            bins[sel] = bins.get(sel, 0) + 1
            names.append(name)
        names.sort()
        lam = len(names)
        self.lambda_counts[lam] = self.lambda_counts.get(lam, 0) + 1
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                self.pair_counts[(a, b)] = self.pair_counts.get((a, b), 0) + 1
        self.total += 1

    def spec(self) -> WorkloadSpec:
        """The normalized :class:`WorkloadSpec` of everything folded in."""
        if self.total == 0:
            raise QueryError("cannot harvest a spec from an empty workload")
        weights = _normalized({name: sum(bins.values()) for name, bins
                               in self.selectivity_bins.items()},
                              "attribute")
        profiles = {name: _profile(weights[name],
                                   sorted(self.selectivity_bins[name].items()))
                    for name in sorted(self.selectivity_bins)}
        pair_weights = (_normalized(self.pair_counts, "pair")
                        if self.pair_counts else {})
        return WorkloadSpec(
            attributes=profiles,
            lambda_weights=_normalized(self.lambda_counts, "lambda"),
            pair_weights=pair_weights, total_queries=self.total)
