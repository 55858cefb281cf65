"""Attack-simulator and detector tests, plus the poisoning experiment.

Covers: forged reports fold and merge like real ones and actually move
the target cell (MGA), the feasibility detectors trigger on attacked
aggregates and stay quiet on honest ones, and the experiment artifact
records the acceptance numbers — 5% MGA measurably inflates the target
without defenses, while quarantine + detectors flag the run and bound
the inflation.
"""

import numpy as np
import pytest

from repro.core.merge import merge_reports
from repro.errors import ConfigurationError
from repro.experiments.attacks import poisoning_sweep, run_poisoning_cell
from repro.experiments import evaluate_strategy
from repro.data import uniform_dataset
from repro.fo.adaptive import make_oracle
from repro.queries import Query, between
from repro.robustness import (
    ATTACKS,
    group_imbalance,
    l1_feasibility,
    make_attack,
    range_feasibility,
    run_detectors,
)

pytestmark = pytest.mark.faults

PROTOCOLS = ("grr", "olh", "oue", "sue", "she", "the", "sw")


class TestAttackSimulators:
    @pytest.mark.parametrize("attack", sorted(ATTACKS))
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_forged_reports_merge_with_honest_batch(self, attack,
                                                    protocol):
        oracle = make_oracle(protocol, 1.0, 16)
        rng = np.random.default_rng(3)
        honest = oracle.perturb(rng.integers(0, 16, size=2000), rng)
        fake = make_attack(attack).forge(oracle, 100, target=4, rng=rng)
        merged = merge_reports([oracle.fold(None, [honest]),
                                oracle.fold(None, [fake])])
        assert merged.n == 2100
        estimates = oracle.unbias(merged)
        assert estimates.shape == (16,)
        assert np.isfinite(estimates).all()

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_maximal_gain_inflates_the_target(self, protocol):
        oracle = make_oracle(protocol, 1.0, 16)
        rng = np.random.default_rng(5)
        values = rng.integers(0, 16, size=20_000)
        honest = oracle.perturb(values, rng)
        fake = make_attack("max_gain").forge(oracle, 2_000, target=9,
                                             rng=rng)
        clean = oracle.estimate(honest)[9]
        attacked = oracle.unbias(merge_reports(
            [oracle.fold(None, [honest]), oracle.fold(None, [fake])]))[9]
        assert attacked > clean + 0.02

    def test_random_value_attack_only_dilutes(self):
        # RIA fakes are honest perturbations of uniform values: the
        # target moves far less than under MGA.
        oracle = make_oracle("grr", 1.0, 16)
        rng = np.random.default_rng(7)
        values = rng.integers(0, 16, size=20_000)
        honest = oracle.perturb(values, rng)
        ria = make_attack("random_value").forge(oracle, 2_000, target=9,
                                                rng=rng)
        mga = make_attack("max_gain").forge(oracle, 2_000, target=9,
                                            rng=rng)
        base = oracle.estimate(honest)[9]
        state = oracle.fold(None, [honest])
        ria_shift = abs(oracle.unbias(merge_reports(
            [state, oracle.fold(None, [ria])]))[9] - base)
        mga_shift = abs(oracle.unbias(merge_reports(
            [state, oracle.fold(None, [mga])]))[9] - base)
        assert mga_shift > 5 * ria_shift

    def test_unknown_attack_rejected(self):
        with pytest.raises(ConfigurationError):
            make_attack("zero_day")
        with pytest.raises(ConfigurationError):
            make_attack("max_gain").forge(make_oracle("grr", 1.0, 8),
                                          10, target=99)


class TestDetectors:
    def test_range_triggers_on_overshoot_only(self):
        ok = range_feasibility(np.array([0.2, 0.3, 0.5]), 1e-4)
        assert not ok.triggered
        bad = range_feasibility(np.array([1.9, -0.5, 0.1]), 1e-4)
        assert bad.triggered and bad.value > bad.threshold
        nan = range_feasibility(np.array([np.nan, 0.5]), 1e-4)
        assert nan.triggered

    def test_l1_triggers_on_mass_injection(self):
        ok = l1_feasibility(np.array([0.24, 0.26, 0.25, 0.27]), 1e-4)
        assert not ok.triggered
        bad = l1_feasibility(np.array([0.9, 0.9, 0.9, 0.9]), 1e-4)
        assert bad.triggered

    def test_imbalance_triggers_on_skewed_groups(self):
        even = group_imbalance([1000, 1010, 990, 1004])
        assert not even.triggered
        skewed = group_imbalance([1000, 1000, 5000, 1000])
        assert skewed.triggered
        degenerate = group_imbalance([7])
        assert not degenerate.triggered

    def test_run_detectors_validates_names_and_covers_grids(self):
        raw = {(0,): np.array([0.5, 0.5]), (1,): np.array([3.0, 0.1])}
        variances = {(0,): 1e-4, (1,): 1e-4}
        flags = run_detectors(("range", "l1", "imbalance"), raw,
                              variances, group_sizes=[100, 100])
        assert len(flags) == 5  # 2 grids × 2 per-grid detectors + 1
        assert any(f.triggered and f.grid == (1,) for f in flags)
        with pytest.raises(ConfigurationError):
            run_detectors(("sonar",), raw, variances, group_sizes=[])


class TestPoisoningExperiment:
    def test_acceptance_numbers_recorded(self):
        """MGA, 5% fakes, OUE: measurable inflation undefended; flagged
        and bounded with quarantine + detectors."""
        cell = run_poisoning_cell(protocol="oue", epsilon=1.0,
                                  domain_size=32, n=20_000,
                                  malicious_fraction=0.05,
                                  attack="max_gain", target=0, rng=7)
        # Undefended: the attack measurably inflates the target cell.
        assert cell["undefended_inflation"] > 0.10
        # Defended: the run is flagged and the forged batch quarantined.
        assert cell["flagged"] is True
        assert cell["ingest"]["dropped_reports"] >= 1
        # ...and the surviving estimate is bounded near the honest one.
        assert cell["defended_inflation"] < \
            cell["undefended_inflation"] / 5
        assert 0.0 <= cell["defended_estimate"] <= 1.0
        assert cell["num_fake"] == 1000

    def test_no_fakes_is_clean(self):
        cell = run_poisoning_cell(protocol="oue", malicious_fraction=0.0,
                                  rng=11)
        assert cell["num_fake"] == 0
        assert cell["flagged"] is False
        assert cell["ingest"]["dropped_reports"] == 0
        assert abs(cell["undefended_inflation"]) < 0.05

    def test_sweep_table_shape(self):
        table = poisoning_sweep(fractions=(0.0, 0.05), n=5_000, rng=13)
        rows = table.to_dicts()
        assert [float(row["fraction"]) for row in rows] == [0.0, 0.05]
        assert all("defended" in row and "undefended" in row
                   for row in rows)

    def test_invalid_cell_params_rejected(self):
        with pytest.raises(ConfigurationError):
            run_poisoning_cell(malicious_fraction=1.5)
        with pytest.raises(ConfigurationError):
            run_poisoning_cell(target=-1)


class TestRunnerRecordsRobustness:
    def test_evaluate_strategy_artifact_includes_robustness(self):
        dataset = uniform_dataset(2_000, num_numerical=2,
                                  num_categorical=0, numerical_domain=8,
                                  rng=17)
        queries = [Query([between("num_0", 0, 3)])]
        result = evaluate_strategy("ohg", dataset, queries, epsilon=1.0,
                                   rng=19)
        assert result.robustness["ingest"]["accepted_reports"] > 0
        assert result.robustness["execution"]["retries"] == 0
        assert result.robustness["flagged"] is False

    def test_baselines_report_empty_robustness(self):
        dataset = uniform_dataset(2_000, num_numerical=2,
                                  num_categorical=0, numerical_domain=8,
                                  rng=23)
        queries = [Query([between("num_0", 0, 3)])]
        result = evaluate_strategy("hio", dataset, queries, epsilon=1.0,
                                   rng=29)
        assert result.robustness == {}
