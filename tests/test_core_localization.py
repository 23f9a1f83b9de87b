"""Tests for the localization what-if analysis (Sect. 5, Tables 5/6)."""

import random

import pytest

from repro.analysis.tables import table5, table6
from repro.core.localization import LocalizationScenario
from repro.geodata.regions import Region, region_of_country


@pytest.fixture(scope="module")
def small_study_module(small_study):
    return small_study


@pytest.fixture(scope="module")
def analyzer(small_study_module):
    return small_study_module.localization


@pytest.fixture(scope="module")
def tracking(small_study_module):
    return small_study_module.tracking_requests()


def reference_counts(analyzer, requests, scenario, origin_region):
    """``scenario_counts`` flow by flow, as it was before per-key
    outcomes: every flow's reachable set computed afresh."""
    counts = {}
    for request in requests:
        if region_of_country(request.user_country) is not origin_region:
            continue
        n, country_ok, region_ok = counts.get(request.user_country, (0, 0, 0))
        reachable = analyzer._reachable_countries(request, scenario)
        counts[request.user_country] = (
            n + 1,
            country_ok + (request.user_country in reachable),
            region_ok + any(
                region_of_country(c) is origin_region for c in reachable
            ),
        )
    return dict(sorted(counts.items()))


class TestScenarioCounts:
    @pytest.mark.parametrize("scenario", list(LocalizationScenario))
    def test_per_key_outcomes_equal_a_per_flow_loop(
        self, analyzer, tracking, scenario
    ):
        flows = list(tracking)
        random.Random(28).shuffle(flows)
        keys = {(r.user_country, r.fqdn, r.ip) for r in flows}
        assert len(keys) < len(flows)
        for origin in (Region.EU28, Region.REST_EUROPE):
            counts = analyzer.scenario_counts(flows, scenario, origin)
            reference = reference_counts(analyzer, flows, scenario, origin)
            assert counts == reference
            assert list(counts) == list(reference)
            assert all(n > 0 for n, _, _ in counts.values())


class TestScenarioOrdering:
    def test_scenarios_are_monotone(self, analyzer, tracking):
        """Each scenario can only add reachable countries, so confinement
        is non-decreasing along the paper's scenario chain."""
        outcomes = {
            scenario: analyzer.evaluate(tracking, scenario)
            for scenario in LocalizationScenario
        }
        default = outcomes[LocalizationScenario.DEFAULT]
        fqdn = outcomes[LocalizationScenario.REDIRECT_FQDN]
        tld = outcomes[LocalizationScenario.REDIRECT_TLD]
        mirror = outcomes[LocalizationScenario.POP_MIRRORING]
        combined = outcomes[LocalizationScenario.REDIRECT_TLD_PLUS_MIRRORING]
        migration = outcomes[LocalizationScenario.CLOUD_MIGRATION]
        for metric in ("country_pct", "region_pct"):
            assert getattr(fqdn, metric) >= getattr(default, metric)
            assert getattr(tld, metric) >= getattr(fqdn, metric)
            assert getattr(mirror, metric) >= getattr(default, metric)
            assert getattr(combined, metric) >= getattr(tld, metric)
            assert getattr(combined, metric) >= getattr(mirror, metric)
            assert getattr(migration, metric) >= getattr(combined, metric)

    def test_redirection_has_real_potential(self, analyzer, tracking):
        """The paper's core what-if finding: TLD redirection adds
        substantially to national confinement."""
        default = analyzer.evaluate(tracking, LocalizationScenario.DEFAULT)
        tld = analyzer.evaluate(tracking, LocalizationScenario.REDIRECT_TLD)
        assert tld.country_pct - default.country_pct > 5.0

    def test_scenario_table_order(self, small_study_module, small_run):
        outcomes = table5(small_study_module)["outcomes"]
        assert [o.scenario for o in outcomes] == [
            LocalizationScenario.DEFAULT,
            LocalizationScenario.REDIRECT_FQDN,
            LocalizationScenario.REDIRECT_TLD,
            LocalizationScenario.POP_MIRRORING,
            LocalizationScenario.REDIRECT_TLD_PLUS_MIRRORING,
        ]
        assert all(o.n_flows == outcomes[0].n_flows for o in outcomes)
        assert small_run.scenario_table() == outcomes

    def test_improvement_over(self, small_study_module):
        outcomes = table5(small_study_module)["outcomes"]
        d_country, d_region = outcomes[2].improvement_over(outcomes[0])
        assert d_country >= 0 and d_region >= 0


class TestObservedMaps:
    def test_fqdn_subset_of_tld(self, analyzer, small_study_module):
        from repro.web.requests import tld1_of

        for record in small_study_module.inventory.records()[:200]:
            for fqdn in record.fqdns:
                assert analyzer.observed_fqdn_countries(fqdn) <= (
                    analyzer.observed_tld_countries(tld1_of(fqdn))
                )

    def test_unknown_fqdn_empty(self, analyzer):
        assert analyzer.observed_fqdn_countries("nope.example") == set()

    def test_mirrored_superset_of_observed(self, analyzer, small_study_module):
        from repro.web.requests import tld1_of

        tlds = {
            tld1_of(f)
            for r in small_study_module.inventory.records()[:100]
            for f in r.fqdns
        }
        for tld in tlds:
            assert analyzer.observed_tld_countries(tld) <= (
                analyzer.mirrored_countries(tld)
            )

    def test_cloud_tenancy_detected(self, analyzer, small_study_module):
        """At least some tracking TLDs are detected as cloud tenants via
        their published-range IPs."""
        from repro.web.requests import tld1_of

        tlds = {
            tld1_of(f)
            for r in small_study_module.inventory.records()
            for f in r.fqdns
        }
        assert any(analyzer.cloud_tenancy(tld) for tld in tlds)


class TestPerCountry:
    @pytest.fixture
    def rows(self, small_study_module):
        return table6(small_study_module)["rows"]

    def test_rows_have_expected_fields(self, rows):
        assert rows
        for row in rows:
            assert 0 <= row["mirroring_improvement_pct"] <= 100
            assert 0 <= row["migration_improvement_pct"] <= 100
            assert isinstance(row["cloud_coverage"], bool)

    def test_cyprus_gains_nothing_from_migration(self, rows):
        """Table 6: no public cloud covers Cyprus."""
        by_country = {row["country"]: row for row in rows}
        if "CY" in by_country:
            assert by_country["CY"]["cloud_coverage"] is False
            assert by_country["CY"]["migration_improvement_pct"] == 0.0

    def test_small_covered_countries_gain_most(self, rows):
        """Table 6's shape: migration gains are largest where TLD
        redirection achieves least (DK/GR/RO-like countries)."""
        covered = [r for r in rows if r["cloud_coverage"]]
        assert covered
        top = covered[0]
        assert top["migration_improvement_pct"] >= (
            covered[-1]["migration_improvement_pct"]
        )
