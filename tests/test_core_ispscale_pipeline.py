"""Tests for the ISP-scale study (Sect. 7) and the end-to-end pipeline."""

import pytest

from repro.core.ispscale import TABLE8_REGIONS
from repro.errors import ReproError, UnknownKeyError
from repro.geodata.regions import Region


class TestISPScaleStudy:
    def test_snapshot_report_shape(self, small_study):
        report = small_study.isp_reports[("DE-Broadband", "April 4")]
        assert report.isp_name == "DE-Broadband"
        assert report.sampled_tracking_flows > 0
        assert report.estimated_tracking_flows == (
            report.sampled_tracking_flows
            * small_study.config.isp.sampling_rate
        )

    def test_region_shares_sum_to_100(self, small_study):
        report = small_study.isp_reports[("HU", "Nov 8")]
        assert sum(report.region_shares.values()) == pytest.approx(
            100.0, abs=0.5
        )
        assert set(report.region_shares) >= set(TABLE8_REGIONS)

    def test_most_flows_join_as_tracking(self, small_study):
        """Background (clean) flows must not match the tracker list."""
        config = small_study.config.isp
        report = small_study.isp_reports[("DE-Mobile", "May 16")]
        budget = config.sampled_flows["DE-Mobile"]
        assert report.sampled_tracking_flows <= budget + 5
        # The bulk of the tracking budget matched; the shortfall is
        # endpoints whose passive-DNS windows lapsed (the paper's
        # conservative validity rule drops those too).
        assert report.sampled_tracking_flows > 0.65 * budget

    def test_eu28_confinement_high(self, small_study):
        """Table 8's headline: EU28 confinement between ~3/4 and ~19/20."""
        for isp in ("DE-Broadband", "DE-Mobile", "HU"):
            report = small_study.isp_reports[(isp, "April 4")]
            assert report.region_shares["EU 28"] > 65.0

    def test_encrypted_share_matches_paper(self, small_study):
        report = small_study.isp_reports[("DE-Broadband", "June 20")]
        assert 70.0 < report.encrypted_share_pct < 95.0
        assert report.web_share_pct > 99.0

    def test_top_destinations_with_rest_bucket(self, small_study):
        report = small_study.isp_reports[("PL", "April 4")]
        top = report.top_destinations(5)
        assert len(top) <= 6
        shares = [share for _, share in top]
        assert shares[:-1] == sorted(shares[:-1], reverse=True) or len(top) <= 2
        total = sum(share for _, share in top)
        assert total == pytest.approx(100.0, abs=1.0)

    def test_run_all_grid(self, small_study):
        from repro.analysis.tables import table8

        grid = table8(small_study, snapshots=["Nov 8", "June 20"])["reports"]
        assert len(grid) == 4 * 2
        assert ("HU", "June 20") in grid
        assert len(small_study.isp_reports) == 4 * 4

    def test_hungary_flows_terminate_in_austria(self, small_study):
        """Fig. 12(d): Vienna is the Hungarian ISP's dominant sink."""
        report = small_study.isp_reports[("HU", "April 4")]
        top = report.top_destinations(3)
        assert top[0][0] in ("Austria", "Hungary")


class TestStudyPipeline:
    def test_stage_caching(self, small_study):
        assert small_study.visit_log is small_study.visit_log
        assert small_study.classification is small_study.classification
        assert small_study.inventory is small_study.inventory
        assert small_study.localization is small_study.localization
        assert small_study.sensitive is small_study.sensitive
        assert small_study.isp_reports is small_study.isp_reports

    def test_tracking_requests_subset_of_log(self, small_study):
        tracking = small_study.tracking_requests()
        assert 0 < len(tracking) < small_study.visit_log.third_party_requests()

    def test_inventory_covers_tracking_flows(self, small_study):
        inventory = small_study.inventory
        for request in small_study.tracking_requests()[:200]:
            assert request.ip in inventory

    def test_eu28_shares_sum_to_100(self, small_study):
        for tool in ("RIPE IPmap", "MaxMind", "ip-api"):
            shares = small_study.eu28_destination_regions(tool)
            assert sum(shares.values()) == pytest.approx(100.0, abs=0.1)

    def test_headline_flip_direction(self, small_study):
        """Fig. 7: the commercial database must flip the takeaway —
        IPmap says confined in EU28, MaxMind says leaked to N. America."""
        ipmap = small_study.eu28_destination_regions("RIPE IPmap")
        maxmind = small_study.eu28_destination_regions("MaxMind")
        assert ipmap[Region.EU28.value] > 60.0
        assert maxmind[Region.EU28.value] < ipmap[Region.EU28.value] - 20.0
        assert (
            maxmind.get(Region.NORTH_AMERICA.value, 0.0)
            > ipmap.get(Region.NORTH_AMERICA.value, 0.0)
        )

    def test_confinement_unknown_tool_raises(self, small_study, small_run):
        for accessor in (
            small_study.eu28_destination_regions,
            small_run.eu28_destination_regions,
        ):
            with pytest.raises(UnknownKeyError) as raised:
                accessor("GeoGuesser")
            assert isinstance(raised.value, ReproError)
            assert isinstance(raised.value, KeyError)
            message = str(raised.value)
            assert "GeoGuesser" in message
            for tool in ("RIPE IPmap", "MaxMind", "ip-api"):
                assert tool in message


class TestAnalysisArtifacts:
    def test_all_tables_render(self, small_study):
        from repro.analysis import tables as T

        for builder in (T.table1, T.table2, T.table5, T.table6, T.table7,
                        T.table9):
            artifact = builder(small_study)
            assert isinstance(artifact["text"], str) and artifact["text"]

    def test_table3_and_4(self, small_study):
        from repro.analysis.tables import table3, table4

        t3 = table3(small_study, max_ips=300)
        assert t3["n_ips"] <= 300
        t4 = table4(small_study)
        assert len(t4["providers"]) == 3

    def test_table8_grid(self, small_study):
        from repro.analysis.tables import table8

        artifact = table8(small_study, snapshots=["April 4"])
        assert len(artifact["reports"]) == 4

    def test_all_figures_render(self, small_study):
        from repro.analysis import figures as F

        for builder in (F.figure2, F.figure3, F.figure4, F.figure5,
                        F.figure6, F.figure7, F.figure8, F.figure9,
                        F.figure10, F.figure11):
            artifact = builder(small_study)
            assert isinstance(artifact["text"], str) and artifact["text"]

    def test_figure12(self, small_study):
        from repro.analysis.figures import figure12

        artifact = figure12(small_study)
        assert set(artifact["reports"]) == {
            "DE-Broadband", "DE-Mobile", "PL", "HU",
        }

    def test_experiment_summary_complete(self, small_study):
        from repro.analysis.report import PAPER_VALUES, experiment_summary

        measured = experiment_summary(small_study)
        assert set(measured) == set(PAPER_VALUES)
        assert all(isinstance(v, float) for v in measured.values())

    def test_paper_vs_measured_renders(self, small_study):
        from repro.analysis.report import paper_vs_measured

        block = paper_vs_measured(small_study)
        assert "f7_ipmap_eu28_pct" in block
