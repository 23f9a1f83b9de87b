"""Tests for repro.geoloc: probes, IPmap engine, commercial databases,
comparison tooling."""

import hashlib
import random
import sys
import threading
from array import array

import pytest

from repro.config import GeolocationConfig
from repro.datasets.builder import build_world, cached_build_world
from repro.geodata.countries import Country, CountryRegistry
from repro.geodata.distance import (
    great_circle_km,
    great_circle_row_km,
    rtt_upper_bound_km,
)
from repro.geodata.regions import region_of_country
from repro.geoloc import ipmap as ipmap_module
from repro.geoloc import probes as probes_module
from repro.geoloc.commercial import CommercialGeoDatabase
from repro.geoloc.compare import agreement_matrix, misgeolocation_report
from repro.geoloc.ipmap import IPmapEngine
from repro.geoloc.probes import Probe, ProbeMesh
from repro.netbase.addr import IPAddress
from repro.runtime import run_study
from repro.runtime.stages import campaign_engine
from repro.util.rng import RngStreams, seeded_rng


class TestProbeMesh:
    def test_density_profile(self, small_world):
        mesh = small_world.probes
        europe = sum(
            1
            for p in mesh.probes()
            if small_world.registry.get(p.country).continent == "EU"
        )
        us = len(mesh.in_country("US"))
        # Paper: dense in Europe (5K+), substantial in the US (1K+).
        assert europe > 2 * us > 0

    def test_every_country_covered(self, small_world):
        covered = set(small_world.probes.countries())
        assert covered == set(small_world.registry.codes())

    def test_probe_rtt_reflects_distance(self):
        probe = Probe(0, "DE", 52.5, 13.4)
        near = probe.rtt_to(52.5, 13.5)
        far = probe.rtt_to(40.4, -3.7)
        assert near < far

    def test_sample_size_clamped(self, small_world):
        mesh = small_world.probes
        sample = mesh.sample(random.Random(0), 10 ** 6)
        assert len(sample) == len(mesh)

    def test_empty_mesh_rejected(self):
        from repro.errors import GeolocationError

        with pytest.raises(GeolocationError):
            ProbeMesh([])


class TestIPmapEngine:
    def test_region_always_correct_for_servers(self, small_world):
        oracle_ok = 0
        servers = small_world.fleet.servers()[:150]
        for server in servers:
            estimate = small_world.ipmap.geolocate(server.ip)
            if (
                region_of_country(estimate.country)
                is region_of_country(server.country)
            ):
                oracle_ok += 1
        assert oracle_ok / len(servers) > 0.97

    def test_country_mostly_correct(self, small_world):
        servers = small_world.fleet.servers()[:200]
        correct = sum(
            1
            for s in servers
            if small_world.ipmap.locate(s.ip) == s.country
        )
        assert correct / len(servers) > 0.9

    def test_votes_sum_to_voter_count(self, small_world):
        server = small_world.fleet.servers()[0]
        estimate = small_world.ipmap.geolocate(server.ip)
        assert sum(count for _, count in estimate.votes) == IPmapEngine.N_VOTERS
        assert 0 < estimate.country_agreement <= 1.0
        assert estimate.region_agreement >= estimate.country_agreement

    def test_caching(self, small_world):
        server = small_world.fleet.servers()[1]
        first = small_world.ipmap.geolocate(server.ip)
        second = small_world.ipmap.geolocate(server.ip)
        assert first is second

    def test_unknown_address_raises(self, small_world):
        from repro.errors import GeolocationError

        with pytest.raises(GeolocationError):
            small_world.ipmap.geolocate(IPAddress.parse("203.0.113.7"))

    def test_cloud_range_validation_accuracy(self, small_study):
        """Sect. 3.4's AWS/Azure check: near-perfect on cloud ranges."""
        accuracy = small_study.geolocation.validate_ipmap_against_clouds(
            small_study.world.clouds, per_pool_samples=2
        )
        assert accuracy["n"] > 0
        assert accuracy["country_pct"] > 90.0
        assert accuracy["region_pct"] > 97.0


def _server_ips(world, count):
    """The first ``count`` server addresses in sorted order: a set the
    panel's DNS draws never touch."""
    return sorted({server.ip for server in world.fleet.servers()})[:count]


def _measured(world, engine, address):
    """A campaign's ``(rtt, probe)`` pairs as ``Probe.rtt_to`` measures
    them, from an RNG seeded as the engine seeds the campaign's."""
    rng = seeded_rng(engine._campaign_seed, f"campaign:{address}")
    lat, lon = world.oracle.coordinates(address)
    probes = world.probes.sample(
        rng, world.config.geolocation.probes_per_campaign
    )
    return [(probe.rtt_to(lat, lon, rng), probe) for probe in probes]


def reference_joint_scores(engine, shortlist, distances, bounds, expected):
    """``IPmapEngine._joint_scores`` as it was before the voter-outer
    fit: site by site, each voter's violation penalty and ring misfit
    added in voter order."""
    scores = []
    for site_index in range(len(shortlist)):
        score = 0.0
        for voter_index in range(len(distances)):
            distance = distances[voter_index][site_index]
            violation = distance - (
                bounds[voter_index] + engine.SITE_SLACK_KM
            )
            if violation > 0:
                score += violation * engine.VIOLATION_WEIGHT
            score += abs(distance - expected[voter_index])
        score -= len(distances) * engine._infra_bonus_km.get(
            shortlist[site_index].country, 0.0
        )
        scores.append(score)
    return scores


def _bits(values):
    return [value.hex() for value in values]


class TestDistanceRows:
    """Each probe's distances to the candidate sites are computed once
    per world, stored compactly, shared by every engine over the mesh,
    and equal to what a campaign would compute itself."""

    #: sha256 of the first 300 sorted server IPs' campaign estimates on
    #: the small world, computed before campaigns read distance rows
    PINNED_ESTIMATES = (
        "9d9b540010b57e98d3b67d56d49bba0403b600bbeaee7d2ea922bb4641126cb5"
    )

    def test_rows_equal_great_circle_exactly(self, small_world):
        engine = campaign_engine(small_world)
        sites = engine._site_coords
        rows = small_world.probes.distance_rows(sites)
        probes = small_world.probes.probes()
        assert len(rows) == len(probes)
        for row in rows.values():
            assert isinstance(row, array) and row.typecode == "d"
            assert len(row) == len(sites)
        rng = random.Random(16)
        for _ in range(5000):
            probe = rng.choice(probes)
            index = rng.randrange(len(sites))
            lat, lon = sites[index]
            assert rows[probe][index] == great_circle_km(
                probe.lat, probe.lon, lat, lon
            )

    def test_index_shortlist_equals_filtering_sites(
        self, small_world, monkeypatch
    ):
        # Each campaign's RTTs are recomputed with ``Probe.rtt_to`` from
        # an identically seeded RNG: the voters' hard bounds must be
        # theirs, and the shortlist the sites within the best probe's.
        engine = campaign_engine(small_world)
        measured = []
        checked = []
        joint_scores = engine._joint_scores

        def scoring(shortlist, distances, bounds, expected):
            voters = sorted(measured, key=lambda pair: pair[0])
            voters = voters[: engine.N_VOTERS]
            assert _bits(bounds) == _bits(
                [rtt_upper_bound_km(rtt) for rtt, _ in voters]
            )
            rtt, best = voters[0]
            radius = rtt_upper_bound_km(rtt) + engine.SITE_SLACK_KM
            assert list(shortlist) == [
                site
                for site in engine._sites
                if great_circle_km(best.lat, best.lon, site.lat, site.lon)
                <= radius
            ]
            checked.append(shortlist)
            return joint_scores(shortlist, distances, bounds, expected)

        monkeypatch.setattr(engine, "_joint_scores", scoring)
        for address in _server_ips(small_world, 200):
            measured[:] = _measured(small_world, engine, address)
            engine.geolocate(address)
        assert len(checked) == 200

    def test_joint_scores_equal_site_by_site_reference(
        self, small_world, monkeypatch
    ):
        engine = campaign_engine(small_world)
        checked = []
        joint_scores = engine._joint_scores

        def scoring(*args):
            scores = joint_scores(*args)
            assert _bits(scores) == _bits(
                reference_joint_scores(engine, *args)
            )
            checked.append(len(scores))
            return scores

        monkeypatch.setattr(engine, "_joint_scores", scoring)
        for address in _server_ips(small_world, 300):
            engine.geolocate(address)
        assert len(checked) == 300
        assert max(checked) > 1

    def test_one_site_shortlist(self, monkeypatch):
        # Two probes on the equator 120 degrees apart, country centroids
        # far from both: a target beside the first probe shortlists that
        # probe's own site alone, where itemgetter returns a scalar.
        registry = CountryRegistry([
            Country("AA", "A", "AF", False, 1.0, 10.0, 40.0, 60.0),
            Country("BB", "B", "AS", False, 1.0, 10.0, -40.0, -60.0),
        ])
        mesh = ProbeMesh(
            [Probe(0, "AA", 0.0, 0.0), Probe(1, "BB", 0.0, 120.0)]
        )

        class Oracle:
            @staticmethod
            def coordinates(address):
                return (0.0, 0.5)

        engine = IPmapEngine(
            mesh, Oracle(), registry, GeolocationConfig(), RngStreams(28),
            campaign_seed=28,
        )
        seen = []
        joint_scores = engine._joint_scores

        def scoring(shortlist, distances, bounds, expected):
            seen.append((list(shortlist), [list(row) for row in distances]))
            scores = joint_scores(shortlist, distances, bounds, expected)
            assert scores == reference_joint_scores(
                engine, shortlist, distances, bounds, expected
            )
            return scores

        monkeypatch.setattr(engine, "_joint_scores", scoring)
        estimate = engine.geolocate(IPAddress.parse("192.0.2.1"))
        assert seen == [([engine._sites[0]], [[0.0], [
            great_circle_km(0.0, 120.0, 0.0, 0.0)
        ]])]
        assert estimate.country == "AA"
        assert estimate.votes == (("AA", 2),)

    def test_pinned_estimates(self, small_world):
        engine = campaign_engine(small_world)
        lines = []
        for address in _server_ips(small_world, 300):
            estimate = engine.geolocate(address)
            lines.append(repr((
                str(address),
                engine.locate(address),
                estimate.country_agreement,
                estimate.region_agreement,
                estimate.votes,
            )))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.PINNED_ESTIMATES

    def test_built_at_first_campaign_and_shared(self, small_config):
        world = build_world(small_config)
        assert world.probes._distance_rows is None
        first, second, third = _server_ips(world, 3)
        engine = campaign_engine(world)
        assert world.probes._distance_rows is None
        engine.geolocate(first)
        rows = world.probes._distance_rows[1]
        other = campaign_engine(world)
        other.geolocate(second)
        world.ipmap.geolocate(third)
        assert engine._rows is rows
        assert other._rows is rows
        assert world.ipmap._rows is rows
        assert world.probes._distance_rows[1] is rows

    def test_threads_match_serial_estimates(self, small_config, small_world):
        addresses = _server_ips(small_world, 160)
        reference = campaign_engine(small_world)
        serial = [reference.geolocate(address) for address in addresses]
        world = build_world(small_config)
        halves = (addresses[:80], addresses[80:])
        results = {}

        def geolocate(half):
            engine = campaign_engine(world)
            results[half] = [
                engine.geolocate(address) for address in halves[half]
            ]

        threads = [
            threading.Thread(target=geolocate, args=(half,))
            for half in (0, 1)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results[0] + results[1] == serial

    def test_classification_run_builds_no_rows(
        self, small_config, monkeypatch
    ):
        calls = []
        distance_rows = ProbeMesh.distance_rows

        def counting(mesh, sites):
            calls.append(len(sites))
            return distance_rows(mesh, sites)

        monkeypatch.setattr(ProbeMesh, "distance_rows", counting)
        run = run_study(small_config, workers=1, targets=("classification",))
        assert run.cache_misses > 0
        assert calls == []

    def test_cold_geolocation_distance_evaluations(
        self, small_config, monkeypatch
    ):
        # Per world: one distance per (probe, site) pair, built once.
        # Per campaign: one per sampled probe, to the target.  The rows
        # are dropped first, so their build is counted too.
        world = cached_build_world(small_config)
        monkeypatch.setattr(world.probes, "_distance_rows", None)
        calls = []

        def counting(lat1, lon1, lat2, lon2):
            calls.append(None)
            return great_circle_km(lat1, lon1, lat2, lon2)

        def counting_row(lat, lon, points):
            row = great_circle_row_km(lat, lon, points)
            calls.extend([None] * len(row))
            return row

        for module in (ipmap_module, probes_module):
            if hasattr(module, "great_circle_km"):
                monkeypatch.setattr(module, "great_circle_km", counting)
            if hasattr(module, "great_circle_row_km"):
                monkeypatch.setattr(
                    module, "great_circle_row_km", counting_row
                )
        run = run_study(small_config, workers=1, targets=("geolocation",))
        addresses = len(run.products["geolocation"]["table"])
        sites = len(next(iter(world.probes._distance_rows[1].values())))
        probes_per_campaign = small_config.geolocation.probes_per_campaign
        assert 0 < len(calls) <= (
            len(world.probes) * sites + probes_per_campaign * addresses
        )


class TestCommercialDatabases:
    def test_eyeball_prefixes_correct(self, small_world):
        plan = small_world.plan
        maxmind = small_world.maxmind
        for record in plan.records_for(kind="eyeball"):
            assert maxmind.prefix_country(record.prefix) == record.country

    def test_infrastructure_biased_to_seat(self, small_world):
        """Most hosting prefixes of US-seated organizations are mapped
        to the US regardless of their true country."""
        plan = small_world.plan
        maxmind = small_world.maxmind
        us_seat_orgs = {
            o.name
            for o in small_world.organizations
            if o.legal_country == "US"
        }
        wrong = total = 0
        for record in plan.records_for(kind="hosting"):
            if record.owner in us_seat_orgs and record.country != "US":
                total += 1
                if maxmind.prefix_country(record.prefix) == "US":
                    wrong += 1
        assert total > 0
        bias = small_world.config.geolocation.commercial_legal_seat_bias
        assert abs(wrong / total - bias) < 0.12

    def test_ip_api_mostly_agrees_with_maxmind(self, small_world):
        plan = small_world.plan
        agree = total = 0
        for record in plan.records():
            total += 1
            if small_world.ip_api.prefix_country(
                record.prefix
            ) == small_world.maxmind.prefix_country(record.prefix):
                agree += 1
        assert agree / total > 0.9

    def test_locate_requires_plan(self):
        database = CommercialGeoDatabase("x", {})
        with pytest.raises(RuntimeError):
            database.locate(IPAddress.parse("1.2.3.4"))

    def test_locate_unknown_space(self, small_world):
        assert small_world.maxmind.locate(
            IPAddress.parse("203.0.113.7")
        ) is None


class TestCompare:
    def test_agreement_matrix_diagonal_is_100(self):
        addresses = [IPAddress.v4(i) for i in range(10)]
        locators = {
            "a": lambda ip: "DE",
            "b": lambda ip: "FR" if int(ip) % 2 else "DE",
        }
        matrix = agreement_matrix(addresses, locators)
        assert matrix[("a", "a")].country_pct == 100.0
        assert matrix[("a", "b")].country_pct == 50.0
        # DE and FR share the EU28 region.
        assert matrix[("a", "b")].region_pct == 100.0

    def test_agreement_symmetric(self):
        addresses = [IPAddress.v4(i) for i in range(10)]
        locators = {
            "a": lambda ip: "DE",
            "b": lambda ip: "US" if int(ip) % 3 else "DE",
        }
        matrix = agreement_matrix(addresses, locators)
        assert matrix[("a", "b")] == matrix[("b", "a")]

    def test_agreement_skips_none(self):
        addresses = [IPAddress.v4(i) for i in range(4)]
        locators = {
            "a": lambda ip: None if int(ip) == 0 else "DE",
            "b": lambda ip: "DE",
        }
        matrix = agreement_matrix(addresses, locators)
        assert matrix[("a", "b")].country_pct == 100.0

    def test_misgeolocation_report(self):
        addresses = [IPAddress.v4(i) for i in range(4)]
        counts = {ip: 10 for ip in addresses}
        row = misgeolocation_report(
            org_label="acme",
            addresses=addresses,
            request_counts=counts,
            tested=lambda ip: "US",
            reference=lambda ip: "DE" if int(ip) < 2 else "US",
        )
        assert row.n_ips == 4
        assert row.wrong_country_ips == 2
        assert row.wrong_country_ip_pct == 50.0
        assert row.wrong_country_requests == 20
        assert row.wrong_region_ips == 2

    def test_misgeolocation_empty(self):
        row = misgeolocation_report(
            "none", [], {}, lambda ip: None, lambda ip: None
        )
        assert row.n_ips == 0
        assert row.wrong_country_ip_pct == 0.0
