"""Tests for repro.dnssim: records, authority, resolver, passive DNS."""

import hashlib
import random
import sys
import threading
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

import repro.dnssim.authority as authority_module
from repro.datasets.builder import build_world, cached_build_world
from repro.dnssim.authority import (
    AuthorityDirectory,
    ClientSite,
    FqdnService,
    SelectionPolicy,
    Zone,
    zone_apex_of,
)
from repro.dnssim.passive import PassiveDNSDatabase, PassiveRecord
from repro.dnssim.records import DNSAnswer, ResourceRecord, RRType
from repro.dnssim.resolver import (
    PublicResolver,
    RecursiveResolver,
    default_public_resolvers,
)
from repro.errors import DNSError, NXDomainError
from repro.geodata.countries import default_registry
from repro.geodata.distance import great_circle_km, great_circle_row_km
from repro.netbase.addr import IPAddress
from repro.runtime import run_study
from repro.runtime.stages import panel_plan, panel_run


@dataclass(frozen=True)
class FakeEndpoint:
    ip: IPAddress
    country: str
    lat: float
    lon: float


def endpoint(ip_text: str, country: str, lat: float, lon: float):
    return FakeEndpoint(IPAddress.parse(ip_text), country, lat, lon)


BERLIN = ClientSite("DE", 52.52, 13.41)
MADRID = ClientSite("ES", 40.42, -3.70)
SAO_PAULO = ClientSite("BR", -23.55, -46.63)

DE_SERVER = endpoint("1.0.0.1", "DE", 52.5, 13.4)
ES_SERVER = endpoint("1.0.0.2", "ES", 40.4, -3.7)
US_SERVER = endpoint("1.0.0.3", "US", 38.9, -77.0)


class TestRecords:
    def test_rrtype_for_address(self):
        assert RRType.for_address(IPAddress.parse("1.2.3.4")) is RRType.A
        assert RRType.for_address(IPAddress.parse("::1")) is RRType.AAAA

    def test_resource_record_validation(self):
        with pytest.raises(DNSError):
            ResourceRecord("x.example", RRType.A, "1.2.3.4", -1)
        with pytest.raises(DNSError):
            ResourceRecord("UPPER.example", RRType.A, "1.2.3.4", 60)

    def test_answer_rtype(self):
        answer = DNSAnswer(
            "a.example", IPAddress.parse("1.2.3.4"), 300, "DE", "DE"
        )
        assert answer.rtype is RRType.A


class TestFqdnService:
    def test_requires_endpoints(self):
        with pytest.raises(DNSError):
            FqdnService(fqdn="a.example", endpoints=[])

    def test_weights_length_checked(self):
        with pytest.raises(DNSError):
            FqdnService(
                fqdn="a.example", endpoints=[DE_SERVER], weights=[1.0, 2.0]
            )

    def test_nearest_picks_closest(self):
        service = FqdnService(
            fqdn="a.example",
            endpoints=[DE_SERVER, ES_SERVER, US_SERVER],
            policy=SelectionPolicy.NEAREST,
        )
        assert service.select(BERLIN) is DE_SERVER
        assert service.select(MADRID) is ES_SERVER

    def test_home_picks_first(self):
        service = FqdnService(
            fqdn="a.example",
            endpoints=[ES_SERVER, DE_SERVER],
            policy=SelectionPolicy.HOME,
        )
        assert service.select(BERLIN) is ES_SERVER

    def test_weighted_geofence_keeps_continent(self):
        service = FqdnService(
            fqdn="a.example",
            endpoints=[DE_SERVER, ES_SERVER, US_SERVER],
            policy=SelectionPolicy.WEIGHTED,
        )
        rng = random.Random(0)
        picks = [service.select(BERLIN, rng) for _ in range(300)]
        us_share = sum(1 for p in picks if p is US_SERVER) / len(picks)
        # The geofence keeps most (but not all) answers in Europe.
        assert us_share < (1 - service.GEOFENCE_PROBABILITY) * 0.6 + 0.1

    def test_weighted_uncovered_continent_fences_to_nearest(self):
        service = FqdnService(
            fqdn="a.example",
            endpoints=[DE_SERVER, ES_SERVER, US_SERVER],
            policy=SelectionPolicy.WEIGHTED,
        )
        rng = random.Random(1)
        picks = [service.select(SAO_PAULO, rng) for _ in range(300)]
        us_share = sum(1 for p in picks if p is US_SERVER) / len(picks)
        # South America has no endpoint; fenced answers ride the nearest
        # continent (North America).
        assert us_share > 0.6

    def test_countries_sorted_unique(self):
        service = FqdnService(
            fqdn="a.example", endpoints=[US_SERVER, DE_SERVER, DE_SERVER]
        )
        assert service.countries() == ["DE", "US"]


def continent_of(iso2):
    country = default_registry().find(iso2)
    return country.continent if country is not None else iso2


def reference_select(service, client, rng):
    """``FqdnService.select`` computed from scratch on every query, as it
    was before services memoized their answer geometry."""
    if service.policy is SelectionPolicy.NEAREST:
        return min(
            service.endpoints,
            key=lambda e: (
                great_circle_km(client.lat, client.lon, e.lat, e.lon),
                int(e.ip),
            ),
        )
    if service.policy is SelectionPolicy.HOME:
        return service.endpoints[0]
    candidates = service.endpoints
    candidate_weights = service.weights or [1.0] * len(service.endpoints)
    if rng.random() < service.GEOFENCE_PROBABILITY:
        client_continent = continent_of(client.country)
        fenced = [
            (endpoint, weight)
            for endpoint, weight in zip(candidates, candidate_weights)
            if continent_of(endpoint.country) == client_continent
        ]
        if not fenced:
            nearest = min(
                service.endpoints,
                key=lambda e: great_circle_km(
                    client.lat, client.lon, e.lat, e.lon
                ),
            )
            nearest_continent = continent_of(nearest.country)
            fenced = [
                (endpoint, weight)
                for endpoint, weight in zip(candidates, candidate_weights)
                if continent_of(endpoint.country) == nearest_continent
            ]
        if fenced:
            candidates = [endpoint for endpoint, _ in fenced]
            candidate_weights = [weight for _, weight in fenced]
    total = sum(candidate_weights)
    point = rng.random() * total
    cumulative = 0.0
    for endpoint, weight in zip(candidates, candidate_weights):
        cumulative += weight
        if point <= cumulative:
            return endpoint
    return candidates[-1]


def fresh_twin(service):
    """A copy of ``service`` that has memoized no answer."""
    return FqdnService(
        fqdn=service.fqdn,
        endpoints=service.endpoints,
        policy=service.policy,
        ttl=service.ttl,
        weights=service.weights,
    )


def forget_answers(world):
    """Reset every service of ``world`` to a fresh twin's state."""
    for deployed in world.fleet.fqdns():
        vars(deployed.service).update(vars(fresh_twin(deployed.service)))


#: endpoint countries per continent; "ZZ" is in no registry, so it
#: forms a continent bucket of its own
ENDPOINT_COUNTRIES = {
    "EU": ("DE", "FR", "NL"),
    "NA": ("US", "CA"),
    "AS": ("SG", "JP"),
}

#: endpoint coordinates, drawn with repetition so endpoints tie on
#: distance and NEAREST falls back to the lower IP
COORDINATES = (
    (50.11, 8.68),
    (48.86, 2.35),
    (52.37, 4.90),
    (39.04, -77.49),
    (37.77, -122.42),
    (43.65, -79.38),
    (1.35, 103.82),
)

#: vantage sites: two or three per country code for DE and US (hub and
#: public-resolver sites), clients on continents no endpoint covers,
#: and a country code no registry knows
CLIENT_SITES = (
    ClientSite("DE", 50.11, 8.68),
    ClientSite("DE", 52.52, 13.41),
    ClientSite("US", 39.04, -77.49),
    ClientSite("US", 37.39, -122.08),
    ClientSite("US", 40.71, -74.01),
    ClientSite("NL", 52.37, 4.90),
    ClientSite("SG", 1.35, 103.82),
    ClientSite("BR", -23.55, -46.63),
    ClientSite("AU", -33.87, 151.21),
    ClientSite("ZA", -25.75, 28.19),
    ClientSite("ZZ", 10.0, -30.0),
)


@st.composite
def services(draw):
    continents = draw(
        st.lists(
            st.sampled_from(sorted(ENDPOINT_COUNTRIES)),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    countries = [
        country
        for continent in continents
        for country in ENDPOINT_COUNTRIES[continent]
    ] + ["ZZ"]
    ips = draw(
        st.lists(
            st.integers(min_value=1, max_value=2 ** 32 - 1),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    endpoints = [
        FakeEndpoint(
            IPAddress.v4(ip),
            draw(st.sampled_from(countries)),
            *draw(st.sampled_from(COORDINATES)),
        )
        for ip in ips
    ]
    weights = draw(
        st.none()
        | st.lists(
            st.floats(min_value=0.1, max_value=10.0)
            | st.integers(min_value=1, max_value=5),
            min_size=len(ips),
            max_size=len(ips),
        )
    )
    return FqdnService(
        fqdn="a.example",
        endpoints=endpoints,
        policy=draw(st.sampled_from(list(SelectionPolicy))),
        weights=weights,
    )


class TestAnswerMemos:
    """Services memoize their world-fixed answer geometry; every answer
    and every RNG stream stays that of the computation from scratch."""

    @settings(max_examples=300, deadline=None)
    @given(
        service=services(),
        clients=st.lists(
            st.sampled_from(CLIENT_SITES), min_size=1, max_size=40
        ),
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    def test_select_equals_reference(self, service, clients, seed):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        for client in clients:
            assert service.select(client, rng) is reference_select(
                service, client, reference_rng
            )
        assert rng.getstate() == reference_rng.getstate()
        # Fence entries point at the per-continent groups, never copies.
        if service._fences:
            groups = service._groups[1].values()
            for group in service._fences.values():
                assert any(group is shared for shared in groups)

    def test_memos_stay_out_of_equality(self):
        service = FqdnService(
            fqdn="a.example",
            endpoints=[DE_SERVER, ES_SERVER, US_SERVER],
            policy=SelectionPolicy.WEIGHTED,
        )
        twin = fresh_twin(service)
        rng = random.Random(0)
        for client in CLIENT_SITES * 3:
            service.select(client, rng)
        assert service._fences and not twin._fences
        assert service == twin
        assert repr(service) == repr(twin)

    def test_threads_match_serial_reference(self, small_world):
        deployed = small_world.fleet.fqdns()
        clients = [
            ClientSite(code, *small_world.registry.get(code).hosting_site)
            for code in small_world.registry.codes()
        ] + [
            site
            for resolver in default_public_resolvers()
            for site in resolver.sites
        ]
        rng = random.Random(19)
        serial = [
            reference_select(d.service, client, rng)
            for d in deployed
            for client in clients
        ]
        shared = [fresh_twin(d.service) for d in deployed]
        results = {}

        def answer(index):
            rng = random.Random(19)
            results[index] = [
                service.select(client, rng)
                for service in shared
                for client in clients
            ]

        threads = [
            threading.Thread(target=answer, args=(index,))
            for index in range(6)
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
        assert sorted(results) == list(range(6))
        for index in range(6):
            assert results[index] == serial


class TestPanelAnswers:
    """The panel's DNS answers on the small world, pinned: Table 2 never
    depends on them, so nothing else would catch a changed server IP."""

    #: sha256 of ``repr([(url, str(ip), truth_country)])`` over the
    #: requests and of ``repr(pdns_pairs)``, every panel shard run in
    #: plan order; computed before services memoized answer geometry
    PINNED_REQUESTS = (
        "17db5541839ce94e94edf3e8bdf8a3351eb878af4ac7db7b9ab2b547b24cdd2e"
    )
    PINNED_PDNS_PAIRS = (
        "e3dda4bfd8d19e28562da011a623767c9678b203a8a2726babf58d614cc62abb"
    )

    def test_pinned_with_memos_empty_then_filled(self, small_config):
        world = build_world(small_config)
        forget_answers(world)
        for _ in ("empty", "filled"):
            requests, pairs = [], []
            for shard_key, payload in panel_plan(world, {}):
                shard = panel_run(world, {}, shard_key, payload)
                requests.extend(shard["requests"])
                pairs.extend(shard["pdns_pairs"])
            answers = repr(
                [(r.url, str(r.ip), r.truth_country) for r in requests]
            )
            assert (
                hashlib.sha256(answers.encode()).hexdigest(),
                hashlib.sha256(repr(pairs).encode()).hexdigest(),
            ) == (self.PINNED_REQUESTS, self.PINNED_PDNS_PAIRS)

    def test_repeat_run_evaluates_no_distance(
        self, small_config, monkeypatch
    ):
        # A second panel over the same world finds every nearest site
        # and continent fence memoized (188,618 distances each run
        # before the memos).
        forget_answers(cached_build_world(small_config))
        calls = []

        def counting_row(lat, lon, points):
            row = great_circle_row_km(lat, lon, points)
            calls.extend([None] * len(row))
            return row

        monkeypatch.setattr(
            authority_module, "great_circle_row_km", counting_row
        )
        run_study(small_config, workers=1, targets=("classification",))
        assert len(calls) > 0
        calls.clear()
        run = run_study(small_config, workers=1, targets=("classification",))
        assert run.cache_misses > 0
        assert calls == []


class TestZone:
    def _zone(self):
        zone = Zone("example.com", owner="acme")
        zone.add_service(
            FqdnService(fqdn="ads.example.com", endpoints=[DE_SERVER])
        )
        return zone

    def test_membership(self):
        zone = self._zone()
        assert "ads.example.com" in zone
        assert len(zone) == 1

    def test_outside_zone_rejected(self):
        zone = self._zone()
        with pytest.raises(DNSError):
            zone.add_service(
                FqdnService(fqdn="ads.other.com", endpoints=[DE_SERVER])
            )

    def test_missing_name(self):
        with pytest.raises(NXDomainError):
            self._zone().service("nope.example.com")

    def test_answer(self):
        server, ttl = self._zone().answer("ads.example.com", BERLIN)
        assert server is DE_SERVER
        assert ttl == 300

    def test_apex_derivation(self):
        assert zone_apex_of("a.b.example.com") == "example.com"
        with pytest.raises(DNSError):
            zone_apex_of("nodots")


class TestAuthorityDirectory:
    def test_routing_and_nxdomain(self):
        zone = Zone("example.com", owner="acme")
        zone.add_service(
            FqdnService(fqdn="ads.example.com", endpoints=[DE_SERVER])
        )
        directory = AuthorityDirectory([zone])
        assert directory.zone_for("ads.example.com") is zone
        with pytest.raises(NXDomainError):
            directory.zone_for("x.unknown.net")

    def test_duplicate_zone_rejected(self):
        zone = Zone("example.com", owner="acme")
        directory = AuthorityDirectory([zone])
        with pytest.raises(DNSError):
            directory.add(Zone("example.com", owner="other"))


class TestPublicResolver:
    def test_site_for_picks_nearest(self):
        resolver = PublicResolver(
            "r", sites=(ClientSite("US", 38.9, -77.0),
                        ClientSite("NL", 52.37, 4.9)),
        )
        assert resolver.site_for(BERLIN).country == "NL"
        assert resolver.site_for(ClientSite("CA", 45.4, -75.7)).country == "US"

    def test_empty_sites_rejected(self):
        with pytest.raises(DNSError):
            PublicResolver("r", sites=())

    def test_defaults_exist(self):
        resolvers = default_public_resolvers()
        assert len(resolvers) == 3
        assert all(r.sites for r in resolvers)


class TestRecursiveResolver:
    def _setup(self):
        zone = Zone("example.com", owner="acme")
        zone.add_service(
            FqdnService(
                fqdn="ads.example.com",
                endpoints=[DE_SERVER, US_SERVER],
                policy=SelectionPolicy.NEAREST,
            )
        )
        directory = AuthorityDirectory([zone])
        pdns = PassiveDNSDatabase()
        return directory, pdns

    def test_resolution_and_pdns_observation(self):
        directory, pdns = self._setup()
        resolver = RecursiveResolver(directory, [pdns])
        answer = resolver.resolve("ads.example.com", BERLIN, at=3.0)
        assert answer.server_country == "DE"
        assert answer.resolver_country == "DE"
        record = pdns.record("ads.example.com", answer.address)
        assert record is not None and record.first_seen == 3.0

    def test_public_resolver_changes_vantage(self):
        directory, pdns = self._setup()
        public = PublicResolver("r", sites=(ClientSite("US", 38.9, -77.0),))
        resolver = RecursiveResolver(directory, [pdns], public_resolver=public)
        answer = resolver.resolve("ads.example.com", BERLIN, at=0.0)
        assert answer.resolver_country == "US"
        assert answer.server_country == "US"

    def test_nxdomain(self):
        directory, _ = self._setup()
        resolver = RecursiveResolver(directory)
        with pytest.raises(NXDomainError):
            resolver.resolve("x.unknown.net", BERLIN, 0.0)


class TestPassiveDNS:
    def test_windows_widen(self):
        pdns = PassiveDNSDatabase()
        ip = IPAddress.parse("1.0.0.1")
        pdns.observe("a.example.com", ip, 5.0)
        pdns.observe("a.example.com", ip, 2.0)
        pdns.observe("a.example.com", ip, 9.0)
        record = pdns.record("a.example.com", ip)
        assert (record.first_seen, record.last_seen) == (2.0, 9.0)
        assert record.observations == 3

    def test_forward_and_reverse(self):
        pdns = PassiveDNSDatabase()
        a, b = IPAddress.parse("1.0.0.1"), IPAddress.parse("1.0.0.2")
        pdns.observe("a.example.com", a, 1.0)
        pdns.observe("a.example.com", b, 2.0)
        pdns.observe("b.other.net", a, 3.0)
        assert {r.address for r in pdns.forward("a.example.com")} == {a, b}
        assert {r.name for r in pdns.reverse(a)} == {
            "a.example.com", "b.other.net",
        }

    def test_window_filtering(self):
        pdns = PassiveDNSDatabase()
        ip = IPAddress.parse("1.0.0.1")
        pdns.observe("a.example.com", ip, 10.0)
        assert pdns.forward("a.example.com", window=(0.0, 5.0)) == []
        assert len(pdns.forward("a.example.com", window=(5.0, 15.0))) == 1

    def test_bad_window_raises(self):
        record = PassiveRecord("a", IPAddress.parse("1.0.0.1"), 1, 2, 1)
        with pytest.raises(DNSError):
            record.active_during(5.0, 1.0)

    def test_active_at(self):
        record = PassiveRecord("a", IPAddress.parse("1.0.0.1"), 1.0, 2.0, 1)
        assert record.active_at(1.5)
        assert not record.active_at(3.0)

    def test_domains_behind_uses_tld1(self):
        pdns = PassiveDNSDatabase()
        ip = IPAddress.parse("1.0.0.1")
        pdns.observe("sync.a.example", ip, 1.0)
        pdns.observe("px.a.example", ip, 1.0)
        pdns.observe("x.b.example", ip, 1.0)
        assert pdns.domains_behind(ip) == {"a.example", "b.example"}

    def test_merge(self):
        first, second = PassiveDNSDatabase(), PassiveDNSDatabase()
        ip = IPAddress.parse("1.0.0.1")
        first.observe("a.example.com", ip, 5.0)
        second.observe("a.example.com", ip, 1.0)
        second.observe("b.example.com", ip, 2.0)
        first.merge(second)
        record = first.record("a.example.com", ip)
        assert (record.first_seen, record.last_seen) == (1.0, 5.0)
        assert len(first.reverse(ip)) == 2

    def test_empty_name_rejected(self):
        with pytest.raises(DNSError):
            PassiveDNSDatabase().observe("", IPAddress.parse("1.0.0.1"), 0.0)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a.x.com", "b.x.com", "c.y.net"]),
            st.integers(min_value=0, max_value=3),
            st.floats(min_value=0, max_value=300),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_pdns_window_consistency_property(observations):
    """first_seen <= last_seen, and both are observed timestamps."""
    pdns = PassiveDNSDatabase()
    per_pair = {}
    for name, ip_index, at in observations:
        ip = IPAddress.v4(ip_index)
        pdns.observe(name, ip, at)
        per_pair.setdefault((name, ip), []).append(at)
    for (name, ip), times in per_pair.items():
        record = pdns.record(name, ip)
        assert record.first_seen == min(times)
        assert record.last_seen == max(times)
        assert record.observations == len(times)
