"""Tests for repro.netflow: records, exporter, traffic, join."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SNAPSHOT_DAYS
from repro.dnssim.passive import PassiveDNSDatabase
from repro.errors import NetFlowError
from repro.netbase.addr import IPAddress, Prefix
from repro.netflow.exporter import FlowExporter, PacketSampler, RouterInterface
from repro.netflow.isps import AccessType, ISPProfile, default_isps
from repro.netflow.join import HashedIPMatcher, TrackerFlowJoin
from repro.netflow.records import PROTO_TCP, PROTO_UDP, FlowRecord
from repro.web.browser import MappingService


def make_record(src="10.0.0.1", dst="1.0.0.1", dst_port=443,
                protocol=PROTO_TCP, timestamp=1.0):
    return FlowRecord(
        timestamp=timestamp,
        router_id=1,
        interface_id=0,
        protocol=protocol,
        src_ip=IPAddress.parse(src),
        dst_ip=IPAddress.parse(dst),
        src_port=40000,
        dst_port=dst_port,
        tos=0,
        sampled_packets=2,
        sampled_bytes=1200,
    )


class TestFlowRecord:
    def test_web_detection(self):
        assert make_record(dst_port=443).is_web
        assert make_record(dst_port=80).is_web
        assert not make_record(dst_port=8080).is_web

    def test_encrypted_detection(self):
        assert make_record(dst_port=443).is_encrypted
        assert not make_record(dst_port=80).is_encrypted
        assert make_record(dst_port=443, protocol=PROTO_UDP).is_encrypted

    def test_unsupported_protocol(self):
        with pytest.raises(NetFlowError):
            make_record(protocol=1)

    def test_port_range(self):
        with pytest.raises(NetFlowError):
            make_record(dst_port=70000)

    def test_positive_counters(self):
        with pytest.raises(NetFlowError):
            FlowRecord(
                timestamp=0, router_id=1, interface_id=0,
                protocol=PROTO_TCP,
                src_ip=IPAddress.parse("10.0.0.1"),
                dst_ip=IPAddress.parse("1.0.0.1"),
                src_port=1, dst_port=2, tos=0,
                sampled_packets=0, sampled_bytes=1,
            )


class TestPacketSampler:
    def test_rate_one_is_identity(self):
        sampler = PacketSampler(1)
        assert sampler.sample_count(17, random.Random(0)) == 17

    def test_invalid_rate(self):
        with pytest.raises(NetFlowError):
            PacketSampler(0)

    def test_negative_packets(self):
        with pytest.raises(NetFlowError):
            PacketSampler(10).sample_count(-1, random.Random(0))

    def test_estimator_scales(self):
        assert PacketSampler(1000).estimate_total(12) == 12000

    def test_estimator_unbiased_small_flows(self):
        """Horvitz–Thompson estimate averages to the true count."""
        sampler = PacketSampler(10)
        rng = random.Random(42)
        true_packets = 30
        estimates = [
            sampler.estimate_total(sampler.sample_count(true_packets, rng))
            for _ in range(4000)
        ]
        mean = sum(estimates) / len(estimates)
        assert abs(mean - true_packets) < 2.0

    def test_estimator_unbiased_large_flows(self):
        sampler = PacketSampler(100)
        rng = random.Random(7)
        true_packets = 5000
        estimates = [
            sampler.estimate_total(sampler.sample_count(true_packets, rng))
            for _ in range(2000)
        ]
        mean = sum(estimates) / len(estimates)
        assert abs(mean - true_packets) / true_packets < 0.05


class TestFlowExporter:
    def _exporter(self):
        return FlowExporter(
            interfaces=[
                RouterInterface(1, 0, internal_edge=True),
                RouterInterface(1, 1, internal_edge=False),
            ],
            subscriber_space=[Prefix.parse("10.0.0.0/8")],
            sampler=PacketSampler(100),
        )

    def test_requires_internal_interface(self):
        with pytest.raises(NetFlowError):
            FlowExporter(
                interfaces=[RouterInterface(1, 0, internal_edge=False)],
                subscriber_space=[],
                sampler=PacketSampler(1),
            )

    def test_ingress_filtering_drops_spoofed(self):
        exporter = self._exporter()
        legitimate = make_record(src="10.1.2.3")
        spoofed = make_record(src="99.9.9.9", dst="99.9.9.8")
        exported = list(exporter.export([legitimate, spoofed]))
        assert exported == [legitimate]

    def test_pick_interface_internal_only(self):
        exporter = self._exporter()
        rng = random.Random(0)
        assert all(
            exporter.pick_interface(rng).internal_edge for _ in range(20)
        )


class TestISPProfiles:
    def test_table7_profiles(self):
        isps = {isp.name: isp for isp in default_isps()}
        assert isps["DE-Broadband"].country == "DE"
        assert isps["DE-Mobile"].is_mobile
        assert isps["PL"].access is AccessType.MIXED
        assert isps["HU"].subscribers_m >= 6.0

    def test_egress_mix_defaults_to_home(self):
        isp = ISPProfile(
            name="x", country="DE", access=AccessType.MOBILE,
            subscribers_m=1.0, demographics="", web_activity=1.0,
        )
        assert isp.resolved_egress_mix() == {"DE": 1.0}

    def test_hu_egresses_via_vienna(self):
        hu = next(i for i in default_isps() if i.name == "HU")
        assert hu.resolved_egress_mix().get("AT", 0) > 0.5


def _snapshot(world, isp_name, snapshot):
    """One snapshot drawn as an ISP shard draws it: from a stream of its
    own, resolving through a private mapping clone."""
    streams = world.streams.spawn(f"runtime:isp:{isp_name}")
    mapping = MappingService(
        world.fleet,
        world.registry,
        PassiveDNSDatabase(name=f"test-{isp_name}"),
        streams,
    )
    return world.synthesizers[isp_name].snapshot(
        SNAPSHOT_DAYS[snapshot],
        rng=streams.fork(f"snapshot:{snapshot}"),
        mapping=mapping,
    )


class TestTrafficSynthesizer:
    def test_snapshot_shape(self, small_world):
        records = _snapshot(small_world, "DE-Broadband", "April 4")
        expected = (
            small_world.config.isp.sampled_flows["DE-Broadband"]
            + small_world.config.isp.background_flows
        )
        assert len(records) == expected
        timestamps = [r.timestamp for r in records]
        assert timestamps == sorted(timestamps)
        day = SNAPSHOT_DAYS["April 4"]
        assert all(day <= t <= day + 1 for t in timestamps)

    def test_port_mix_matches_paper(self, small_world):
        records = _snapshot(small_world, "DE-Broadband", "Nov 8")
        web = sum(1 for r in records if r.is_web)
        encrypted = sum(1 for r in records if r.is_encrypted)
        assert web / len(records) > 0.99
        assert 0.70 < encrypted / len(records) < 0.95

    def test_sources_are_subscribers(self, small_world):
        records = _snapshot(small_world, "HU", "Nov 8")
        prefix = small_world.synthesizers["HU"].subscriber_prefix
        assert all(r.src_ip in prefix for r in records)

    def test_destinations_are_fleet_servers(self, small_world):
        records = _snapshot(small_world, "PL", "Nov 8")
        fleet = small_world.fleet
        for record in records[:200]:
            assert fleet.server_for_ip(record.dst_ip) is not None


class TestHashedIPMatcher:
    def test_membership_via_hash(self):
        matcher = HashedIPMatcher()
        ip = IPAddress.parse("1.2.3.4")
        matcher.add(ip)
        assert matcher.match(ip, at=0.0) == ip
        assert matcher.match(IPAddress.parse("1.2.3.5"), at=0.0) is None

    def test_window_enforced(self):
        matcher = HashedIPMatcher(window_slack_days=0.0)
        ip = IPAddress.parse("1.2.3.4")
        matcher.add(ip, window=(10.0, 20.0))
        assert matcher.match(ip, at=15.0) == ip
        assert matcher.match(ip, at=5.0) is None
        assert matcher.match(ip, at=25.0) is None

    def test_windows_merge(self):
        matcher = HashedIPMatcher(window_slack_days=0.0)
        ip = IPAddress.parse("1.2.3.4")
        matcher.add(ip, window=(0.0, 5.0))
        matcher.add(ip, window=(10.0, 20.0))
        assert matcher.match(ip, at=7.0) == ip  # merged hull

    def test_none_window_means_always(self):
        matcher = HashedIPMatcher(window_slack_days=0.0)
        ip = IPAddress.parse("1.2.3.4")
        matcher.add(ip, window=(0.0, 5.0))
        matcher.add(ip, window=None)
        assert matcher.match(ip, at=999.0) == ip

    def test_invalid_window(self):
        with pytest.raises(NetFlowError):
            HashedIPMatcher().add(IPAddress.parse("1.2.3.4"), window=(5, 1))


class TestTrackerFlowJoin:
    def test_join_counts_and_destinations(self):
        matcher = HashedIPMatcher()
        tracker = IPAddress.parse("1.0.0.1")
        matcher.add(tracker)
        join = TrackerFlowJoin(
            matcher, locate=lambda ip: "DE" if ip == tracker else None
        )
        records = [
            make_record(dst="1.0.0.1"),
            make_record(dst="1.0.0.1", dst_port=80),
            make_record(dst="9.9.9.9"),
        ]
        result = join.join("ISP", "DE", 1.0, records)
        assert result.matched_flows == 2
        assert result.unmatched_flows == 1
        assert result.per_tracker_ip[tracker] == 2
        assert result.destinations == {"DE": 2}
        assert result.web_share() == 1.0
        assert 0 < result.encrypted_share() < 1

    def test_join_checks_both_endpoints(self):
        matcher = HashedIPMatcher()
        tracker = IPAddress.parse("1.0.0.1")
        matcher.add(tracker)
        join = TrackerFlowJoin(matcher, locate=lambda ip: "DE")
        # Tracker appears as the source (server→user direction).
        record = make_record(src="1.0.0.1", dst="10.0.0.9")
        result = join.join("ISP", "DE", 1.0, [record])
        assert result.matched_flows == 1

    def test_unknown_location_bucketed(self):
        matcher = HashedIPMatcher()
        tracker = IPAddress.parse("1.0.0.1")
        matcher.add(tracker)
        join = TrackerFlowJoin(matcher, locate=lambda ip: None)
        result = join.join("ISP", "DE", 1.0, [make_record(dst="1.0.0.1")])
        assert result.destinations == {"unknown": 1}


@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=50)
def test_sample_count_bounded_property(rate, packets, seed):
    sampler = PacketSampler(rate)
    sampled = sampler.sample_count(packets, random.Random(seed))
    assert 0 <= sampled <= packets or (
        packets > 64 and sampled >= 0
    )  # normal approximation may not exceed packets anyway


    def test_window_slack_extends_liveness(self):
        matcher = HashedIPMatcher(window_slack_days=30.0)
        ip = IPAddress.parse("1.2.3.4")
        matcher.add(ip, window=(10.0, 20.0))
        assert matcher.match(ip, at=45.0) == ip
        assert matcher.match(ip, at=55.0) is None

    def test_negative_slack_rejected(self):
        with pytest.raises(NetFlowError):
            HashedIPMatcher(window_slack_days=-1.0)
