"""Tests for repro.geodata: countries, regions, distance/latency model."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import GeoDataError
from repro.geodata.countries import (
        Country,
    CountryRegistry,
    default_registry)
from repro.geodata.distance import (
                great_circle_km,
    great_circle_row_km,
    min_rtt_ms,
    propagation_floor_ms,
    row_point,
    rtt_upper_bound_km)
from repro.geodata.regions import (
    Region,
    in_gdpr_jurisdiction,
    region_of,
    region_of_country,
    same_country,
    same_region,
)


class TestCountryRegistry:
    def test_eu28_has_28_members(self):
        assert len(default_registry().eu28()) == 28

    def test_uk_is_eu28_in_2018(self):
        assert default_registry().get("GB").eu28 is True

    def test_switzerland_not_eu28(self):
        assert default_registry().get("CH").eu28 is False
        assert default_registry().get("CH").continent == "EU"

    def test_unknown_code_raises(self):
        with pytest.raises(GeoDataError):
            default_registry().get("XX")

    def test_find_returns_none_for_unknown(self):
        assert default_registry().find("XX") is None

    def test_contains(self):
        assert "DE" in default_registry()
        assert "XX" not in default_registry()

    def test_iteration_sorted(self):
        codes = [c.iso2 for c in default_registry()]
        assert codes == sorted(codes)

    def test_in_continent(self):
        na = default_registry().in_continent("NA")
        assert all(c.continent == "NA" for c in na)
        assert any(c.iso2 == "US" for c in na)

    def test_in_unknown_continent_raises(self):
        with pytest.raises(GeoDataError):
            default_registry().in_continent("XX")

    def test_duplicate_country_rejected(self):
        country = default_registry().get("DE")
        with pytest.raises(GeoDataError):
            CountryRegistry([country, country])

    def test_country_validation_continent(self):
        with pytest.raises(GeoDataError):
            Country("ZZ", "Z", "XX", False, 1.0, 1.0, 0.0, 0.0)

    def test_country_validation_eu28_must_be_europe(self):
        with pytest.raises(GeoDataError):
            Country("ZZ", "Z", "NA", True, 1.0, 1.0, 0.0, 0.0)

    def test_country_validation_infra_range(self):
        with pytest.raises(GeoDataError):
            Country("ZZ", "Z", "EU", False, 1.0, 150.0, 0.0, 0.0)

    def test_jitter_radius_small_country_small(self):
        registry = default_registry()
        assert (
            registry.get("CY").jitter_radius_deg
            < registry.get("DE").jitter_radius_deg
        )
        assert registry.get("US").jitter_radius_deg <= 1.5

    def test_infra_index_ordering_matches_paper_narrative(self):
        registry = default_registry()
        # Germany/UK/Netherlands dense; Cyprus/Greece sparse.
        assert registry.get("DE").infra_index > registry.get("GR").infra_index
        assert registry.get("GB").infra_index > registry.get("CY").infra_index


class TestRegions:
    def test_eu28_region(self):
        assert region_of_country("DE") is Region.EU28

    def test_rest_of_europe(self):
        assert region_of_country("CH") is Region.REST_EUROPE
        assert region_of_country("RU") is Region.REST_EUROPE

    def test_continent_regions(self):
        assert region_of_country("US") is Region.NORTH_AMERICA
        assert region_of_country("BR") is Region.SOUTH_AMERICA
        assert region_of_country("JP") is Region.ASIA
        assert region_of_country("ZA") is Region.AFRICA
        assert region_of_country("AU") is Region.OCEANIA

    def test_none_maps_to_unknown(self):
        assert region_of_country(None) is Region.UNKNOWN

    def test_unknown_code_raises(self):
        with pytest.raises(GeoDataError):
            region_of_country("XX")

    def test_region_of_matches_region_of_country(self):
        for country in default_registry():
            assert region_of(country) is region_of_country(country.iso2)

    def test_region_table_maps_every_code(self):
        registry = default_registry()
        assert sorted(registry.regions) == registry.codes()
        for code in registry.codes():
            region = region_of(registry.get(code))
            assert registry.regions[code] is region
            assert region_of_country(code, registry) is region

    def test_region_table_is_the_given_registry(self):
        # A registry's table holds its own countries: a code it lacks
        # raises even when the default registry knows it.
        registry = CountryRegistry([default_registry().get("CH")])
        assert registry.regions == {"CH": Region.REST_EUROPE}
        assert region_of_country("CH", registry) is Region.REST_EUROPE
        with pytest.raises(GeoDataError):
            region_of_country("DE", registry)

    def test_same_country(self):
        assert same_country("DE", "DE")
        assert not same_country("DE", "FR")
        assert not same_country(None, None)

    def test_same_region(self):
        assert same_region("DE", "FR")
        assert not same_region("DE", "CH")  # EU28 vs rest-of-Europe!
        assert not same_region("DE", None)

    def test_gdpr_jurisdiction(self):
        assert in_gdpr_jurisdiction("GB")
        assert not in_gdpr_jurisdiction("CH")
        assert not in_gdpr_jurisdiction(None)


class TestDistance:
    def test_zero_distance(self):
        assert great_circle_km(50, 10, 50, 10) == pytest.approx(0.0)

    def test_known_distance_berlin_paris(self):
        # Berlin (52.52, 13.41) to Paris (48.86, 2.35) is about 880 km.
        distance = great_circle_km(52.52, 13.41, 48.86, 2.35)
        assert 850 < distance < 910

    def test_antipodal_is_half_circumference(self):
        distance = great_circle_km(0, 0, 0, 180)
        assert distance == pytest.approx(math.pi * 6371.0, rel=1e-3)

    def test_symmetry(self):
        assert great_circle_km(10, 20, 30, 40) == pytest.approx(
            great_circle_km(30, 40, 10, 20)
        )

    def test_propagation_floor(self):
        assert propagation_floor_ms(200.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            propagation_floor_ms(-1)

    def test_rtt_upper_bound_inverts_floor(self):
        distance = 1234.0
        assert rtt_upper_bound_km(
            propagation_floor_ms(distance)
        ) == pytest.approx(distance)
        with pytest.raises(ValueError):
            rtt_upper_bound_km(-1)

    def test_min_rtt_deterministic_without_rng(self):
        assert min_rtt_ms(1000.0) == min_rtt_ms(1000.0)

    def test_min_rtt_never_below_floor(self):
        rng = random.Random(0)
        for _ in range(200):
            distance = rng.uniform(0, 15000)
            rtt = min_rtt_ms(distance, rng)
            assert rtt >= propagation_floor_ms(distance)


def _bits(values):
    return [value.hex() for value in values]


def _antipode(lat, lon):
    return (-lat, lon + 180.0 if lon <= 0.0 else lon - 180.0)


class TestRowKernel:
    """``great_circle_row_km`` gives ``great_circle_km``'s floats bit
    for bit, from the origin to each point (the mesh rows' order) and
    from each point to the origin (a campaign's target row)."""

    #: identical points, antipodes, both poles and both sides of the
    #: antimeridian pair up among these
    EDGE_POINTS = [
        (0.0, 0.0), (0.0, 180.0), (0.0, -180.0), (90.0, 0.0),
        (-90.0, 0.0), (90.0, -180.0), (-90.0, 180.0), (45.0, -90.0),
        (-45.0, 90.0), (52.52, 13.41), (-52.52, -166.59), (12.0, 179.99),
        (-12.0, -0.01), (89.999, -179.999), (-89.999, 0.001),
    ]

    @staticmethod
    def assert_rows_match(origins, points):
        row_points = [row_point(lat, lon) for lat, lon in points]
        for lat, lon in origins:
            row = _bits(great_circle_row_km(lat, lon, row_points))
            assert row == _bits(
                great_circle_km(lat, lon, p_lat, p_lon)
                for p_lat, p_lon in points
            )
            assert row == _bits(
                great_circle_km(p_lat, p_lon, lat, lon)
                for p_lat, p_lon in points
            )

    def test_random_points(self):
        rng = random.Random(28)
        points = [
            (rng.uniform(-90, 90), rng.uniform(-180, 180))
            for _ in range(400)
        ]
        self.assert_rows_match(points[:100], points)

    def test_edge_points(self):
        self.assert_rows_match(self.EDGE_POINTS, self.EDGE_POINTS)

    def test_identical_points_are_zero_apart(self):
        for lat, lon in self.EDGE_POINTS:
            assert great_circle_row_km(lat, lon, [row_point(lat, lon)]) == [
                0.0
            ]

    def test_antipodes_take_the_clamp(self):
        # The haversine term reaches 1.0 at these antipodes, so the
        # clamp's branch gives the value: half the circumference.
        half = 2.0 * 6371.0 * math.asin(1.0)
        for lat, lon in ((0.0, 0.0), (45.0, -90.0), (-12.0, 169.0)):
            point = row_point(*_antipode(lat, lon))
            assert great_circle_row_km(lat, lon, [point]) == [half]
            assert great_circle_km(lat, lon, *_antipode(lat, lon)) == half

    def test_empty_row(self):
        assert great_circle_row_km(10.0, 20.0, []) == []


@given(
    st.floats(min_value=-90, max_value=90),
    st.floats(min_value=-180, max_value=180),
    st.floats(min_value=-90, max_value=90),
    st.floats(min_value=-180, max_value=180),
)
def test_row_kernel_matches_pair_property(lat1, lon1, lat2, lon2):
    row = great_circle_row_km(lat1, lon1, [row_point(lat2, lon2)])
    assert _bits(row) == _bits([great_circle_km(lat1, lon1, lat2, lon2)])
    assert _bits(row) == _bits([great_circle_km(lat2, lon2, lat1, lon1)])


@given(
    st.floats(min_value=-90, max_value=90),
    st.floats(min_value=-180, max_value=180),
    st.floats(min_value=-90, max_value=90),
    st.floats(min_value=-180, max_value=180),
)
def test_distance_bounds_property(lat1, lon1, lat2, lon2):
    distance = great_circle_km(lat1, lon1, lat2, lon2)
    assert 0 <= distance <= math.pi * 6371.0 + 1e-6


@given(
    st.floats(min_value=0, max_value=20000),
    st.integers(min_value=0, max_value=2**31),
)
def test_rtt_upper_bound_always_covers_true_distance(distance, seed):
    """The hard bound derived from any sampled RTT contains the truth."""
    rng = random.Random(seed)
    rtt = min_rtt_ms(distance, rng)
    assert rtt_upper_bound_km(rtt) >= distance - 1e-9
