"""Great-circle distance and the geodesic latency model.

The active-geolocation substrate (``repro.geoloc``) emulates RIPE
IPmap-style measurements: probes ping a target and the shortest observed
RTT constrains the target's location.  The physics here is the standard
speed-of-light-in-fibre bound: light in glass covers roughly 200 km per
millisecond, and real paths are longer than geodesics, so measured RTTs
sit above ``2 * distance / 200`` with path-stretch and queueing noise on
top.  :func:`min_rtt_ms` produces such an RTT sample.

:func:`great_circle_km` measures one pair.  Where one point is measured
to many — a probe's row of candidate sites, a target's campaign probes,
a client's DNS endpoints — :func:`great_circle_row_km` does the same
float operations in the same order, with each far point's latitude
cosine carried in the point (:func:`row_point`), so every value is the
pair function's, bit for bit.
"""

from __future__ import annotations

import math
import random
from math import asin, cos, radians, sin, sqrt
from typing import Iterable, List, Optional, Tuple

from repro.errors import ValidationError

EARTH_RADIUS_KM = 6371.0
#: the haversine's outer factor, ``2.0 * EARTH_RADIUS_KM`` (exact)
_DIAMETER_KM = 2.0 * EARTH_RADIUS_KM
#: kilometres light travels per millisecond in fibre (c / refractive index)
FIBRE_KM_PER_MS = 200.0
#: typical multiplicative path stretch of real routes over geodesics
DEFAULT_PATH_STRETCH = 1.4
#: fixed last-mile / serialization overhead added to every RTT sample
BASE_OVERHEAD_MS = 0.4


def great_circle_km(
    lat1: float, lon1: float, lat2: float, lon2: float
) -> float:
    """Great-circle distance in kilometres between two lat/lon points.

    Uses the haversine formula, which is numerically stable for the
    distances this simulation needs.
    """
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlmb = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


#: a point rows are measured to: ``(lat, lon, cos(radians(lat)))``
RowPoint = Tuple[float, float, float]


def row_point(lat: float, lon: float) -> RowPoint:
    """``(lat, lon)`` with the latitude cosine the row kernel reads."""
    return (lat, lon, cos(radians(lat)))


def great_circle_row_km(
    lat: float, lon: float, points: Iterable[RowPoint]
) -> List[float]:
    """Great-circle distance in kilometres from ``(lat, lon)`` to each
    of ``points``, in order.

    Each value equals ``great_circle_km(lat, lon, p_lat, p_lon)`` bit
    for bit: the origin's cosine is taken once, each point's comes
    precomputed, and the rest is the haversine's float operations in
    its order (``r if r < 1.0 else 1.0`` is ``min(1.0, r)``).  Swapping
    the ends changes no value either, so a row from a target to its
    probes equals each probe's distance to the target.
    """
    cos_lat = cos(radians(lat))
    row: List[float] = []
    append = row.append
    for point_lat, point_lon, point_cos in points:
        r = sqrt(
            sin(radians(point_lat - lat) / 2.0) ** 2
            + cos_lat * point_cos * sin(radians(point_lon - lon) / 2.0) ** 2
        )
        append(_DIAMETER_KM * asin(r if r < 1.0 else 1.0))
    return row


def propagation_floor_ms(distance_km: float) -> float:
    """Hard lower bound on RTT for a given geodesic distance."""
    if distance_km < 0:
        raise ValidationError("distance must be non-negative")
    return 2.0 * distance_km / FIBRE_KM_PER_MS


def min_rtt_ms(
    distance_km: float,
    rng: Optional[random.Random] = None,
    path_stretch: float = DEFAULT_PATH_STRETCH,
    base_overhead_ms: float = BASE_OVERHEAD_MS,
) -> float:
    """Sample a minimum-of-several-pings RTT for ``distance_km``.

    The sample is the propagation floor multiplied by the path stretch,
    plus a last-mile/serialization overhead and a small one-sided noise
    term.  It is guaranteed to stay at or above the physical floor, the
    property the multilateration engine relies on.
    """
    floor = propagation_floor_ms(distance_km)
    stretch = max(1.0, path_stretch)
    noise = 0.0
    if rng is not None:
        # One-sided: queueing and detours only ever add latency.  The
        # magnitude models the residual spread of a minimum over many
        # pings, so it is small relative to the propagation component.
        noise = abs(rng.gauss(0.0, 0.06)) * (floor + 1.0) + rng.random() * 0.2
    return floor * stretch + base_overhead_ms + noise


def rtt_upper_bound_km(rtt_ms: float) -> float:
    """Largest geodesic distance compatible with an observed RTT.

    Inverts the physical floor only (no stretch), so the bound is always
    conservative: the true target is never farther than this.
    """
    if rtt_ms < 0:
        raise ValidationError("rtt must be non-negative")
    return rtt_ms * FIBRE_KM_PER_MS / 2.0


def midpoint(
    a: Tuple[float, float], b: Tuple[float, float]
) -> Tuple[float, float]:
    """Approximate geographic midpoint of two lat/lon points.

    Good enough for the probe-mesh placement jitter; not used for any
    measurement math.
    """
    return ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
