"""A read-only view of one engine run's products.

The runtime engine (:mod:`repro.runtime`) is the only record path: it
runs the paper's pipeline stage by stage, sharded and cached, and keeps
each stage's merged product.  :class:`Study` holds one run's products
for the tables and figures of :mod:`repro.analysis`:

1. **panel** — the browser-extension panel's visit log (Sect. 3.1);
2. **classification** — the two-stage tracking classifier (Sect. 3.2);
3. **inventory** — tracker IPs with passive-DNS completion (Sect. 3.3);
4. **geolocation** — the three-tool suite (Sect. 3.4);
5. **confinement** — border-crossing analysis (Sect. 4);
6. **localization** — the what-if scenarios (Sect. 5);
7. **sensitive** — the sensitive-category study (Sect. 6);
8. **ISP scale** — the four-ISP NetFlow reports (Sect. 7).

The view runs no stage and writes nothing into the world: a question
asked through it gives the same answer whatever was asked before.
:meth:`repro.runtime.RuntimeRun.study` builds it from a full-graph run.

Typical use::

    from repro import WorldConfig
    from repro.runtime import run_study

    study = run_study(WorldConfig.small()).study()
    eu_shares = study.eu28_destination_regions()      # Fig. 7(b)
    table5 = study.localization.scenario_table(study.tracking_requests())
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.core.classify import ClassificationResult
from repro.core.confinement import ConfinementAnalyzer
from repro.core.geolocate import GeolocationSuite
from repro.core.ispscale import SnapshotReport
from repro.core.localization import LocalizationAnalyzer
from repro.core.sensitive import SensitiveStudy
from repro.core.tracker_ips import TrackerIPInventory
from repro.datasets.builder import World
from repro.geodata.regions import Region
from repro.web.browser import VisitLog
from repro.web.requests import ThirdPartyRequest


class Study:
    """One engine run's stage products over its world."""

    def __init__(
        self,
        world: World,
        *,
        visit_log: VisitLog,
        classification: ClassificationResult,
        inventory: TrackerIPInventory,
        geolocation: GeolocationSuite,
        sensitive: SensitiveStudy,
        isp_reports: Mapping[Tuple[str, str], SnapshotReport],
    ) -> None:
        self.world = world
        self.config = world.config
        self.visit_log = visit_log
        self.classification = classification
        self.inventory = inventory
        self.geolocation = geolocation
        self.sensitive = sensitive
        #: Table 8's grid: (ISP, snapshot) → :class:`SnapshotReport`
        self.isp_reports: Dict[Tuple[str, str], SnapshotReport] = dict(
            isp_reports
        )
        self.localization = LocalizationAnalyzer(
            inventory=inventory,
            locate=geolocation.reference,
            clouds=world.clouds,
            registry=world.registry,
        )

    def tracking_requests(self) -> List[ThirdPartyRequest]:
        return self.classification.tracking_requests()

    def confinement(self, tool: str = "RIPE IPmap") -> ConfinementAnalyzer:
        """A confinement analyzer bound to one geolocation tool."""
        locator = self.geolocation.locators()[tool]
        return ConfinementAnalyzer(locator, self.world.registry)

    def eu28_destination_regions(
        self, tool: str = "RIPE IPmap"
    ) -> Dict[str, float]:
        """Fig. 7: destination-region shares of EU28 users' flows."""
        return self.confinement(tool).destination_regions(
            self.tracking_requests(), Region.EU28
        )
