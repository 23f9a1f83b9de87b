"""repro — a full reproduction of "Tracing Cross Border Web Tracking"
(Iordanou, Smaragdakis, Poese, Laoutaris — IMC 2018).

The package implements the paper's measurement pipeline end to end —
two-stage tracking-flow classification, tracker-IP inventory with
passive-DNS completion, active-measurement geolocation, border-crossing
quantification, localization what-ifs, the sensitive-category study and
the ISP-scale NetFlow validation — over a faithful simulated substrate
(web/RTB ecosystem, DNS, geolocation physics, cloud footprints, ISP
NetFlow), since the paper's inputs are proprietary.

The runtime engine (:mod:`repro.runtime`) is the one record path; a
:class:`Study` is the read-only view of one engine run that the tables
and figures read.

Quickstart::

    from repro import WorldConfig
    from repro.runtime import run_study

    study = run_study(WorldConfig.small()).study()
    print(study.eu28_destination_regions())   # Fig. 7(b) shape

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.config import (
    PANEL_END_DAY,
    PANEL_START_DAY,
    SNAPSHOT_DAYS,
    WorldConfig,
)
from repro.core.classify import (
    ClassificationResult,
    ClassificationStage,
    RequestClassifier,
)
from repro.core.confinement import ConfinementAnalyzer
from repro.core.geolocate import GeolocationSuite
from repro.core.collaboration import CollaborationAnalyzer
from repro.core.ispscale import ISPScaleStudy
from repro.core.regulations import Regulation, RegulationMonitor
from repro.core.localization import LocalizationAnalyzer, LocalizationScenario
from repro.core.pipeline import Study
from repro.core.sensitive import SensitiveStudy
from repro.core.tracker_ips import TrackerIPInventory
from repro.datasets.builder import World, build_world
from repro.errors import ReproError
from repro.geodata.regions import Region

__version__ = "1.0.0"

__all__ = [
    "Study",
    "WorldConfig",
    "World",
    "build_world",
    "Region",
    "ReproError",
    "RequestClassifier",
    "ClassificationResult",
    "ClassificationStage",
    "TrackerIPInventory",
    "GeolocationSuite",
    "ConfinementAnalyzer",
    "LocalizationAnalyzer",
    "LocalizationScenario",
    "SensitiveStudy",
    "ISPScaleStudy",
    "CollaborationAnalyzer",
    "Regulation",
    "RegulationMonitor",
    "PANEL_START_DAY",
    "PANEL_END_DAY",
    "SNAPSHOT_DAYS",
    "__version__",
]
