"""High-level runtime entry point.

:func:`run_study` executes the stage graph for a config and wraps the
engine's products in a :class:`RuntimeRun`: headline accessors for the
paper's tables and figures, per-stage metrics, and
:meth:`~RuntimeRun.study`, the read-only :class:`repro.core.pipeline.Study`
view of a full-graph run that every table, figure and export reads.

Observability surfaces here too: pass a :class:`repro.obs.trace.Tracer` to
:func:`run_study` and read back :meth:`RuntimeRun.trace_report` (the
text flamegraph), :attr:`RuntimeRun.registry` (the merged, worker-count
-invariant metrics) and :attr:`RuntimeRun.manifest` (the provenance
manifest the engine assembled).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import WorldConfig
from repro.core.classify import ClassificationResult
from repro.core.geolocate import GeolocationSuite
from repro.core.localization import LocalizationScenario, ScenarioOutcome
from repro.core.pipeline import Study
from repro.core.sensitive import SensitiveStudy
from repro.datasets.builder import cached_build_world
from repro.errors import ExecutionError
from repro.geodata.regions import Region
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.runtime.engine import ExecutionEngine, RunResult, StageProducts
from repro.runtime.stages import STAGE_NAMES, GeoTableLocator
from repro.web.browser import VisitLog

#: the stages whose products the default run materializes (all of them)
ALL_TARGETS: Tuple[str, ...] = ()


def run_study(
    config: Optional[WorldConfig] = None,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    targets: Sequence[str] = ALL_TARGETS,
    tracer: Optional[Tracer] = None,
) -> "RuntimeRun":
    """Run the pipeline through the engine and wrap the results.

    ``config`` defaults to the medium preset; ``workers`` selects the
    shard fan-out (1 = inline); ``cache_dir`` enables the on-disk
    artifact cache; ``targets`` restricts execution to a sub-graph;
    ``tracer`` (optional) receives the engine's span tree — omit it for
    a zero-overhead untraced run with identical study products.
    """
    config = config or WorldConfig.medium()
    engine = ExecutionEngine(workers=workers, cache_dir=cache_dir)
    result = engine.run(config, targets, tracer=tracer)
    return RuntimeRun(result=result)


@dataclass
class RuntimeRun:
    """One engine run's products with paper-facing accessors."""

    result: RunResult
    _study: Optional[Study] = None

    @property
    def config(self) -> WorldConfig:
        """The :class:`WorldConfig` this run executed."""
        return self.result.config

    @property
    def products(self) -> StageProducts:
        """Merged stage products (bodies), keyed by stage name; a body
        replayed from the cache decodes on first access."""
        return self.result.products

    def _product(self, stage: str) -> Any:
        """One stage's merged product, or raise if it was not run."""
        self._require(stage)
        return self.products[stage]

    def _require(self, stage: str) -> None:
        if stage not in self.products:
            raise ExecutionError(
                f"stage {stage!r} was not part of this run; "
                f"available: {sorted(self.products)}"
            )

    # -- headline accessors (engine products, no Study needed) ----------
    def classification(self) -> ClassificationResult:
        """The three-pass classification result over the panel's requests."""
        return ClassificationResult(
            requests=self._product("panel")["requests"],
            stages=self._product("classification")["stages"],
        )

    def table2_counts(self) -> Dict[str, Dict[str, int]]:
        """Table 2's classification aggregates as plain counts, read
        from the classification index (no body decodes)."""
        self._require("classification")
        table2 = self.result.indexes["classification"]["table2"]
        return {row: dict(counts) for row, counts in table2.items()}

    def eu28_destination_regions(
        self, tool: str = "RIPE IPmap"
    ) -> Dict[str, float]:
        """Fig. 7: destination-region shares of EU28 tracking flows."""
        sankey = self._product("confinement")["eu28"].get(tool)
        if sankey is None:
            raise ExecutionError(f"no confinement view for tool {tool!r}")
        return sankey.origin_shares(Region.EU28.value)

    def scenario_table(self) -> List[ScenarioOutcome]:
        """Table 5 rows from the localization stage's merged counts."""
        counts = self._product("localization")["counts"]
        rows = []
        for scenario in (
            LocalizationScenario.DEFAULT,
            LocalizationScenario.REDIRECT_FQDN,
            LocalizationScenario.REDIRECT_TLD,
            LocalizationScenario.POP_MIRRORING,
            LocalizationScenario.REDIRECT_TLD_PLUS_MIRRORING,
        ):
            n, country_ok, region_ok = counts[scenario.name]
            rows.append(
                ScenarioOutcome(
                    scenario=scenario,
                    n_flows=n,
                    country_pct=100.0 * country_ok / n if n else 0.0,
                    region_pct=100.0 * region_ok / n if n else 0.0,
                )
            )
        return rows

    def sensitive_summary(self) -> Dict[str, Any]:
        """Sect. 6 headline numbers from the sensitive stage counts."""
        product = self._product("sensitive")
        n_tracking = product["n_tracking"]
        n_sensitive = product["n_sensitive"]
        total = sum(product["categories"].values())
        return {
            "n_identified_domains": len(product["identified"]),
            "sensitive_share_pct": (
                100.0 * n_sensitive / n_tracking if n_tracking else 0.0
            ),
            "category_shares": {
                category: 100.0 * count / total
                for category, count in sorted(product["categories"].items())
            } if total else {},
            "per_country_leakage": dict(sorted(product["leakage"].items())),
        }

    def isp_reports(self) -> Dict[Tuple[str, str], Any]:
        """Table 8 grid: (ISP, snapshot) → :class:`SnapshotReport`."""
        return dict(self._product("ispscale"))

    # -- metrics, tracing and provenance --------------------------------
    def metrics_report(self) -> str:
        """Fixed-width per-stage counter table for terminal output."""
        return self.result.metrics_report()

    def metrics_rows(self) -> List[Dict[str, Any]]:
        """Per-stage counters as plain rows (for reports and JSON export)."""
        return self.result.metrics_rows()

    def trace_report(self) -> str:
        """The run's text flamegraph (``(tracing disabled)`` untraced)."""
        return self.result.trace_report()

    @property
    def registry(self) -> MetricsRegistry:
        """The merged metrics registry — identical for any worker count."""
        return self.result.registry

    @property
    def manifest(self) -> Optional[Dict[str, Any]]:
        """The provenance manifest the engine assembled for this run."""
        return self.result.manifest

    @property
    def ledger_record(self) -> Optional[Dict[str, Any]]:
        """The run-ledger record this run appended (None without a
        cache dir); ``ledger_record["run_id"]`` is the handle
        ``repro obs diff`` / ``show`` resolve."""
        return self.result.ledger_record

    @property
    def cache_hits(self) -> int:
        """Run-total cache hits (registry-aggregated, see
        :attr:`RunResult.cache_hits`)."""
        return self.result.cache_hits

    @property
    def cache_misses(self) -> int:
        """Run-total cache misses (registry-aggregated)."""
        return self.result.cache_misses

    # -- the Study view --------------------------------------------------
    def study(self) -> Study:
        """The read-only :class:`Study` view of this run's products.

        Needs a full-graph run: raises :class:`ExecutionError` naming a
        stage this run left out.  The IPmap locator answers from the
        geolocation stage's address → country table, so tables and
        figures read the engine's own estimates.
        """
        if self._study is None:
            for stage in STAGE_NAMES:
                self._require(stage)
            world = cached_build_world(self.config)
            panel = self.products["panel"]
            self._study = Study(
                world,
                visit_log=VisitLog(
                    visits=panel["visits"], requests=panel["requests"]
                ),
                classification=self.classification(),
                inventory=self.products["inventory"],
                geolocation=GeolocationSuite(
                    ipmap=GeoTableLocator(
                        world, self.products["geolocation"]["table"]
                    ),
                    maxmind=world.maxmind,
                    ip_api=world.ip_api,
                    oracle=world.oracle,
                ),
                sensitive=SensitiveStudy.from_identified(
                    world.publishers,
                    self.products["sensitive_domains"]["identified"],
                    registry=world.registry,
                ),
                isp_reports=self.isp_reports(),
            )
        return self._study
