"""End-to-end benchmarks: world construction, panel simulation,
classification throughput, geolocation throughput, and the full
paper-vs-measured report."""


from repro import WorldConfig
from repro.analysis.report import paper_vs_measured
from repro.core.classify import RequestClassifier
from repro.datasets.builder import build_world, cached_build_world
from repro.runtime import run_study
from repro.runtime.stages import campaign_engine


def test_world_build_small(benchmark):
    """Cost of constructing a complete (small) world from one seed."""
    world = benchmark.pedantic(
        build_world, args=(WorldConfig.small(seed=123),),
        rounds=1, iterations=1,
    )
    assert world.fleet.servers()


def test_panel_simulation_small(benchmark):
    """Cost of simulating the full browser-extension panel."""
    config = WorldConfig.small(seed=321)
    cached_build_world(config)  # the world build stays out of the timing

    def run():
        return run_study(config, targets=("panel",)).products["panel"]

    panel = benchmark.pedantic(run, rounds=1, iterations=1)
    assert panel["requests"]


def test_classification_throughput(benchmark, study):
    """Requests/second of the three-stage classifier (medium log)."""
    classifier = RequestClassifier(
        study.world.easylist, study.world.easyprivacy
    )
    requests = study.visit_log.requests

    result = benchmark.pedantic(
        classifier.classify, args=(requests,), rounds=1, iterations=1
    )
    assert result.n_tracking() > 0


def test_geolocation_throughput(benchmark, study):
    """Active-measurement campaigns per second (fresh engine, 150 IPs)."""
    engine = campaign_engine(study.world)
    addresses = study.inventory.addresses()[:150]

    def run():
        return [engine.geolocate(a) for a in addresses]

    estimates = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(estimates) == len(addresses)


def test_paper_vs_measured_report(benchmark, study, save_artifact):
    """The consolidated paper-vs-measured block (EXPERIMENTS.md input)."""
    block = benchmark.pedantic(
        paper_vs_measured, args=(study,), rounds=1, iterations=1
    )
    save_artifact("paper_vs_measured", block)
    assert "f7_ipmap_eu28_pct" in block
