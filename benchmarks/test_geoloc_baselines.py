"""Benchmark: the main active-geolocation engine against the classic
baselines it builds on (shortest ping, constraint-based geolocation)."""

from repro.geoloc.baselines import CBGLocator, ShortestPingLocator
from repro.runtime.stages import campaign_engine


def test_geolocation_algorithm_comparison(benchmark, study, save_artifact):
    world = study.world
    servers = world.fleet.servers()[:300]

    shortest = ShortestPingLocator(
        mesh=world.probes, oracle=world.oracle,
        config=study.config.geolocation,
        streams=world.streams.spawn("bench-sp"),
    )
    cbg = CBGLocator(
        mesh=world.probes, oracle=world.oracle, registry=world.registry,
        config=study.config.geolocation,
        streams=world.streams.spawn("bench-cbg"),
    )

    def accuracy(locate):
        return sum(
            1 for server in servers if locate(server.ip) == server.country
        ) / len(servers)

    def run():
        return {
            "shortest_ping": accuracy(shortest.locate),
            "cbg": accuracy(cbg.locate),
            "ipmap_engine": accuracy(campaign_engine(world).locate),
        }

    accuracies = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact(
        "geoloc_baselines",
        "\n".join(
            f"{name}: {value:.1%} country accuracy "
            f"(n={len(servers)} servers)"
            for name, value in accuracies.items()
        ),
    )
    # The engine must dominate its building blocks (the reason the paper
    # uses RIPE IPmap rather than raw shortest-ping/CBG).
    assert accuracies["ipmap_engine"] >= accuracies["shortest_ping"]
    assert accuracies["ipmap_engine"] >= accuracies["cbg"] - 0.02
    assert accuracies["ipmap_engine"] > 0.9
