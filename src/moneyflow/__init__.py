"""Reconstruction and analysis of interfirm money-flow networks.

The package turns raw transfer logs into a weighted directed network and
examines it four ways: distribution statistics, walnut (bowtie-style)
decomposition around the strongly connected core, Helmholtz splitting of
net flows into potential-driven and circular parts, map-equation
community hierarchies, and geographic origin-destination factorization.
A seeded synthetic generator provides ground truth for all of it.

Importing the package loads none of its modules: each public name, and
each submodule, loads on first use (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "bowtie": (
        "COMPONENT_NAMES", "BowtiePartition", "DistanceProfile", "classify_bowtie",
        "distance_profile", "strongly_connected_components", "weakly_connected_components",
    ),
    "cli": (),
    "community": (
        "CommunityReport", "CommunityTree", "community_report", "detect_communities",
        "flat_table", "map_equation_value",
    ),
    "errors": ("ConvergenceError",),
    "geonmf": (
        "GeoFlowMatrix", "GeoGrid", "LocalizationResult", "NmfFactorization", "bin_transfers",
        "d_sweep", "haversine_km", "localization", "nmf", "similarity_matrix",
    ),
    "hodge": (
        "HodgeDecomposition", "assemble_problem", "decompose", "hodge_decompose",
        "potential_histograms", "potential_vs_net", "solve_potentials",
    ),
    "ingest": (
        "FilterPolicy", "ParseError", "TransferRecord", "TransferTable", "aggregate",
        "collect_node_coords", "filter_records", "parse_log", "read_links", "read_node_coords",
        "write_links", "write_node_coords",
    ),
    "network": (
        "AggregatedLink", "DuplicateLinkError", "FlowNetwork", "build_network", "ccdf",
        "degree_correlation", "degree_stats", "net_flow_per_node", "summary",
    ),
    "svgplot": (),
    "synth": (
        "CitySpec", "GroundTruth", "ScenarioSpec", "blocks_scenario", "cities_scenario",
        "generate", "walnut_scenario", "write_records",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF, key=str.lower)]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
