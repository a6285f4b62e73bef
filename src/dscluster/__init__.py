"""Weighted master/proxy clustering for homogeneous ad hoc networks.

Builds unit-disk network graphs (or loads them from fixtures), scores
every node from six graph parameters, elects non-overlapping double-star
clusters led by (master, proxy) pairs, repairs critical nodes, verifies
the structural properties of the result, and simulates mobility with
re-affiliation-based maintenance.
"""
from .engine import (
    CLASS_FAIRLY_PERFECT,
    STATUSES,
    ClusterState,
    classification,
    elect_proxy,
    form_and_adjust,
    master_eligibility,
    run_adjusted,
    run_m_dsec,
)
from .fileio import (
    cluster_report,
    metrics_records,
)
from .graph import (
    UNREACHABLE,
    FixtureOverrides,
    NetworkGraph,
    build_graph,
    compute_tables,
    deploy_random,
    graph_from_edges,
    hop_distance_table,
)
from .metrics import (
    WeightConfig,
    combine_weight,
    combined_closeness_index,
    compute_network_metrics,
    euclidean_closeness_index,
    hop_closeness_index,
    neighbor_categories,
    neighbor_strength,
    path_statistics,
)
from .mobility import (
    Scenario,
    find_ch,
    hello_refresh,
    run_simulation,
    step_positions,
)
from .verify import (
    check_cluster_diameter,
    check_dominance_and_independence,
    check_double_star,
    check_partition,
    run_property_checks,
)

__version__ = "0.1.0"
