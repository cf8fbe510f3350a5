"""Resilient consensus of networked multiagent systems under constant
adversarial disturbances: simulation, spectral verification, and CLI."""

from .graph import (
    Graph,
    adjacency_matrix,
    complete_graph,
    cycle_graph,
    degree_matrix,
    from_edge_list,
    is_connected,
    laplacian,
    laplacian_spectrum,
    load_edge_list,
    parse_edge_list,
    path_graph,
    random_connected_graph,
)
from .spectral import (
    Inertia,
    Spectrum,
    eigenvalues,
    quadratic_inertia,
    quadratic_eigenvalues,
    spectrum_matching_distance,
)
from .dynamics import (
    ADAPTIVE,
    NOMINAL,
    SimConfig,
    Trajectory,
    consensus_error,
    default_t_final,
    error_series,
    read_trajectory_csv,
    simulate,
    write_trajectory_csv,
)
from .stability import (
    AugmentedSystem,
    StabilityReport,
    build_m,
    build_transform,
    centroid_analysis,
    check_energy_decay,
    check_perturbation_bound,
    closed_form_spectrum,
    error_block,
    fit_decay_rate,
    reduced_blocks,
    verify_theorem,
)
from .scenario import Scenario, build_run_report, load_scenario, parse_scenario

__version__ = "0.1.0"
