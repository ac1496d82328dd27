"""Desk-scale laboratory for the clique chromatic number of random graphs."""

from .graph import (
    Graph,
    sample_gnp,
    common_non_neighbors,
    read_edge_list,
    write_edge_list,
)
from .cliques import (
    enumerate_maximal_cliques,
    is_clique,
    is_maximal_clique,
    extend_to_maximal,
    find_clique_dominating_outside,
)
from .coloring import (
    Coloring,
    BudgetExceeded,
    monochromatic_maximal_cliques,
    is_valid_clique_coloring,
    exact_clique_chromatic_number,
    read_coloring,
    write_coloring,
)
from .params import (
    phi,
    ParamSchedule,
    make_schedule,
    build_schedule,
    class_count,
    lambda_report,
    janson_exponent,
    inequality_check,
    predicted_bounds,
)
from .lowerbound import (
    select_useful_class,
    pseudo_partition,
    validate_witness,
    certify,
    PartitionError,
    PartitionWitness,
)
from .upper import greedy_phase, procedure_A, procedure_B, repair
from .harness import (
    SweepConfig,
    ExperimentRecord,
    mix_seed,
    run_sweep,
    write_records,
    read_records,
    compare_with_theory,
)

__version__ = "0.1.0"
