"""paretoq: learn a Pareto set of policies for small multi-objective MDPs.

The package decomposes a multi-objective control problem into scalar
subproblems via weighted-sum or Tchebycheff scalarization, trains a tabular
learner per subproblem, and keeps every non-dominated greedy policy found
along the way in an external archive. Front quality is scored with
hypervolume, inverted generational distance, sparsity, and expected
utility. Everything is exactly reproducible from one integer seed.
"""

from .archive import ArchiveEntry, ParetoArchive, crowding_distance, dominates, prune
from .decomposition import (
    ReferencePoint,
    Scalarization,
    TCHEBYCHEFF,
    WEIGHTED_SUM,
    adapt_weights_psa,
    build_neighborhood,
    generate_weights_uniform,
    scalarize_tch,
    scalarize_ws,
    select_subproblem,
)
from .harness import ExperimentSpec, OutputBundle, parse_config, run_experiment
from .learning import (
    ExperienceBuffer,
    QTableEnvelope,
    QTableEsr,
    QTableScalar,
    QTableVector,
    deserialize_table,
    greedy_policy,
    serialize_table,
    update_envelope_q,
    update_esr_mc,
    update_scalarized_q,
    update_vector_q,
)
from .metrics import expected_utility, hypervolume, hypervolume_monte_carlo, igd, sparsity
from .momdp import (
    Experience,
    Momdp,
    TabularPolicy,
    dst_corridor,
    enumerate_deterministic_policies,
    ensure_objective,
    evaluate_policy,
    make_env,
    mixture_value,
    register_env,
    rollout,
    tiny_tree,
)
from .orchestrator import (
    CheckpointRecord,
    RunConfig,
    RunReport,
    Subproblem,
    cooperate,
    evaluate_population,
    initialize,
    run,
)
from .rng import RunStreams, derive_stream

__version__ = "0.1.0"
