"""colearn: a deterministic multi-agent simulator for consensus-driven
semi-supervised learning over time-varying directed networks."""

from . import _kernels as kernels
from .collective import (
    AgentState,
    MetricsRecord,
    RoundMessage,
    RunResult,
    ScheduleConfig,
    collective_round,
    fuse_and_label,
    refresh_scores,
    review_step,
    run_collective,
)
from .config import ConfigError, ExperimentConfig, load_config, override
from .data import (
    Dataset,
    IdxFormatError,
    Partition,
    load_idx,
    make_partition,
    shuffled_batches,
    synth_blobs,
    write_idx,
    write_manifest,
)
from .graph import (
    DirectedGraph,
    ErdosRenyiSchedule,
    GraphSchedule,
    StaticSchedule,
    build_weight_matrix,
    build_weight_matrix_log,
    graph_at,
    in_neighbors,
    is_jointly_strongly_connected,
    is_strongly_connected,
    union_graph,
)
from .harness import (
    RunOutput,
    SummaryRow,
    emit_csv,
    emit_plot,
    format_summary,
    montecarlo,
    read_csv,
    run_mode,
    summarize,
)
from .learner import (
    Adam,
    Architecture,
    Learner,
    Sgd,
    accuracy,
    apply_update,
    forward,
    grad,
    init_params,
    loss,
    param_count,
    param_views,
    train_epochs,
)
from .seeding import rng_for, seed_sequence, subseed

__version__ = "0.1.0"
