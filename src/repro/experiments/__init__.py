"""Experiment drivers regenerating every table and figure of the paper.

One module per artifact family:

* :mod:`~repro.experiments.pruning_tables` — Figures 2-4;
* :mod:`~repro.experiments.timing` — Figure 6, and the X10
  scalar-vs-vectorized speedup and bit-identity check;
* :mod:`~repro.experiments.accuracy` — Figure 7 and Table 1;
* :mod:`~repro.experiments.ablations` — the DESIGN.md X1-X4 ablations;
* :mod:`~repro.experiments.durability` — the X9 WAL-overhead and
  crash-recovery measurements;
* :mod:`~repro.experiments.harness` — shared dataset/predicate/scorer setup;
* :mod:`~repro.experiments.report` — plain-text table rendering.
"""

from .ablations import (
    cpn_vs_naive_checks,
    prune_iteration_checks,
    rank_query_checks,
    run_cpn_vs_naive,
    run_cpn_vs_naive_constructed,
    run_prune_iterations_ablation,
    run_rank_query_ablation,
    run_segmentation_vs_hierarchy,
    segmentation_vs_hierarchy_checks,
)
from .accuracy import (
    accuracy_shape_checks,
    figure7_cases,
    run_accuracy_case,
    run_figure7,
    table1,
)
from .durability import (
    durability_checks,
    run_durability_overhead,
    run_recovery_cost,
)
from .fault_overhead import (
    fault_plane_overhead_checks,
    run_fault_plane_overhead,
)
from .fidelity import fidelity_checks, run_fidelity_sweep
from .observability import (
    observability_overhead_checks,
    run_observability_overhead,
)
from .harness import (
    DEFAULT_SCALE,
    Pipeline,
    address_pipeline,
    benchmark_scale,
    citation_pipeline,
    student_pipeline,
    train_scorer_for,
)
from .pruning_tables import PAPER_K_VALUES, run_pruning_table, shape_checks
from .report import format_table
from .robustness import robustness_checks, run_noise_sweep
from .serving import (
    run_serving_load,
    serving_report_rows,
    serving_slo_checks,
)
from .scaling import run_scaling_sweep, scaling_checks
from .storage_scale import run_storage_scale, storage_report_rows
from .timing import (
    PAPER_TIMING_K_VALUES,
    run_pruning_only_timing,
    run_timing_comparison,
    run_vectorize_speedup,
    timing_shape_checks,
)

__all__ = [
    "DEFAULT_SCALE",
    "PAPER_K_VALUES",
    "PAPER_TIMING_K_VALUES",
    "Pipeline",
    "accuracy_shape_checks",
    "address_pipeline",
    "benchmark_scale",
    "citation_pipeline",
    "cpn_vs_naive_checks",
    "durability_checks",
    "fault_plane_overhead_checks",
    "fidelity_checks",
    "figure7_cases",
    "format_table",
    "prune_iteration_checks",
    "rank_query_checks",
    "run_accuracy_case",
    "run_cpn_vs_naive",
    "run_cpn_vs_naive_constructed",
    "observability_overhead_checks",
    "run_durability_overhead",
    "run_fault_plane_overhead",
    "run_fidelity_sweep",
    "run_figure7",
    "run_observability_overhead",
    "run_prune_iterations_ablation",
    "robustness_checks",
    "run_noise_sweep",
    "run_vectorize_speedup",
    "run_pruning_only_timing",
    "run_pruning_table",
    "run_recovery_cost",
    "run_scaling_sweep",
    "run_serving_load",
    "run_storage_scale",
    "serving_report_rows",
    "serving_slo_checks",
    "storage_report_rows",
    "run_rank_query_ablation",
    "run_segmentation_vs_hierarchy",
    "run_timing_comparison",
    "scaling_checks",
    "segmentation_vs_hierarchy_checks",
    "shape_checks",
    "student_pipeline",
    "table1",
    "timing_shape_checks",
    "train_scorer_for",
]
