"""corrsel: correlated-metric elimination and feature-selection benchmarking.

The central operation is :func:`auto_spearman`, a two-phase unsupervised
eliminator of correlated metrics (pairwise Spearman pruning, then iterative
highest-VIF removal). Around it sit nine classical feature-selection
baselines, two classifiers, threshold-dependent and independent performance
measures, and a seeded bootstrap harness that quantifies how consistent and
how correlated each technique's selections are.
"""

from .autospearman import (
    AutoSpearmanParams,
    EliminationTrace,
    MetricSubset,
    TraceStep,
    auto_spearman,
    spearman_phase,
    vif_phase,
)
from .classifiers import (
    ForestModel,
    ImportanceScores,
    LogisticModel,
    fit_logistic,
    fit_logistic_batch,
    fit_random_forest,
    importance,
    score_rows,
)
from .data import (
    BootstrapSplit,
    Dataset,
    DatasetSummary,
    SyntheticSpec,
    bootstrap_sample,
    generate_synthetic,
    load_csv,
    summarize,
    write_csv,
)
from .evaluation import ConfusionMatrix, auc, confusion_at, f_measure, mcc
from .harness import (
    ConsistencyResult,
    CorrelationFlags,
    ExperimentConfig,
    ExperimentReport,
    SubsetCollection,
    consistency,
    correlation_flags,
    load_config,
    performance_deltas,
    run_experiment,
    run_selection_grid,
)
from .seeding import DEFAULT_SEED, derive_seed
from .selectors import (
    SelectorConfig,
    SelectorId,
    parse_selector,
    select,
    select_cfs,
    select_chisq,
    select_consistency,
    select_ig,
    select_rfe,
    select_stepwise,
)
from .stats import (
    UNBOUNDED,
    CorrelationMatrix,
    DiscreteColumn,
    VifReport,
    aic,
    chi_squared,
    discretize_equal_frequency,
    information_gain,
    inconsistency_rate,
    ols_r_squared,
    rank_with_ties,
    spearman,
    spearman_matrix,
    vif_scores,
)

__version__ = "0.1.0"
