"""Walkthrough: removing correlated metrics from a defect dataset.

We plant three pairs of nearly identical metrics among four independent
ones, then watch the two elimination phases work: the Spearman phase
dissolves each highly correlated pair, keeping the member least entangled
with everything else, and the VIF phase mops up any remaining linear
redundancy. The outcome column is never consulted.

Run:  python demos/01_eliminating_correlated_metrics.py
"""

import numpy as np

from corrsel import (
    AutoSpearmanParams,
    SyntheticSpec,
    auto_spearman,
    generate_synthetic,
    spearman_matrix,
    spearman_phase,
    vif_phase,
    vif_scores,
)

# Seven base metrics; the first three get one noisy clone each, so the
# dataset carries 10 columns of which 3 are redundant.
spec = SyntheticSpec(
    base_metric_count=7,
    module_count=500,
    signal_coefficients=(1.2, 1.2, 1.2, 0.0, 0.0, 0.0, 0.0),
    clone_groups=((0, 1, 0.01), (1, 1, 0.01), (2, 1, 0.01)),
    seed=11,
)
data = generate_synthetic(spec)
print(f"dataset: {data.n_modules} modules x {data.n_metrics} metrics")
print(f"metrics: {', '.join(data.metric_names)}\n")

# The correlation structure before elimination. Each clone sits at
# |rho| ~ 0.9999 next to its source; everything else is near zero.
corr = spearman_matrix(data).values
names = data.metric_names
strong = [
    (names[i], names[j], float(corr[i, j]))
    for i, j in zip(*np.triu_indices(len(names), k=1))
    if abs(corr[i, j]) >= 0.7
]
print("strongly correlated pairs (|rho| >= 0.7):")
for a, b, rho in strong:
    print(f"  {a:12} {b:12} rho = {rho:+.4f}")

# Phase 1: resolve those pairs one at a time, strongest first.
kept, trace = spearman_phase(data, sp_t=0.7)
print(f"\nafter the Spearman phase: {len(kept)} metrics -> {kept}")
for step in trace.steps:
    print(f"  removed {step.removed:12} (kept {step.kept}, |rho| = {step.statistic:.4f})")

# Phase 2: nothing left to do here, because the survivors are mutually
# independent; on real data this pass catches metrics that are predictable
# from a *combination* of others, which pairwise correlation cannot see.
final, vif_trace = vif_phase(data, kept, vif_t=5.0)
print(f"\nafter the VIF phase: {len(final)} metrics (removed {len(vif_trace.steps)})")
for name, score in vif_scores(data, final).scores.items():
    print(f"  VIF({name}) = {score:.3f}")

# The one-call version chains both phases and concatenates the traces.
subset, full_trace = auto_spearman(data, AutoSpearmanParams(sp_t=0.7, vif_t=5.0))
assert subset == final
print(f"\nauto_spearman kept one member per planted pair: {subset}")

# Sanity: the advertised postcondition holds on the output.
sub_corr = spearman_matrix(data.project(subset)).values
off_diag = np.abs(sub_corr[np.triu_indices(len(subset), k=1)])
print(f"max remaining pairwise |rho| = {off_diag.max():.3f} (< 0.7)")
print(f"max remaining VIF = {max(vif_scores(data, subset).scores.values()):.3f} (< 5)")
