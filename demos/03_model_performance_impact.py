"""Does removing correlated metrics cost predictive performance?

For each bootstrap sample we fit two models per classifier: one on the
metrics kept by the eliminator, one on all metrics, both evaluated on the
same held-out rows. The per-sample difference (selected minus all, in
percentage points) tells us what the pruning costs. When the predictive
signal lives in metrics that are not part of any correlated group, the
cost should hover near zero.

Run:  python demos/03_model_performance_impact.py   (about ten seconds)
"""

import numpy as np

from corrsel import (
    SelectorConfig,
    SelectorId,
    SyntheticSpec,
    generate_synthetic,
    performance_deltas,
    run_selection_grid,
)

# Signal on two of the four independent metrics; the three cloned pairs
# are pure redundancy, so dropping one member of each is free.
spec = SyntheticSpec(
    base_metric_count=7,
    module_count=600,
    signal_coefficients=(0.0, 0.0, 0.0, 1.2, 0.9, 0.0, 0.0),
    clone_groups=((0, 1, 0.01), (1, 1, 0.01), (2, 1, 0.01)),
    seed=23,
)
data = generate_synthetic(spec)

B = 15
print(f"fitting logistic and forest models on {B} bootstrap samples...")
grid = run_selection_grid(data, [SelectorId.AUTOSPEARMAN], B, SelectorConfig(base_seed=5))
deltas, records = performance_deltas(grid, ("logistic", "forest"))
for note in records:
    print(f"  note: {note}")

print(f"\n{'classifier':10} {'measure':8} {'median delta':>13} {'IQR':>18}")
for clf in ("logistic", "forest"):
    for measure in ("AUC", "F", "MCC"):
        vals = np.array(list(deltas[(SelectorId.AUTOSPEARMAN, clf, measure)].values()))
        q1, med, q3 = np.quantile(vals, [0.25, 0.5, 0.75])
        print(f"{clf:10} {measure:8} {med:+12.2f}pp [{q1:+6.2f}, {q3:+6.2f}]")

print(
    "\nInterpretation: medians within a couple of percentage points mean the"
    "\npruned model explains the outcome as well as the full one, with a"
    "\nquarter fewer metrics and none of the redundancy."
)
