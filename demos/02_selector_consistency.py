"""How stable is each selection technique under resampling?

Feature selection runs on training samples, and training samples come from
a resampling procedure, so a technique that reacts to sampling noise picks
a different metric subset every time. We quantify that with the subset
consistency score: 100 * |intersection| / |union| over the subsets chosen
across bootstrap samples. 100 means the same metrics every time; 0 means
no metric survived every sample.

On data with planted near-duplicate metrics, techniques that score metrics
against the outcome flip between duplicate partners and churn on noise,
while the correlation-based eliminator keeps the independent metrics every
single time.

Run:  python demos/02_selector_consistency.py   (about five seconds)
"""

from corrsel import (
    SelectorConfig,
    SelectorId,
    SyntheticSpec,
    consistency,
    correlation_flags,
    generate_synthetic,
    run_selection_grid,
)

B = 20
BASE_SEED = 97

spec = SyntheticSpec(
    base_metric_count=7,
    module_count=500,
    signal_coefficients=(1.2, 1.2, 1.2, 0.0, 0.0, 0.0, 0.0),
    clone_groups=((0, 1, 0.01), (1, 1, 0.01), (2, 1, 0.01)),
    seed=11,
)
data = generate_synthetic(spec)

selectors = [
    SelectorId.AUTOSPEARMAN,
    SelectorId.IG,
    SelectorId.CHISQ,
    SelectorId.STEP_FWD,
    SelectorId.RFE_LR,
]

# The ranking filters need a cutoff rule; keep the four best-scoring
# metrics. (With the keep-positive rule they would select every metric of
# this continuous dataset and the comparison would be vacuous.)
config = SelectorConfig(ranking_rule="top_k", ranking_top_k=4, base_seed=BASE_SEED)

print(f"running {len(selectors)} techniques over {B} bootstrap samples...")
grid = run_selection_grid(data, selectors, B, config)

print(f"\n{'technique':14} {'consistency':>11} {'kept in all':>11} {'kept in any':>11}")
for sel in selectors:
    res = consistency(grid.for_selector(sel))
    print(
        f"{sel.value:14} {res.percentage:10.1f}% {res.intersection_size:11d} {res.union_size:11d}"
    )

# The same formula applied across techniques on one sample shows how little
# the techniques agree with each other.
agreement = consistency(grid.for_sample(0))
print(
    f"\nagreement among all {len(selectors)} techniques on sample 0: "
    f"{agreement.percentage:.1f}%"
)

# And do the selected subsets still contain correlated metrics? Count the
# samples where a chosen subset has a pair above the correlation threshold.
print(f"\n{'technique':14} {'subsets with collinearity':>26}")
for sel in (SelectorId.IG, SelectorId.STEP_FWD, SelectorId.AUTOSPEARMAN):
    flagged = 0
    for j, split in enumerate(grid.splits):
        subset = grid.subsets[(sel, j)]
        if subset and correlation_flags(subset, split.train).has_collinearity:
            flagged += 1
    print(f"{sel.value:14} {flagged:>13}/{B}")
