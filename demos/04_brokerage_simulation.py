"""Scout-based vs ML-based brokerage, head to head.

Replays the same task stream through both decision modes. Scout mode waits
for sampled scout completion (log-normal, ~7 h mean with a >150 h tail);
ML mode decides in sub-second time. Misallocations fail and retry one tier
up, so the deltas show both the latency win and the allocation-quality
dependence.
"""

import numpy as np

from respred import GeneratorSpec, SimConfig, TrainConfig, compare, generate, predict
from respred.discretize import TARGET_NAMES
from respred.pipeline import label_dataset, train_all
from respred.simsynth import BrokerInputs

synth = generate(GeneratorSpec(seed=23, n_tasks=3000))
cfg = TrainConfig(learning_rate=1e-3, max_epochs=30, seed=9)
models, _ = train_all(synth.dataset, synth.targets, cfg, split_seed=3)

bins = {t: models[t].bins for t in models}
labeled = label_dataset(synth.dataset, synth.targets, bins)
inputs = BrokerInputs(
    records=labeled.records,
    true_classes=np.column_stack([labeled.labels[t] for t in TARGET_NAMES]),
    true_targets=synth.targets,
    bins=bins,
    jobs_by_task=synth.jobs_by_task(),
    resource_config=GeneratorSpec().resource_config,
)


def predictor(records):
    classes, _ = predict(models, records)
    return classes


result = compare(inputs, SimConfig(), predictor=predictor)

for report in (result.scout, result.ml):
    print(f"{report.mode} mode:")
    print(f"  mean decision latency {report.mean_decision_hours * 3600:12.1f} s")
    print(f"  mean turnaround       {report.mean_turnaround_hours:12.2f} h")
    print(f"  p95 turnaround        {report.p95_turnaround_hours:12.2f} h")
    print(f"  failure retries       {report.failure_retries:12d}")
    print(f"  wasted core-hours     {report.wasted_core_hours:12.1f}")

print(f"\nmean turnaround reduction: {result.turnaround_reduction_hours:.2f} h per task")
waits = result.scout.decision_latency_hours
print(f"scout waits: mean {waits.mean():.2f} h, {100 * (waits > 150).mean():.2f}% beyond 150 h")
