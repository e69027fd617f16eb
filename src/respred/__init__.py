"""respred: predict task resource requirements and simulate the brokerage gain.

The package derives ground-truth resource targets from job execution
profiles, trains one classifier per target (RAM, CPU time per event, I/O
intensity, walltime), evaluates them individually and jointly, and
quantifies by simulation what replacing two-staged scout estimation with
instant prediction buys in turnaround.
"""

from .discretize import (
    BinSpec,
    BinningError,
    ResourceClasses,
    assign_class,
    assign_classes,
    class_to_allocation,
    explicit_bins,
    fit_bins,
)
from .encode import EncodedBatch, EncoderSpec, embed_dim, encode, fit_encoder
from .ingest import (
    Dataset,
    JobProfile,
    ParseReport,
    SplitSpec,
    TaskRecord,
    parse_job_csv,
    parse_task_csv,
    stratified_split,
    write_job_csv,
    write_task_csv,
)
from .metrics import (
    ConfusionMatrix,
    PipelineReport,
    per_class_prf,
    pipeline_metrics,
    pr_auc_micro,
    roc_auc_micro,
)
from .nnet import (
    NanLossError,
    Network,
    TargetModel,
    TrainConfig,
    TrainReport,
    forward,
    loss,
    predict,
    train,
    train_step,
)
from .pipeline import evaluate_models, evaluate_predictions, fit_all_bins, label_dataset, train_all
from .service import (
    ModelArtifact,
    PredictionService,
    load_artifact,
    predict_request,
    save_artifact,
)
from .simsynth import (
    BrokerInputs,
    CompareReport,
    GeneratorSpec,
    SimConfig,
    SimReport,
    compare,
    generate,
    simulate,
)
from .targets import (
    ResourceConfig,
    ResourceTargets,
    ScoutAggregation,
    UndefinedTargetError,
    aggregate_scouts,
    derive_cpu_time,
    derive_io_intensity,
    derive_ram_count,
    derive_tasks,
    derive_walltime,
)

__version__ = "0.1.0"
