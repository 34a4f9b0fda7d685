"""Desk-scale knowledge-distillation laboratory with exactly known teachers."""

from .numerics import (
    CategoricalDist,
    entropy,
    kl_rows,
    softmax,
)
from .model import (
    GradAccumulator,
    TabularLM,
    Vocab,
    checkpoint_load,
    checkpoint_save,
    pad_context,
    sgd_step,
)
from .objectives import (
    ObjectiveKind,
    token_weights,
)
from .data import (
    Corpus,
    MarkovSource,
    build_source,
    corpus_read,
    corpus_write,
    generate_seqkd_corpus,
    sample_corpus,
)
from .training import (
    MetricsRow,
    ModelTeacher,
    OracleTeacher,
    Stage,
    TrainConfig,
    distill_offpolicy,
    distill_onpolicy_opd,
    run_experiment,
    train_teacher_mle,
)
from .evaluation import (
    completion_accuracy,
    context_occupancy,
    gradcheck,
    make_completion_tasks,
    occupancy_divergences,
)

__version__ = "0.1.0"
