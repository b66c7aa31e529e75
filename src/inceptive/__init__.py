"""Multi-scale convolutional enrichment head for transformer token
embeddings, implemented in numpy with explicit backward passes."""

from .encoder import EncoderConfig, encode, embed, load_embeddings, save_embeddings
from .head import (
    BaselineHead,
    ModelConfig,
    adaptive_avg_pool,
    attention_received,
    head_forward,
    init_head_params,
    make_head_state,
    multi_head_attention,
    shape_probe,
)
from .metrics import (
    PredictionSet,
    accuracy,
    average_precision,
    precision_recall_f1,
    roc_auc,
    wilcoxon_signed_rank,
)
from .model import HeadOnlyClassifier, SequenceClassifier
from .tensor import (
    ParamStore,
    Rng,
    clip_global_norm,
    grad_check,
    load_checkpoint,
    save_checkpoint,
)
from .training import (
    TrainConfig,
    adamw_step,
    bce_with_logits,
    cosine_lr,
    evaluate,
    kfold_split,
    run_training,
    select_best,
    softmax_cross_entropy,
    train_epoch,
)

__version__ = "0.1.0"
