"""Few-shot class-incremental learning with an explicit prototype memory.

A trainable feature extractor and projection produce prototype features;
an integer-quantized memory of class prototypes is extended online (one
forward pass per sample) with new classes, while offline pretraining and
metalearning shape the feature space beforehand.
"""

from .backbone import (
    DenseLayer,
    GradientTape,
    ModelParams,
    backward,
    forward_backbone,
    forward_fcr,
    init_model,
    load_params,
    save_params,
    sgd_step,
)
from .data import (
    LabeledDataset,
    SessionStream,
    load_cifar_batch,
    load_dataset,
    save_dataset,
    split_fscil,
)
from .harness import (
    SessionReport,
    TrainRecipe,
    ablation_matrix,
    extract_features,
    make_blob_dataset,
    pretrain_model,
    run_protocol,
    validate_stream,
)
from .losses import (
    PretrainLossConfig,
    cutmix,
    mixup,
    multi_margin_loss,
    ortho_loss,
    pretrain_loss,
    sample_augmentation,
)
from .memory import (
    ExplicitMemory,
    Prototype,
    QuantSpec,
    bipolarize,
    classify,
    classify_batch,
    em_memory_bytes,
    load_em,
    precision_sweep,
    quantize_feature,
    quantize_rows,
    reduce_rows,
    save_em,
)
from .numerics import cossim, matmul, relu
from .offline import (
    MetaConfig,
    build_base_em,
    init_fcc,
    metalearn,
    pretrain,
)
from .online import FinetuneConfig, finetune_fcr, learn_class, learn_dataset

__version__ = "0.1.0"
