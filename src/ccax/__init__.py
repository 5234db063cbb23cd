"""Asymmetrically weighted regularized CCA for bidirectional retrieval."""

from .cca import (
    CcaModel,
    CcaProblem,
    RegularizationSpec,
    model_from_archive,
    model_to_archive,
    prepare,
    solve,
)
from .hkse import (
    HkseMap,
    bandwidth_heuristic,
    build_map,
    dimension_bound,
    embed_blocks,
    embed_sentence,
    exact_kernel,
    maps_from_archive,
    maps_to_archive,
    word_feature,
)
from .io import (
    DataFormatError,
    EmbeddingTable,
    FeatureMatrix,
    MatrixFile,
    MatrixWriter,
    ModelArchive,
    SentenceCorpus,
    create_matrix,
    load_archive,
    load_corpus,
    load_embedding_table,
    load_matrix,
    load_pairing,
    open_matrix,
    save_archive,
    save_matrix,
    save_pairing,
)
from .retrieval import (
    EvalReport,
    SweepCurve,
    TaskEmbedding,
    alpha_sweep,
    evaluate_bidirectional,
    evaluate_blocks,
)
from .selection import (
    GuidedTikhonovResult,
    PathGrid,
    PathTimingReport,
    SelectionResult,
    default_penalty_grid,
    default_rank_grid,
    guided_tikhonov,
    measure_path_timing,
    path_axes,
    tikhonov_path,
    tsvd_path,
)
from .synthetic import (
    CaptionedData,
    LatentModelConfig,
    generate_caption_like,
)

__version__ = "0.1.0"
