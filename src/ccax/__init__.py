"""Asymmetrically weighted regularized CCA for bidirectional retrieval."""

from .cca import (
    CcaModel,
    CcaProblem,
    RegularizationSpec,
    cca_fit,
    cca_fit_tikhonov,
    cca_fit_tsvd,
    model_from_archive,
    model_to_archive,
    prepare,
    solve,
    spectral_filter_hard,
    spectral_filter_soft,
    verify_filter_forms,
)
from .hkse import (
    HkseMap,
    bandwidth_heuristic,
    build_map,
    dimension_bound,
    embed_corpus,
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
    ModelArchive,
    SentenceCorpus,
    load_archive,
    load_corpus,
    load_embedding_table,
    load_matrix,
    load_pairing,
    load_split_file,
    save_archive,
    save_embedding_table,
    save_matrix,
    save_pairing,
    save_split_file,
)
from .retrieval import (
    EvalReport,
    SweepCurve,
    TaskEmbedding,
    alpha_sweep,
    evaluate_bidirectional,
    evaluate_blocks,
    make_task_embedding,
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
    tikhonov_path,
    tsvd_path,
)
from .synthetic import (
    CaptionedData,
    LatentModelConfig,
    generate_caption_like,
    generate_latent_pairs,
)

__version__ = "0.1.0"
