"""Aspect-model topic analysis: latent-class decompositions of document/term
count tables fitted by EM and tempered EM, a truncated-SVD baseline, query
fold-in, and retrieval/perplexity evaluation harnesses."""

__version__ = "0.1.0"

from .aspect_model import (
    PROB_FLOOR,
    AspectModel,
    DegeneracyError,
    init_model,
    log_likelihood,
    mixing_weight_matrix,
    perplexity,
    top_words,
    unigram_baseline,
)
from .corpus import (
    CountMatrix,
    ParseError,
    SplitPair,
    Vocabulary,
    build_counts,
    load_stopwords,
    parse_qrels,
    parse_smart_collection,
    split_heldout,
    tokenize,
)
from .lsa import SvdDecomposition, lsi_doc_coords, lsi_fold_in, truncated_svd
from .retrieval import (
    RECALL_LEVELS,
    PrSummary,
    Rankings,
    precision_recall,
    rank_all,
)
from .trainer import (
    StoppingReason,
    TemConfig,
    TraceRecord,
    TrainTrace,
    em_step,
    fit_em,
    fit_tem,
    fold_in,
    internal_split,
)

__all__ = [
    "PROB_FLOOR",
    "RECALL_LEVELS",
    "AspectModel",
    "CountMatrix",
    "DegeneracyError",
    "ParseError",
    "PrSummary",
    "Rankings",
    "SplitPair",
    "StoppingReason",
    "SvdDecomposition",
    "TemConfig",
    "TraceRecord",
    "TrainTrace",
    "Vocabulary",
    "build_counts",
    "em_step",
    "fit_em",
    "fit_tem",
    "fold_in",
    "init_model",
    "internal_split",
    "load_stopwords",
    "log_likelihood",
    "lsi_doc_coords",
    "lsi_fold_in",
    "mixing_weight_matrix",
    "parse_qrels",
    "parse_smart_collection",
    "perplexity",
    "precision_recall",
    "rank_all",
    "split_heldout",
    "tokenize",
    "top_words",
    "truncated_svd",
    "unigram_baseline",
]
