"""Knowledge-tracing pipeline: graph mining, peer retrieval, LLM-backed prediction."""

from .config import RunConfig, fingerprint, resolve_config
from .dataset import Dataset, ingest, split
from .errors import HisektError
from .evaluation import EvalReport, PipelineContext, accuracy, auc, run_experiment
from .irt import IrtModel, Level, discretize, fit, probability
from .llm import LlmClient
from .mrhin import TEMPLATES, MetaPathTemplate, Mrhin, WalkGroup, WalkTable, sample_instances, sample_walks
from .pathscore import (ScoredGroup, graph_distance, score_all, score_groups, select_top_k, select_top_k_many,
                        select_top_k_positions)

# NB: the prediction op itself stays at hisekt.predict.predict so the
# package attribute `predict` keeps naming the module.
from .predict import Prediction, PromptBundle, build_prompt
from .retrieval import (
    CandidateSet,
    SimilarityModel,
    distances,
    encode,
    encode_many,
    fit_similarity,
    top_s,
    top_s_packed,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateSet",
    "Dataset",
    "EvalReport",
    "HisektError",
    "IrtModel",
    "Level",
    "LlmClient",
    "MetaPathTemplate",
    "Mrhin",
    "PipelineContext",
    "Prediction",
    "PromptBundle",
    "RunConfig",
    "ScoredGroup",
    "SimilarityModel",
    "TEMPLATES",
    "WalkGroup",
    "WalkTable",
    "accuracy",
    "auc",
    "build_prompt",
    "discretize",
    "distances",
    "encode",
    "encode_many",
    "fingerprint",
    "fit",
    "fit_similarity",
    "graph_distance",
    "ingest",
    "probability",
    "resolve_config",
    "run_experiment",
    "sample_instances",
    "sample_walks",
    "score_all",
    "score_groups",
    "select_top_k",
    "select_top_k_many",
    "select_top_k_positions",
    "split",
    "top_s",
    "top_s_packed",
]
