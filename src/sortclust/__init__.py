"""Sorting-based clustering: greedy aggregation of points ordered by their
top principal score, group merging by distance or density, outlier handling,
out-of-sample prediction, and textual explanations."""

from .aggregation import aggregate
from .evaluation import (ContingencyTable, GaussianModelParams, ami, ari,
                         make_blobs, model_p1, model_p2, model_ratio)
from .explain import (ExplainReport, explain_pair, explain_point,
                      explain_summary, fit_stats_text)
from .geometry import (ball_volume, intersection_volume, log_ball_volume,
                       overlap_fraction, reg_inc_beta, reg_inc_gamma_lower)
from .merging import (GroupClusterMap, connected_components, density_merge,
                      distance_merge)
from .postprocess import (ClusterModel, FitConfig, apply_minpts, fit,
                          from_json, load_model, predict, save_model, to_json)
from .prep import (PreparedData, center, first_principal_component, prepare,
                   score_and_sort)

__version__ = "0.1.0"

__all__ = [
    "aggregate",
    "ContingencyTable", "GaussianModelParams", "ami", "ari", "make_blobs",
    "model_p1", "model_p2", "model_ratio",
    "ExplainReport", "explain_pair", "explain_point", "explain_summary",
    "fit_stats_text",
    "ball_volume", "intersection_volume", "log_ball_volume", "overlap_fraction",
    "reg_inc_beta", "reg_inc_gamma_lower",
    "GroupClusterMap", "connected_components", "density_merge", "distance_merge",
    "ClusterModel", "FitConfig", "apply_minpts", "fit", "from_json",
    "load_model", "predict", "save_model", "to_json",
    "PreparedData", "center", "first_principal_component", "prepare",
    "score_and_sort",
]
