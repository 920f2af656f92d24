"""Sorting-based clustering: greedy aggregation of points ordered by their
top principal score, group merging by distance or density, outlier handling,
out-of-sample prediction, and textual explanations.

The public names are imported from their modules on first use (PEP 562), so
a program loads only the modules it uses: the CLI's `predict` loads neither
`evaluation` nor `explain`.
"""

import importlib

__version__ = "0.1.0"

# The public names of each module, in the order of __all__.
_EXPORTS = {
    "aggregation": ("aggregate",),
    "evaluation": ("ContingencyTable", "GaussianModelParams", "ami", "ari", "make_blobs",
                   "model_p1", "model_p2", "model_ratio"),
    "explain": ("ExplainReport", "explain_pair", "explain_point", "explain_summary",
                "fit_stats_text"),
    "geometry": ("ball_volume", "intersection_volume", "log_ball_volume", "overlap_fraction",
                 "reg_inc_beta", "reg_inc_gamma_lower"),
    "merging": ("GroupClusterMap", "connected_components", "density_merge", "distance_merge"),
    "postprocess": ("ClusterModel", "FitConfig", "apply_minpts", "fit", "from_json",
                    "load_model", "predict", "save_model", "to_json"),
    "prep": ("PreparedData", "center", "first_principal_component", "prepare",
             "score_and_sort"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
