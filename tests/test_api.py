"""The public names of the package, pinned: adding or dropping one is a
deliberate change to this list."""

import pytest

import sortclust

PUBLIC = [
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


def test_public_names():
    assert sortclust.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(sortclust, name) is not None


def test_fit_and_prepare_take_no_extent():
    data = [[0.0], [1.0], [3.0]]
    with pytest.raises(TypeError):
        sortclust.fit(data, extent="norms")
    with pytest.raises(TypeError):
        sortclust.prepare(data, extent="norms")
