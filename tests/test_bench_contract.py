"""The benchmark's traced run must keep working against the library.

`bench/tracing.py` wraps the stage functions `fit` looks up by module
attribute and reads fields of their results. A refactor that renames a stage,
stops calling it through its module, or changes the result it reads would
break the benchmark without failing any library test; these tests catch it.
The bench files are imported, never modified.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from sortclust import fit, make_blobs

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("merge_mode", ["distance", "density"])
def test_traced_fit_fires_every_stage(merge_mode):
    data, truth = make_blobs(600, 3, 3, 0.4, 1)
    tracer = tracing.Tracer()
    with tracer.instrument():
        model = fit(data, radius=0.3, minpts=harness.MINPTS, merge_mode=merge_mode,
                    outlier_mode=harness.OUTLIER_MODE)
    assert {s["name"] for s in tracer.spans} == {name for _, _, name in tracing.STAGES}
    assert all(s["end_ns"] >= s["start_ns"] for s in tracer.spans)
    # the stage functions are restored afterwards
    for module, attr, _ in tracing.STAGES:
        assert not hasattr(getattr(module, attr), "__wrapped__")

    counts = harness.counters(model)
    assert counts == {"dist_count": model.dist_count, "groups": model.num_groups,
                      "edges": len(model.merge_edges), "clusters": model.num_clusters}
    assert counts["edges"] > 0

    components = tracer.results["merging.components"]
    assert components.k == components.sizes.size
    assert components.cluster_of_group.shape == (model.num_groups,)
    assert int(components.sizes.sum()) == model.n

    merge = tracing.merge_counters(model, merge_mode)
    assert merge["candidate_pairs"] >= counts["edges"]
    first, second = harness.far_pair(model, data, truth)
    assert model.point_group[first] != model.point_group[second]
    assert np.isfinite(tracer.durations(0)["prep.prepare"])
