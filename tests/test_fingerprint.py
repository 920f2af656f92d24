"""`tools/fingerprint.py` runs against the library and repeats itself.

The tool prints digests of a fit's stage outputs for each benchmark workload
and seed, so that two source trees printing the same lines are known to give
the same results bit for bit. These tests run it as a module, loaded from its
file; the tool and the bench files are never modified.
"""

import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import harness  # noqa: E402

DIGESTS = {"starts", "group_of", "edges", "labels", "predict", "predict_small", "to_json",
           "summary_text", "summary_payload", "pair"}
COUNTERS = {"dist_count", "groups", "edges", "clusters", "candidate_pairs",
            "density_tests", "components", "groups_reassigned", "model_bytes"}


def load_tool():
    spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "tools" / "fingerprint.py")
    tool = importlib.util.module_from_spec(spec)
    # the tool pins the BLAS thread variables on import; keep them out of
    # the environment of the other tests' child processes
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(tool)
    return tool


def test_density_fingerprint_is_complete_and_repeatable():
    tool = load_tool()
    first = tool.fingerprint(harness.WORKLOADS["density"], 3)
    second = tool.fingerprint(harness.WORKLOADS["density"], 3)
    assert first == second
    assert (first["workload"], first["seed"]) == ("density", 3)
    assert set(first["sha256"]) == DIGESTS
    assert all(len(h) == 64 and set(h) <= set("0123456789abcdef")
               for h in first["sha256"].values())
    assert set(first["counters"]) == COUNTERS
    assert first["counters"]["density_tests"] >= first["counters"]["edges"] > 0
