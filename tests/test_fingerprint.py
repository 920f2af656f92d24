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
           "summary_text", "summary_payload", "pair", "pairs"}
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


def test_scaled_fingerprint_repeats_itself():
    # --scale multiplies the training and query rows and --offset is added
    # to them: a run at 1e-150, or at 5e-10 + 1e-17 times the rows, repeats
    # itself and fits the same number of groups as at scale 1
    tool = load_tool()
    plain = tool.fingerprint(harness.WORKLOADS["density"], 3)
    for scale, offset in ((1e-150, 0.0), (1e-17, 5e-10)):
        first = tool.fingerprint(harness.WORKLOADS["density"], 3, scale, offset)
        assert first == tool.fingerprint(harness.WORKLOADS["density"], 3, scale, offset)
        assert set(first["sha256"]) == DIGESTS and set(first["counters"]) == COUNTERS
        assert first["counters"]["groups"] == plain["counters"]["groups"]
        assert first["sha256"]["to_json"] != plain["sha256"]["to_json"]


def test_scale_option_reaches_the_rows(capsys):
    # main passes --scale and --offset on; the defaults of 1 and 0 leave the
    # lines as they were
    tool = load_tool()
    with mock.patch.object(tool, "fingerprint",
                           lambda w, seed, scale, offset: {"scale": scale, "offset": offset}), \
            mock.patch.object(sys, "path", list(sys.path)):
        tool.main(["--workload", "density", "--seed", "3", "--scale", "1e60"])
        tool.main(["--workload", "density", "--seed", "3", "--offset", "5e-10",
                   "--scale", "1e-17"])
        tool.main(["--workload", "density", "--seed", "3"])
    assert capsys.readouterr().out.splitlines() == [
        '{"offset": 0.0, "scale": 1e+60}', '{"offset": 5e-10, "scale": 1e-17}',
        '{"offset": 0.0, "scale": 1.0}']


def test_power_of_two_scale_gives_the_scale_one_digests():
    # 2^-1000 is exact, and the fit's frame takes it out: the grouping, edges,
    # labels, predictions and group paths are scale 1's. The model text, the
    # summary and the choice of the benchmark's pair (`harness.far_pair`) work
    # from coordinates in the input's units, which underflow there, so they
    # are left out.
    tool = load_tool()
    same = ("starts", "group_of", "edges", "labels", "predict", "predict_small", "pairs")
    for name in ("density", "many-groups"):
        plain = tool.fingerprint(harness.WORKLOADS[name], 3)
        scaled = tool.fingerprint(harness.WORKLOADS[name], 3, 2.0 ** -1000)
        assert [scaled["sha256"][k] for k in same] == [plain["sha256"][k] for k in same]
