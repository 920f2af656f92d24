"""`tools/pair_predict.py` times two source trees' predicts in one process.

The test runs it as a module, loaded from its file, with this checkout as
both trees: the two module sets must give equal labels on every call.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("pair_predict",
                                                  ROOT / "tools" / "pair_predict.py")
    tool = importlib.util.module_from_spec(spec)
    # the tool pins the BLAS thread variables on import; keep them out of
    # the environment of the other tests' child processes
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(tool)
    return tool


def test_two_rounds_of_this_checkout_against_itself(capsys):
    tool = load_tool()
    trees = ("_base_sortclust", "_work_sortclust")
    try:
        with mock.patch.object(sys, "path", list(sys.path)):
            assert tool.main(["--root", str(ROOT), "--workload", "many-groups",
                              "--rounds", "2"]) == 0
        # two module sets, each predicting through its own kernel
        kernels = [sys.modules.get(f"{tree}.kernel") for tree in trees]
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] in trees]:
            del sys.modules[name]
    assert None not in kernels and kernels[0] is not kernels[1]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    line = json.loads(lines[0])
    assert (line["workload"], line["seed"], line["rounds"]) == ("many-groups", 3, 2)
    for kind in ("predict_small_ms", "predict_ms"):
        assert set(line[kind]) == {"base", "work", "wins"}
        assert 0.0 <= line[kind]["wins"] <= 1.0
        for tree in ("base", "work"):
            assert 0.0 < line[kind][tree]["p50"] <= line[kind][tree]["p90"]
