"""`tools/pair_predict.py` times two source trees' predicts or fits in one
process, or reads their peak resident memory over repeated fits.

The tests run it as a module, loaded from its file, with this checkout as
both trees: the two module sets must give equal labels on every call, and
equal model text on every fit.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

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


def run_tool(*extra) -> list:
    """Run two rounds on `many-groups`; each tree's kernel module."""
    tool = load_tool()
    trees = ("_base_sortclust", "_work_sortclust")
    try:
        with mock.patch.object(sys, "path", list(sys.path)):
            assert tool.main(["--root", str(ROOT), "--workload", "many-groups",
                              "--rounds", "2", *extra]) == 0
        kernels = [sys.modules.get(f"{tree}.kernel") for tree in trees]
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] in trees]:
            del sys.modules[name]
    return kernels


def test_two_rounds_of_this_checkout_against_itself(capsys):
    kernels = run_tool()
    # two module sets, each predicting through its own kernel
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


def test_two_fit_rounds_of_this_checkout_against_itself(capsys):
    kernels = run_tool("--fit")
    # two module sets, each fitting through its own kernel
    assert None not in kernels and kernels[0] is not kernels[1]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    line = json.loads(lines[0])
    assert (line["workload"], line["seed"], line["rounds"]) == ("many-groups", 3, 2)
    assert set(line) == {"workload", "seed", "rounds", "fit_ms"}
    assert set(line["fit_ms"]) == {"base", "work", "wins"}
    assert line["fit_ms"]["wins"] in (0.0, 0.5, 1.0)
    for tree in ("base", "work"):
        assert 0.0 < line["fit_ms"][tree]["p50"] <= line["fit_ms"][tree]["p90"]


def test_two_fit_rounds_of_the_first_5000_rows(capsys):
    kernels = run_tool("--fit", "--rows", "5000")
    assert None not in kernels and kernels[0] is not kernels[1]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    line = json.loads(lines[0])
    assert (line["workload"], line["seed"], line["rounds"], line["rows"]) == (
        "many-groups", 3, 2, 5000)
    assert set(line) == {"workload", "seed", "rounds", "rows", "fit_ms"}
    for tree in ("base", "work"):
        assert 0.0 < line["fit_ms"][tree]["p50"] <= line["fit_ms"][tree]["p90"]


def test_rss_of_two_fits_in_a_child_process_per_tree(capsys):
    kernels = run_tool("--rss")
    # the trees fit in child processes, so none is loaded here
    assert kernels == [None, None]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    line = json.loads(lines[0])
    assert set(line) == {"workload", "seed", "rounds", "rss_mb"}
    assert (line["workload"], line["seed"], line["rounds"]) == ("many-groups", 3, 2)
    assert set(line["rss_mb"]) == {"base", "work"}
    for peaks in line["rss_mb"].values():
        # ru_maxrss after each fit: a peak, so it never falls
        assert len(peaks) == 2 and 0.0 < peaks[0] <= peaks[1]


def test_rss_and_fit_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exit_:
        load_tool().main(["--root", str(ROOT), "--rss", "--fit"])
    assert exit_.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--rows", "5000"], ["--fit", "--rows", "0"]])
def test_rows_need_fit_and_a_positive_count(extra, capsys):
    with pytest.raises(SystemExit) as exit_:
        load_tool().main(["--root", str(ROOT), *extra])
    assert exit_.value.code == 2
    assert "--rows takes a count of at least 1, with --fit" in capsys.readouterr().err
