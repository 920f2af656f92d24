import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sortclust import cli
from sortclust.cli import main

from _oracles import format1_doc, format2_doc
from test_postprocess import strip_rows


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def fixture_csv(tmp_path, name="data.csv"):
    # two tight 1-D clusters
    rows = [0.0, 0.1, 0.2, 5.0, 5.1, 5.2]
    return write(tmp_path / name, "\n".join(str(v) for v in rows) + "\n")


class TestFit:
    def test_writes_labels(self, tmp_path, capsys):
        data = fixture_csv(tmp_path)
        out = tmp_path / "labels.txt"
        assert main(["fit", "--input", data, "--output", str(out),
                     "--radius", "0.3"]) == 0
        labels = [int(v) for v in out.read_text().split()]
        assert len(labels) == 6
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_refit_byte_identical(self, tmp_path):
        data = fixture_csv(tmp_path)
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["fit", "--input", data, "--output", str(out1), "--radius", "0.3"])
        main(["fit", "--input", data, "--output", str(out2), "--radius", "0.3"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_model_naming_a_directory_writes_nothing(self, tmp_path, capsys):
        # the labels come first and must keep their old bytes
        data = fixture_csv(tmp_path)
        out = write(tmp_path / "labels.txt", "old\n")
        (tmp_path / "m").mkdir()
        assert main(["fit", "--input", data, "--radius", "0.3", "--output", out,
                     "--model", str(tmp_path / "m")]) == 2
        assert "is a directory" in capsys.readouterr().err
        assert Path(out).read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "labels.txt", "m"]
        assert list((tmp_path / "m").iterdir()) == []

    def test_empty_input(self, tmp_path, capsys):
        empty = write(tmp_path / "empty.csv", "")
        assert main(["fit", "--input", empty]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.csv", "1.0,2.0\n3.0,oops\n")
        out = tmp_path / "labels.txt"
        assert main(["fit", "--input", bad, "--output", str(out)]) == 2
        assert "row 2" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_order_mark_after_the_first_line_reports_its_row(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.csv", "1.0\n\ufeff2.0\n")
        assert main(["fit", "--input", bad]) == 2
        assert "malformed row 2: non-numeric field '\\ufeff2.0'" in capsys.readouterr().err

    def test_input_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1.0,2.0\n\xff3.0,4.0\n")
        out = tmp_path / "labels.txt"
        assert main(["fit", "--input", str(bad), "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")
        assert not out.exists()

    def test_drop_bad_rows(self, tmp_path):
        bad = write(tmp_path / "bad.csv", "1.0\nnope\n2.0\n\n3.0\n")
        out = tmp_path / "labels.txt"
        assert main(["fit", "--input", bad, "--output", str(out),
                     "--drop-bad-rows"]) == 0
        assert len(out.read_text().split()) == 3

    def test_header_flag(self, tmp_path):
        data = write(tmp_path / "h.csv", "f0\n1.0\n2.0\n")
        out = tmp_path / "labels.txt"
        assert main(["fit", "--input", data, "--output", str(out), "--header"]) == 0
        assert len(out.read_text().split()) == 2

    def test_bad_radius(self, tmp_path, capsys):
        data = fixture_csv(tmp_path)
        assert main(["fit", "--input", data, "--radius", "-1"]) == 2

    def test_stats_block(self, tmp_path, capsys):
        data = fixture_csv(tmp_path)
        out = tmp_path / "labels.txt"
        assert main(["fit", "--input", data, "--output", str(out),
                     "--radius", "0.3", "--stats"]) == 0
        text = capsys.readouterr().out
        assert "The 6 data points with 1 features were aggregated into" in text
        assert "comparisons were required" in text

    def test_plot_data(self, tmp_path):
        data = fixture_csv(tmp_path)
        plot = tmp_path / "plot.csv"
        assert main(["fit", "--input", data, "--output", str(tmp_path / "l.txt"),
                     "--radius", "0.3", "--plot-data", str(plot)]) == 0
        lines = plot.read_text().strip().split("\n")
        assert lines[0] == "pc1,pc2,group,cluster"
        assert len(lines) == 7
        for line in lines[1:]:
            pc1, pc2, group, cluster = line.split(",")
            float(pc1), float(pc2), int(group), int(cluster)


    def test_failed_output_writes_nothing(self, tmp_path, capsys):
        data = fixture_csv(tmp_path)
        assert main(["fit", "--input", data, "--output", str(tmp_path / "labels.txt"),
                     "--radius", "0.3", "--plot-data", str(tmp_path / "plot.csv"),
                     "--model", str(tmp_path / "nodir" / "m.json")]) == 2
        assert "error:" in capsys.readouterr().err
        # no labels, no plot data, no temporary files left behind
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    def test_magnitudes_across_the_range_fit_and_predict(self, tmp_path):
        # x1e170, past the old limit of about 1e153: the labels, plot rows and
        # predictions of the unscaled CSV
        rows = np.random.default_rng(0).normal(size=(50, 3))
        runs = []
        for name, c in (("plain", 1.0), ("scaled", 1e170)):
            data = write(tmp_path / f"{name}.csv", "".join(",".join(map(repr, row)) + "\n"
                                                           for row in (c * rows).tolist()))
            out = {kind: str(tmp_path / f"{name}-{kind}") for kind in ("labels", "model",
                                                                       "plot", "pred")}
            assert main(["fit", "--input", data, "--radius", "0.3", "--output", out["labels"],
                         "--model", out["model"], "--plot-data", out["plot"]]) == 0
            assert main(["predict", "--input", data, "--model", out["model"],
                         "--output", out["pred"]]) == 0
            plot = [line.split(",") for line in Path(out["plot"]).read_text().splitlines()[1:]]
            assert all(np.isfinite([float(pc1), float(pc2)]).all() for pc1, pc2, _, _ in plot)
            runs.append([Path(out["labels"]).read_text(), Path(out["pred"]).read_text(),
                         [cols[2:] for cols in plot]])
        assert runs[0] == runs[1]

    def test_row_norms_beyond_float64_write_nothing(self, tmp_path, capsys):
        # the centered rows reach 2.27e308: the one declared limit exits 2
        data = write(tmp_path / "data.csv", "1.7e308\n-1.7e308\n-1.7e308\n")
        assert main(["fit", "--input", data, "--radius", "0.3", "--output",
                     str(tmp_path / "labels.txt"), "--model", str(tmp_path / "m.json")]) == 2
        assert "row norms lie beyond float64's range" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    def test_radius_limit_in_the_input_units_writes_nothing(self, tmp_path, capsys):
        # the rows times 2^40: radius * mext overflows in the input's units
        rows = [0.0, 0.1, 0.2, 5.0, 5.1, 5.2]
        data = write(tmp_path / "data.csv", "".join(f"{v * 2.0 ** 40!r}\n" for v in rows))
        assert main(["fit", "--input", data, "--radius", "1e308", "--output",
                     str(tmp_path / "labels.txt"), "--model", str(tmp_path / "m.json")]) == 2
        assert ("error: radius 1e+308 is too large: the radius times the data's median row "
                "norm overflows float64") in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    def test_radius_whose_effective_radius_overflows_writes_nothing(self, tmp_path, capsys):
        data = fixture_csv(tmp_path)
        assert main(["fit", "--input", data, "--radius", "1e308", "--output",
                     str(tmp_path / "labels.txt"), "--model", str(tmp_path / "m.json")]) == 2
        assert ("error: radius 1e+308 is too large: the radius times the data's median row "
                "norm overflows float64") in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    @pytest.mark.parametrize("flags", [
        ["--output", "out.txt", "--model", "out.txt"],
        ["--output", "./p.csv", "--plot-data", "p.csv"],
        ["--model", "link.json", "--plot-data", "real.json"],
    ])
    def test_two_outputs_naming_one_file(self, tmp_path, monkeypatch, capsys, flags):
        monkeypatch.chdir(tmp_path)
        data = fixture_csv(tmp_path)
        os.symlink("real.json", "link.json")
        assert main(["fit", "--input", data, "--radius", "0.3", *flags]) == 2
        err = capsys.readouterr().err
        assert f"{flags[1]} and {flags[3]} name the same file" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "link.json"]


class TestBlobPipeline:
    def test_generate_fit_eval_end_to_end(self, tmp_path, capsys):
        data = tmp_path / "blobs.csv"
        truth = tmp_path / "truth.txt"
        labels = tmp_path / "labels.txt"
        assert main(["blobs", "--n", "1000", "--d", "2", "--k", "4",
                     "--std", "0.5", "--seed", "7", "--output", str(data),
                     "--truth", str(truth)]) == 0
        assert main(["fit", "--input", str(data), "--output", str(labels),
                     "--radius", "0.3", "--minpts", "5"]) == 0
        fitted = [int(v) for v in labels.read_text().split()]
        assert len(set(fitted)) == 4
        assert main(["eval", "--truth", str(truth), "--pred", str(labels),
                     "--metric", "ari"]) == 0
        score = float(capsys.readouterr().out.split()[-1])
        assert score >= 0.95

    def test_files_starting_with_a_byte_order_mark(self, tmp_path, capsys):
        # spreadsheets save "CSV UTF-8" with a leading U+FEFF
        assert main(["blobs", "--n", "300", "--d", "2", "--k", "3", "--seed", "4",
                     "--output", str(tmp_path / "data.csv"),
                     "--truth", str(tmp_path / "truth.txt")]) == 0
        for name in ("data.csv", "truth.txt"):
            write(tmp_path / f"bom-{name}", "\ufeff" + (tmp_path / name).read_text())
        scores = []
        for prefix in ("", "bom-"):
            capsys.readouterr()
            assert main(["fit", "--input", str(tmp_path / f"{prefix}data.csv"), "--radius",
                         "0.3", "--output", str(tmp_path / f"{prefix}labels.txt")]) == 0
            labels = (tmp_path / f"{prefix}labels.txt").read_text()
            write(tmp_path / f"{prefix}pred.txt", "\ufeff" + labels if prefix else labels)
            assert main(["eval", "--truth", str(tmp_path / f"{prefix}truth.txt"),
                         "--pred", str(tmp_path / f"{prefix}pred.txt")]) == 0
            scores.append(capsys.readouterr().out)
        assert (tmp_path / "bom-labels.txt").read_bytes() == (tmp_path / "labels.txt").read_bytes()
        assert scores[0] == scores[1] and "ari " in scores[0]

    def test_labels_to_stdout_without_output_flag(self, tmp_path, capsys):
        data = fixture_csv(tmp_path)
        assert main(["fit", "--input", data, "--radius", "0.3"]) == 0
        out = capsys.readouterr().out.split()
        assert len(out) == 6 and all(v.lstrip("-").isdigit() for v in out)


class TestPredict:
    def test_round_trip(self, tmp_path):
        data = fixture_csv(tmp_path)
        model = tmp_path / "model.json"
        fitted = tmp_path / "fit_labels.txt"
        main(["fit", "--input", data, "--output", str(fitted), "--radius", "0.3",
              "--model", str(model)])
        out = tmp_path / "pred.txt"
        assert main(["predict", "--input", data, "--model", str(model),
                     "--output", str(out)]) == 0
        assert out.read_text() == fitted.read_text()

    def test_query_whose_centering_overflows_leaves_stderr_empty(self, tmp_path):
        # in a child process, where a numpy warning would reach stderr: the
        # query minus the mean near -1.45e308 passes float64, and the inf
        # query ties with every start, so the first cluster wins
        write(tmp_path / "train.csv", "-1.5e308,1\n-1.4e308,1\n-1.45e308,2\n")
        write(tmp_path / "query.csv", "1.7e308,0\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src"),
             *filter(None, [os.environ.get("PYTHONPATH")])]))
        runs = [subprocess.run([sys.executable, "-c", "from sortclust.cli import run; run()",
                                *args], cwd=tmp_path, env=env, capture_output=True, text=True,
                               timeout=120)
                for args in (["fit", "--input", "train.csv", "--radius", "0.3", "--model",
                              "model.json", "--output", "labels.txt"],
                             ["predict", "--input", "query.csv", "--model", "model.json"])]
        assert [(run.returncode, run.stderr) for run in runs] == [(0, ""), (0, "")]
        assert runs[1].stdout == "0\n"

    def test_dimension_mismatch(self, tmp_path, capsys):
        data = fixture_csv(tmp_path)
        model = tmp_path / "model.json"
        main(["fit", "--input", data, "--output", str(tmp_path / "l.txt"),
              "--radius", "0.3", "--model", str(model)])
        wide = write(tmp_path / "wide.csv", "1.0,2.0\n")
        assert main(["predict", "--input", wide, "--model", str(model)]) == 2

    def test_model_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        data = fixture_csv(tmp_path)
        model = tmp_path / "model.json"
        model.write_bytes(b'{"version": 2, "mean": "\xff"}')
        out = tmp_path / "pred.txt"
        assert main(["predict", "--input", data, "--model", str(model),
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {model}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")
        assert not out.exists()

    def test_malformed_model_file(self, tmp_path, capsys):
        model = write(tmp_path / "model.json", '{"version": 1}')
        assert main(["explain", "--model", model]) == 2
        assert "malformed model" in capsys.readouterr().err
        data = fixture_csv(tmp_path)
        assert main(["predict", "--input", data, "--model", model]) == 2

    @pytest.mark.parametrize("version", ["true", "1.0", "2.0"])
    def test_model_version_that_is_no_integer(self, tmp_path, capsys, version):
        data = fixture_csv(tmp_path)
        model = tmp_path / "model.json"
        main(["fit", "--input", data, "--output", str(tmp_path / "l.txt"),
              "--radius", "0.3", "--model", str(model)])
        text = model.read_text()
        assert text.startswith('{"version": 2,')
        model.write_text(text.replace('{"version": 2,', '{"version": %s,' % version, 1))
        out = tmp_path / "pred.txt"
        assert main(["predict", "--input", data, "--model", str(model),
                     "--output", str(out)]) == 2
        assert "unsupported model version" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, corrupt", [
        ("mean", lambda text: "*" + text[1:]),
        ("starting_scores", lambda text: text[:-4]),
        ("group_members", lambda text: [0, 1, 2]),
    ])
    def test_corrupted_format2_model(self, tmp_path, capsys, field, corrupt):
        data = fixture_csv(tmp_path)
        model = tmp_path / "model.json"
        main(["fit", "--input", data, "--output", str(tmp_path / "l.txt"),
              "--radius", "0.3", "--model", str(model)])
        doc = json.loads(model.read_text())
        doc[field] = corrupt(doc[field])
        model.write_text(json.dumps(doc))
        out = tmp_path / "pred.txt"
        assert main(["predict", "--input", data, "--model", str(model),
                     "--output", str(out)]) == 2
        assert f"malformed model: {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("version", [1, 2])
    def test_model_with_no_rows(self, tmp_path, capsys, version):
        # groups with no rows, as a model of n = 0 has: explain would divide
        # by the row counts
        data = fixture_csv(tmp_path)
        model = tmp_path / "model.json"
        main(["fit", "--input", data, "--output", str(tmp_path / "l.txt"),
              "--radius", "0.3", "--model", str(model)])
        doc = format1_doc(json.loads(model.read_text()))
        strip_rows(doc)
        model.write_text(json.dumps(doc if version == 1 else format2_doc(doc)))
        assert main(["explain", "--model", str(model)]) == 2
        assert "malformed model: group_members must partition" in capsys.readouterr().err

    def test_model_file_that_is_not_json(self, tmp_path, capsys):
        model = write(tmp_path / "model.json", "model\n")
        out = tmp_path / "pred.txt"
        assert main(["predict", "--input", fixture_csv(tmp_path), "--model", model,
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: malformed model: Expecting value: line 1 column 1 (char 0)")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "explain"])
    def test_model_nested_past_the_recursion_limit(self, tmp_path, capsys, command):
        model = write(tmp_path / "model.json", "[" * 100_000 + "]" * 100_000)
        argv = ["--input", fixture_csv(tmp_path)] if command == "predict" else []
        assert main([command, "--model", model, *argv]) == 2
        assert capsys.readouterr().err.startswith(
            "error: malformed model: maximum recursion depth exceeded")

    def test_missing_model_file(self, tmp_path):
        data = fixture_csv(tmp_path)
        assert main(["predict", "--input", data,
                     "--model", str(tmp_path / "nope.json")]) == 2


class TestExplain:
    @pytest.fixture()
    def model_path(self, tmp_path):
        # three singleton groups chained into one cluster
        data = write(tmp_path / "chain.csv", "0.0\n1.2\n2.4\n")
        model = tmp_path / "model.json"
        main(["fit", "--input", data, "--output", str(tmp_path / "l.txt"),
              "--radius", "0.8", "--scale", "1.3", "--model", str(model)])
        return str(model)

    def test_summary(self, model_path, capsys):
        assert main(["explain", "--model", model_path]) == 0
        out = capsys.readouterr().out
        assert "3 groups were subsequently merged into 1 clusters" in out

    def test_point(self, model_path, capsys):
        assert main(["explain", "--model", model_path, "--index", "1"]) == 0
        assert "group 1" in capsys.readouterr().out

    def test_pair_path(self, model_path, capsys):
        assert main(["explain", "--model", model_path, "--index", "0",
                     "--index2", "2"]) == 0
        assert "0 <-> 1 <-> 2" in capsys.readouterr().out

    def test_json_payload(self, model_path, capsys):
        assert main(["explain", "--model", model_path, "--index", "0",
                     "--index2", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["path"] == [0, 1, 2]

    def test_bad_index(self, model_path, capsys):
        assert main(["explain", "--model", model_path, "--index", "9"]) == 2

    def test_index2_requires_index(self, model_path):
        assert main(["explain", "--model", model_path, "--index2", "1"]) == 2


class TestImports:
    """Each command imports only the modules it uses."""

    MODULES = ("sortclust.evaluation", "sortclust.explain", "numpy.ma")

    def loaded_after(self, code, args=(), cwd=None):
        """The MODULES a fresh interpreter holds after running `code`."""
        code += f"\nprint('loaded', *(m for m in {self.MODULES!r} if m in sys.modules))"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        last = proc.stdout.splitlines()[-1].split()
        assert last[0] == "loaded"
        return set(last[1:])

    def test_commands(self, tmp_path):
        data = fixture_csv(tmp_path)
        command = "import sys\nfrom sortclust.cli import main\nassert main(sys.argv[1:]) == 0"
        fit_args = ["fit", "--input", data, "--output", "l.txt", "--radius", "0.3",
                    "--model", "model.json", "--stats"]
        assert self.loaded_after(command, fit_args, tmp_path) == {"sortclust.explain"}
        assert self.loaded_after(command, ["predict", "--input", data, "--model", "model.json",
                                           "--output", "p.txt"], tmp_path) == set()
        assert self.loaded_after(command, ["explain", "--model", "model.json", "--index", "0",
                                           "--index2", "5"], tmp_path) == {"sortclust.explain"}

    def test_package_names(self):
        # as bench/tracing.py imports them: submodules through the package
        assert self.loaded_after("import sys\nfrom sortclust import postprocess, prep\n"
                                 "from sortclust.cli import _read_matrix, _write_labels") == set()
        assert self.loaded_after("import sys\nimport sortclust\n"
                                 "assert sortclust.explain_pair.__module__ == 'sortclust.explain'"
                                 ) == {"sortclust.explain"}
        assert self.loaded_after("import sys\nfrom sortclust import *\n"
                                 "import sortclust\n"
                                 "assert all(name in globals() for name in sortclust.__all__)\n"
                                 "assert set(sortclust.__all__) <= set(dir(sortclust))"
                                 ) == {"sortclust.evaluation", "sortclust.explain"}

    def test_unknown_name(self):
        import sortclust
        with pytest.raises(AttributeError, match="no_such_name"):
            sortclust.no_such_name


class TestEval:
    def test_self_comparison(self, tmp_path, capsys):
        labels = write(tmp_path / "l.txt", "0\n0\n1\n1\n")
        assert main(["eval", "--truth", labels, "--pred", labels]) == 0
        out = capsys.readouterr().out
        assert "ari 1.000000" in out and "ami 1.000000" in out

    def test_known_negative_value(self, tmp_path, capsys):
        truth = write(tmp_path / "t.txt", "0\n1\n0\n1\n")
        pred = write(tmp_path / "p.txt", "0\n0\n1\n1\n")
        assert main(["eval", "--truth", truth, "--pred", pred,
                     "--metric", "ari"]) == 0
        assert "ari -0.500000" in capsys.readouterr().out

    def test_byte_order_mark_after_the_first_line_reports_its_row(self, tmp_path, capsys):
        labels = write(tmp_path / "l.txt", "0\n\ufeff1\n")
        assert main(["eval", "--truth", labels, "--pred", labels]) == 2
        assert "malformed label on row 2: '\\ufeff1'" in capsys.readouterr().err

    @pytest.mark.parametrize("label", [2**63, -2**63 - 1, 10**20])
    def test_label_beyond_int64_reports_its_row(self, tmp_path, capsys, label):
        labels = write(tmp_path / "l.txt", f"0\n{label}\n")
        assert main(["eval", "--truth", labels, "--pred", labels]) == 2
        assert capsys.readouterr().err == (
            f"error: {labels}: label out of the int64 range on row 2\n")

    def test_labels_at_the_ends_of_int64(self, tmp_path, capsys):
        labels = write(tmp_path / "l.txt", f"{-2**63}\n{2**63 - 1}\n{2**63 - 1}\n")
        assert main(["eval", "--truth", labels, "--pred", labels]) == 0
        assert "ari 1.000000" in capsys.readouterr().out

    def test_length_mismatch(self, tmp_path, capsys):
        truth = write(tmp_path / "t.txt", "0\n1\n")
        pred = write(tmp_path / "p.txt", "0\n1\n1\n")
        assert main(["eval", "--truth", truth, "--pred", pred]) == 2

    def test_labels_that_are_not_utf8_name_the_file(self, tmp_path, capsys):
        truth = write(tmp_path / "t.txt", "0\n1\n")
        bad = tmp_path / "p.txt"
        bad.write_bytes(b"0\n\xff1\n")
        assert main(["eval", "--truth", truth, "--pred", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")


class TestProbe:
    def test_monotone_in_dimension(self, capsys):
        assert main(["probe", "--grid-c", "0", "--grid-r", "0.5",
                     "--grid-s", "0.3", "--grid-d", "2,5,10"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        ratios = [float(line.split()[-1]) for line in lines]
        assert all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))

    def test_large_radius_saturates(self, capsys):
        assert main(["probe", "--grid-c", "0", "--grid-r", "20",
                     "--grid-s", "0.3", "--grid-d", "10"]) == 0
        line = capsys.readouterr().out.strip().split("\n")[-1]
        assert float(line.split()[-1]) >= 0.999

    def test_tiny_s_saturates(self, capsys):
        assert main(["probe", "--grid-c", "0.5", "--grid-r", "0.5",
                     "--grid-s", "0.004", "--grid-d", "3"]) == 0
        line = capsys.readouterr().out.strip().split("\n")[-1]
        assert float(line.split()[-1]) >= 0.999

    def test_dimension_below_two(self, capsys):
        assert main(["probe", "--grid-d", "1"]) == 2

    @pytest.mark.parametrize("flag, value", [("--grid-r", "1e10"), ("--grid-r", "1e200"),
                                             ("--grid-s", "1e-300"), ("--grid-s", "1e-155")])
    def test_far_ends_of_the_parameter_range(self, capsys, flag, value):
        assert main(["probe", flag, value]) == 0
        line = capsys.readouterr().out.strip().split("\n")[-1]
        assert 0.999 <= float(line.split()[-1]) <= 1.0

    def test_chi_square_factor_out_of_reach_names_d(self, capsys):
        assert main(["probe", "--grid-s", "1e-10", "--grid-d", "100000"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: d=100000 too large for the chi-square factor: ")


class TestBlobs:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["blobs", "--n", "30", "--d", "3", "--k", "3",
                         "--std", "0.5", "--seed", "5", "--output", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_truth_and_header(self, tmp_path):
        data, truth = tmp_path / "d.csv", tmp_path / "t.txt"
        assert main(["blobs", "--n", "10", "--d", "2", "--k", "2", "--seed", "1",
                     "--output", str(data), "--truth", str(truth), "--header"]) == 0
        lines = data.read_text().strip().split("\n")
        assert lines[0] == "f0,f1"
        assert len(lines) == 11
        assert len(truth.read_text().split()) == 10

    def test_failed_truth_writes_nothing(self, tmp_path, capsys):
        assert main(["blobs", "--n", "10", "--d", "2", "--k", "2",
                     "--output", str(tmp_path / "d.csv"),
                     "--truth", str(tmp_path / "nodir" / "t.txt")]) == 2
        assert "error:" in capsys.readouterr().err
        # no data file and no temporary file left behind
        assert list(tmp_path.iterdir()) == []

    def test_truth_naming_the_data_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["blobs", "--n", "10", "--d", "2", "--k", "2",
                     "--output", "d.csv", "--truth", "./d.csv"]) == 2
        assert "d.csv and ./d.csv name the same file" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_truth_naming_a_directory_writes_nothing(self, tmp_path, capsys):
        (tmp_path / "t").mkdir()
        assert main(["blobs", "--n", "10", "--d", "2", "--k", "2",
                     "--output", str(tmp_path / "d.csv"), "--truth", str(tmp_path / "t")]) == 2
        assert "is a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["t"]
        assert list((tmp_path / "t").iterdir()) == []

    @pytest.mark.parametrize("std", ["nan", "inf"])
    def test_non_finite_std_writes_nothing(self, tmp_path, capsys, std):
        assert main(["blobs", "--n", "20", "--d", "2", "--k", "2", "--std", std,
                     "--output", str(tmp_path / "d.csv")]) == 2
        assert "std must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_n_below_k(self, tmp_path, capsys):
        assert main(["blobs", "--n", "2", "--d", "2", "--k", "5",
                     "--output", str(tmp_path / "x.csv")]) == 2


class TestThreadsVariable:
    def test_sortclust_threads_is_ignored(self, tmp_path, monkeypatch):
        # the package runs on one thread and reads no setting for it
        data = fixture_csv(tmp_path)
        plain, many = tmp_path / "plain.txt", tmp_path / "many.txt"
        assert main(["fit", "--input", data, "--output", str(plain), "--radius", "0.3"]) == 0
        monkeypatch.setenv("SORTCLUST_THREADS", "many")
        assert main(["fit", "--input", data, "--output", str(many), "--radius", "0.3"]) == 0
        assert many.read_bytes() == plain.read_bytes()


# Each case, read with and without --header and --drop-bad-rows, must give the
# row reader's matrix bit for bit or its exact error.
CSV_CORPUS = {
    "clean": "1.5,-2\n3,4e-3\n",
    "blank-middle": "1,2\n\n3,4\n",
    "blank-end": "1,2\n3,4\n\n",
    "all-blank": "\n\n",
    "leading-blank": "\n1,2\n",
    "whitespace-line": "1,2\n  \t \n3,4\n",
    "hash-line": "1,2\n# note\n3,4\n",
    "nan": "1,2\nnan,4\n5,6\n",
    "inf": "1,2\n3,inf\n",
    "-inf": "-inf,2\n3,4\n",
    "overflow": "1,2\n1e400,4\n",
    "underscore": "1_0,2\n3,4\n",
    "bom": "\ufeff1,2\n3,4\n",
    "bom-header": "\ufefff0,f1\n1,2\n3,4\n",
    "bom-second-line": "1,2\n\ufeff3,4\n",
    "crlf": "1,2\r\n3,4\r\n",
    "cr": "1,2\r3,4\r",
    "no-final-newline": "1,2\n3,4",
    "trailing-comma": "1,2,\n3,4,\n",
    "spaces": " 1 , 2 \n\t3,\xa04\t\n",
    "ragged": "1,2\n3\n5,6\n",
    "single-column": "1\n-0.0\n3\n",
    "header-only": "f0,f1\n",
    "empty": "",
}


def _outcome(read):
    try:
        matrix = read()
    except ValueError as exc:
        return ("error", str(exc))
    return ("matrix", matrix.shape, matrix.dtype, matrix.tobytes())


def _row_reader(path, header, drop_bad_rows):
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.readlines()
    return cli._parse_rows(path, lines, header, drop_bad_rows)


class TestReadMatrix:
    @pytest.mark.parametrize("drop_bad_rows", [False, True])
    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("case", sorted(CSV_CORPUS))
    def test_fast_path_reads_what_the_row_reader_reads(self, tmp_path, case, header,
                                                       drop_bad_rows):
        path = str(tmp_path / "in.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(CSV_CORPUS[case])
        expected = _outcome(lambda: _row_reader(path, header, drop_bad_rows))
        assert _outcome(lambda: cli._read_matrix(path, header, drop_bad_rows)) == expected

    @pytest.mark.parametrize("case", ["clean", "crlf", "cr", "no-final-newline",
                                      "spaces", "single-column"])
    def test_clean_files_take_the_fast_path(self, tmp_path, monkeypatch, case):
        path = str(tmp_path / "in.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(CSV_CORPUS[case])
        expected = _row_reader(path, False, False)
        monkeypatch.setattr(cli, "_parse_rows", None)
        assert cli._read_matrix(path, False, False).tobytes() == expected.tobytes()

    def test_random_round_trip(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((300, 7)) * 10.0 ** rng.integers(-310, 300, (300, 7))
        data[0, :3] = [0.0, -0.0, 5e-324]
        path = str(tmp_path / "in.csv")
        np.savetxt(path, data, fmt="%.17g", delimiter=",")
        expected = _row_reader(path, False, False)
        assert expected.tobytes() == data.tobytes()
        monkeypatch.setattr(cli, "_parse_rows", None)
        matrix = cli._read_matrix(path, False, False)
        assert matrix.shape == data.shape and matrix.tobytes() == data.tobytes()


class TestWriteOutputs:
    def test_bytes_on_disk_are_the_text(self, tmp_path):
        texts = {"a.txt": "1\n-2\n", "b.txt": "", "c.txt": "\u00e9\u2028x\r\n"}
        cli._write_outputs([(str(tmp_path / name), text) for name, text in texts.items()])
        for name, text in texts.items():
            assert (tmp_path / name).read_bytes() == text.encode("utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(texts)

    @pytest.mark.parametrize("how", ["unsupported", "missing"])
    def test_without_preallocation(self, tmp_path, monkeypatch, how):
        data = fixture_csv(tmp_path)
        names = ("l.txt", "m.json", "p.csv")

        def fit(directory):
            directory.mkdir()
            assert main(["fit", "--input", data, "--radius", "0.3",
                         "--output", str(directory / names[0]),
                         "--model", str(directory / names[1]),
                         "--plot-data", str(directory / names[2])]) == 0
            return [(directory / name).read_bytes() for name in names]

        expected = fit(tmp_path / "with")
        if how == "missing":
            monkeypatch.delattr(os, "posix_fallocate", raising=False)
        else:
            def unsupported(fd, offset, length):
                raise OSError(errno.EOPNOTSUPP, os.strerror(errno.EOPNOTSUPP))
            monkeypatch.setattr(os, "posix_fallocate", unsupported)
        assert fit(tmp_path / "without") == expected

    def test_replaces_existing_targets(self, tmp_path):
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for path in paths:
            path.write_text("old contents, longer than the new ones\n")
        inodes = [path.stat().st_ino for path in paths]
        cli._write_outputs([(str(paths[0]), "1\n"), (str(paths[1]), "2\n")])
        assert [path.read_text() for path in paths] == ["1\n", "2\n"]
        # renamed over the target, not rewritten in place
        assert [path.stat().st_ino for path in paths] != inodes
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]

    def test_failed_write_keeps_the_old_targets(self, tmp_path):
        old = tmp_path / "a.txt"
        old.write_text("old\n")
        with pytest.raises(OSError, match="nodir"):
            cli._write_outputs([(str(old), "new\n"),
                                (str(tmp_path / "nodir" / "b.txt"), "new\n")])
        assert old.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]

    @pytest.mark.parametrize("stale", ["out.txt", "m.json"])
    def test_existing_temporary_is_not_removed(self, tmp_path, capsys, stale):
        # a temporary left by a crashed run whose pid this process reuses
        data = fixture_csv(tmp_path)
        leftover = tmp_path / f"{stale}.{os.getpid()}.tmp"
        leftover.write_bytes(b"left by another run\n")
        assert main(["fit", "--input", data, "--radius", "0.3",
                     "--output", str(tmp_path / "out.txt"),
                     "--model", str(tmp_path / "m.json")]) == 2
        assert f"File exists: '{leftover}'" in capsys.readouterr().err
        assert leftover.read_bytes() == b"left by another run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", leftover.name]

    def test_directory_target_is_rejected_before_any_write(self, tmp_path):
        # the directory is the second target: the first keeps its bytes
        (tmp_path / "dir").mkdir()
        old = tmp_path / "a.txt"
        old.write_text("old\n")
        with pytest.raises(IsADirectoryError, match="dir"):
            cli._write_outputs([(str(old), "new\n"), (str(tmp_path / "dir"), "new\n")])
        assert old.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "dir"]
        assert list((tmp_path / "dir").iterdir()) == []

    def test_failed_rename_keeps_the_old_targets(self, tmp_path):
        # every temporary file is written; the first rename fails
        (tmp_path / "dir").mkdir()
        old = tmp_path / "a.txt"
        old.write_text("old\n")
        with pytest.raises(OSError):
            cli._write_outputs([(str(tmp_path / "dir"), "new\n"), (str(old), "new\n")])
        assert old.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "dir"]
        assert list((tmp_path / "dir").iterdir()) == []

    @pytest.mark.parametrize("failing", [0, 1])
    def test_failed_rename_removes_every_temporary(self, tmp_path, monkeypatch, capsys,
                                                   failing):
        # every temporary is written, then rename number `failing` fails: the
        # targets replaced before it hold the new bytes, the others their old
        # ones, no temporary is left and the command exits 2
        data = fixture_csv(tmp_path)
        targets = [tmp_path / "out.txt", tmp_path / "m.json"]
        for target in targets:
            target.write_bytes(b"old " + target.name.encode() + b"\n")
        renames, real = [], os.replace

        def replace(src, dst):
            renames.append(dst)
            if len(renames) == failing + 1:
                raise OSError(errno.EIO, os.strerror(errno.EIO), src)
            return real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert main(["fit", "--input", data, "--radius", "0.3",
                     "--output", str(targets[0]), "--model", str(targets[1])]) == 2
        assert renames == [str(target) for target in targets[:failing + 1]]
        assert os.strerror(errno.EIO) in capsys.readouterr().err
        assert targets[0].read_bytes() == (b"0\n0\n0\n1\n1\n1\n" if failing else b"old out.txt\n")
        assert targets[1].read_bytes() == b"old m.json\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "m.json", "out.txt"]

    def test_labels_text(self):
        labels = np.array([3, -1, 0, 12], dtype=np.int64)
        assert cli._labels_text(labels) == "3\n-1\n0\n12\n"

    @pytest.mark.parametrize("labels", [[], [0], [-1], [7, 7, 7], [3, -1, 0, 12, -1, 3],
                                        [2**62, -2**63, 2**63 - 1, -1, 2**62]])
    def test_labels_text_formats_each_label_as_str_does(self, labels):
        # each distinct label is formatted once; the text is the plain join's
        assert cli._labels_text(np.array(labels, dtype=np.int64)) == \
            "\n".join(map(str, labels)) + "\n"

    def test_labels_text_of_many_repeated_labels(self):
        labels = np.random.default_rng(0).integers(-1, 500, size=20_000)
        assert cli._labels_text(labels) == "\n".join(map(str, labels.tolist())) + "\n"
