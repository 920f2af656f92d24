"""A seeded input fuzz: mutated CSVs, label files and format-1 and format-2
models go through the CLI in process and through `fit`, `predict` and
`from_json`.

Every CLI case must exit 0 or 2 with no exception escaping `main`, no numpy
warning, and no output file left behind on exit 2; at the API, every failure
must be a ValueError. The generator is stdlib `random` with a fixed seed, so
a failing case recurs; the message names it.
"""

import base64
import contextlib
import copy
import io
import json
import random
import struct
import warnings

import numpy as np
import pytest

from sortclust.cli import main
from sortclust.evaluation import make_blobs
from sortclust.postprocess import fit, from_json, predict, to_json

from _oracles import FORMAT2_ARRAYS, format1_doc

SEED = 33

# Field values a CSV should reject, or read as numbers at float64's edges.
FIELDS = ["nan", "NaN", "inf", "-inf", "1e309", "-1e309", "", " ", "1_0", "\uff10",
          "\uff11.\uff15", "0x10", "1e-320", "5e-324", "1e308", "-1.7e308", "abc", "\x00",
          "True", "1.5.5", "+1", "  3  ", "1e", "9" * 400, "\"1\"", "1;2", "\t", "\u0663",
          "1e-400", "-0"]
# Lines a label file should reject, or read as labels at int64's edges.
LABELS = ["1.5", "nan", "9" * 30, "-1", "", " 3 ", "x", "1e3", "\uff10", "0x1", "+2",
          str(2 ** 63), str(-2 ** 63), "\u0663", "1_0", "\x00", "True", "2 3"]
# JSON values put in place of a model's fields and entries.
VALUES = [None, True, False, "x", "", [], {}, -1, 0, 1, 2 ** 62, -2 ** 63, 10 ** 30, 1.5,
          float("nan"), float("inf"), float("-inf"), [[1]], [None], "AAAA", 1e308, -0.5,
          [1, 2], {"a": 1}, "=", 2 ** 63]
# 8-byte entries written over a format-2 array.
ENTRIES = [struct.pack("<d", v) for v in (float("nan"), float("inf"), -1.0, 2.0 ** 62, 1e308)]
ENTRIES += [struct.pack("<q", v) for v in (-1, 2 ** 62, -2 ** 63, 2 ** 31)]


def csv_text(rows) -> str:
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def mutate_csv(rng: random.Random, text: str) -> bytes:
    """`text` with one to three random edits, as bytes (some not UTF-8)."""
    lines = text.splitlines(keepends=True)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(10)
        i = rng.randrange(len(lines)) if lines else 0
        if op <= 2 and lines:    # a field replaced
            fields = lines[i].rstrip("\n").split(",")
            fields[rng.randrange(len(fields))] = rng.choice(FIELDS)
            lines[i] = ",".join(fields) + "\n"
        elif op == 3 and lines:    # a line dropped, repeated, emptied or cut
            lines[i:i + 1] = rng.choice([[], [lines[i]] * 2, ["\n"], [lines[i][:rng.randrange(
                len(lines[i]) + 1)]]])
        elif op == 4:    # a stray comma, or a field more or less
            line = lines[i] if lines else "\n"
            at = rng.randrange(len(line))
            lines[i:i + 1] = [line[:at] + "," + line[at:]]
        elif op == 5:    # a header line
            lines.insert(0, "f0,f1,f2\n")
        elif op == 6:
            lines = [line.replace("\n", "\r\n") for line in lines]
        elif op == 7 and lines:    # no final newline
            lines[-1] = lines[-1].rstrip("\n")
        elif op == 8:
            lines.insert(0, "\ufeff")
        else:    # a character inserted anywhere
            joined = "".join(lines)
            at = rng.randrange(len(joined) + 1)
            lines = [joined[:at] + rng.choice(["\x00", ",", "\n", "e", "-", ".", "\ufeff", "\xa0"])
                     + joined[at:]]
    data = "".join(lines).encode("utf-8")
    if rng.random() < 0.05:    # a byte no UTF-8 text holds
        at = rng.randrange(len(data) + 1)
        data = data[:at] + rng.choice([b"\xff", b"\xc3", b"\x80"]) + data[at:]
    return data


def mutate_labels(rng: random.Random, count: int) -> bytes:
    lines = [f"{rng.randrange(3)}\n" for _ in range(count)]
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(6)
        i = rng.randrange(len(lines)) if lines else 0
        if op <= 2 and lines:
            lines[i] = rng.choice(LABELS) + "\n"
        elif op == 3 and lines:
            del lines[i]
        elif op == 4:
            lines = [line.replace("\n", rng.choice(["\r\n", "", "\n\n"])) for line in lines]
        else:
            lines.insert(0, "\ufeff")
    data = "".join(lines).encode("utf-8")
    if rng.random() < 0.05:
        data += b"\xff"
    return data


def slots(node):
    """Every (container, key) pair in a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from slots(value)


def mutate_model(rng: random.Random, doc: dict) -> str:
    """The JSON text of `doc` (format 1 or 2) with one to three random edits."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(6)
        node, key = rng.choice(list(slots(doc)))
        value = node[key]
        if op <= 1:
            node[key] = copy.deepcopy(rng.choice(VALUES))
        elif op == 2 and isinstance(node, dict):
            del node[key]
        elif op == 3 and isinstance(value, list):
            del value[rng.randrange(len(value) + 1):]
        elif key in FORMAT2_ARRAYS and isinstance(value, str):
            try:    # an earlier edit may have left it no base64
                raw = bytearray(base64.b64decode(value.encode("utf-8")))
            except ValueError:
                raw = bytearray(value.encode("utf-8"))
            at = rng.randrange(len(raw) + 1)
            edit = rng.randrange(4)
            if edit == 0 and raw:    # a bit flipped
                raw[min(at, len(raw) - 1)] ^= 1 << rng.randrange(8)
            elif edit == 1:    # cut, whole entries or not
                del raw[at:at + rng.choice([1, 3, 8, 16])]
            elif edit == 2:    # padded
                raw[at:at] = bytes(rng.randrange(256) for _ in range(rng.choice([1, 8])))
            elif len(raw) >= 8:    # an entry at a float64 or int64 edge
                at = 8 * rng.randrange(len(raw) // 8)
                raw[at:at + 8] = rng.choice(ENTRIES)
            text = base64.b64encode(bytes(raw)).decode("ascii")
            if rng.random() < 0.1:    # not base64 at all
                at = rng.randrange(len(text) + 1)
                text = text[:at] + rng.choice(["!", "=", " ", "-", "\xe9"]) + text[at:]
            node[key] = text
    text = json.dumps(doc)
    op = rng.randrange(20)
    if op == 0:
        text = text[:rng.randrange(len(text))]
    elif op == 1:
        text = "[" * 100_000 + "]" * 100_000    # nested past the recursion limit
    elif op == 2:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(["}", "{", ",", "\"", "\x00", "NaN"]) + text[at:]
    return text


@pytest.fixture(scope="module")
def base():
    """The base CSV text and two fitted models: distance-merged with outliers
    reassigned, and density-merged with outliers apart."""
    rows = make_blobs(24, 3, 3, 1.0, 5)[0]
    return (csv_text(rows), fit(rows, radius=0.3),
            fit(rows, radius=0.4, minpts=4, merge_mode="density", outlier_mode="separate"))


class Runner:
    """Runs ``cli.main`` in `folder`, where only the files in `inputs` may
    remain after it, and removes what a successful run wrote."""

    def __init__(self, folder, inputs):
        self.folder, self.inputs = folder, sorted(inputs)

    def __call__(self, case, *argv) -> int:
        argv = [str(self.folder / a) if a in self.inputs or a.startswith("out") else a
                for a in argv]
        err = io.StringIO()
        try:
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main(argv)
        except BaseException as exc:
            raise AssertionError(f"{argv[0]} raised on case {case!r}") from exc
        assert code in (0, 2), (case, argv, code)
        left = sorted(p.name for p in self.folder.iterdir())
        if code == 2:
            assert left == self.inputs, (case, argv, err.getvalue(), left)
        for name in set(left) - set(self.inputs):
            (self.folder / name).unlink()
        return code


def only_value_errors(case, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except ValueError:
            return None
        except BaseException as exc:
            raise AssertionError(f"raised on case {case!r}") from exc


def test_mutated_csvs(base, tmp_path):
    text, model, _ = base
    rng = random.Random(SEED)
    (tmp_path / "model.json").write_text(to_json(model))
    run = Runner(tmp_path, ["data.csv", "model.json"])
    codes = []
    for _ in range(100):
        data = mutate_csv(rng, text)
        (tmp_path / "data.csv").write_bytes(data)
        for flags in ([], ["--drop-bad-rows"], ["--header"], ["--header", "--drop-bad-rows"]):
            codes.append(run(data, "fit", "--input", "data.csv", "--radius", "0.3",
                             "--output", "out.txt", "--model", "out.json", *flags))
        codes.append(run(data, "predict", "--model", "model.json", "--input", "data.csv",
                         "--output", "out.txt"))
        rows = [line.split(",") for line in data.decode("utf-8", "replace").splitlines()]
        only_value_errors(data, lambda: fit(rows, radius=0.3))
        only_value_errors(data, lambda: predict(model, rows))
    # the generator reaches both outcomes
    assert 0 < codes.count(2) < len(codes)


def test_mutated_label_files(tmp_path):
    rng = random.Random(SEED + 1)
    run = Runner(tmp_path, ["truth.txt", "pred.txt"])
    codes = []
    for _ in range(150):
        truth, pred = mutate_labels(rng, 12), "".join(f"{i % 3}\n" for i in range(12)).encode()
        if rng.random() < 0.5:
            truth, pred = pred, truth
        (tmp_path / "truth.txt").write_bytes(truth)
        (tmp_path / "pred.txt").write_bytes(pred)
        codes.append(run((truth, pred), "eval", "--truth", "truth.txt", "--pred", "pred.txt"))
    assert 0 < codes.count(2) < len(codes)


@pytest.mark.parametrize("version", [1, 2])
def test_mutated_models(base, tmp_path, version):
    text, *models = base
    rng = random.Random(SEED + 1 + version)
    (tmp_path / "data.csv").write_text(text)
    queries = np.loadtxt(io.StringIO(text), delimiter=",")
    run = Runner(tmp_path, ["data.csv", "model.json"])
    docs = [json.loads(to_json(m)) for m in models]
    docs = [format1_doc(doc) for doc in docs] if version == 1 else docs
    codes = []
    for _ in range(80):
        mutated = mutate_model(rng, rng.choice(docs))
        (tmp_path / "model.json").write_text(mutated)
        i, j = rng.randrange(-2, 27), rng.randrange(-2, 27)
        for argv in (["predict", "--input", "data.csv", "--output", "out.txt"],
                     ["explain"], ["explain", "--index", str(i)],
                     ["explain", "--index", str(i), "--index2", str(j), "--json"]):
            codes.append(run(mutated, *argv, "--model", "model.json"))
        loaded = only_value_errors(mutated, lambda: from_json(mutated))
        if loaded is not None:
            only_value_errors(mutated, lambda: predict(loaded, queries))
    assert 0 < codes.count(2) < len(codes)
