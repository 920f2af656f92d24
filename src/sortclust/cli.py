"""Command-line interface: fit, predict, explain, eval, probe, blobs.

Exit code 0 on success, 2 on any usage or input error; errors print to
stderr and nothing is written to output paths on failure: `fit` and `blobs`
write all of their output files or none of them.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import os
import sys

import numpy as np

# Each command imports the modules it uses, so that none pays for the others'
# imports: `predict` loads neither `explain` nor `evaluation`.


def _read_matrix(path: str, header: bool, drop_bad_rows: bool) -> np.ndarray:
    """Read a numeric CSV: comma separator, '.' decimal, no quoting.

    Rows with non-numeric or non-finite fields, or with an inconsistent
    number of fields, are rejected with their row number unless
    drop_bad_rows is set, in which case they are silently dropped.

    numpy's C reader parses the file first. Its result is kept only when it
    has one row per data line and every value is finite: it skips empty
    lines and accepts nan and inf, and it raises on every other row the row
    reader rejects (and on a few it accepts, such as `1_0`). On any other
    file the row reader runs instead, so it alone produces the diagnostics
    and drops rows.
    """
    from .postprocess import read_lines
    lines = read_lines(path)
    data = lines[int(header):]
    # loadtxt warns when it reads no rows, which happens only when every data
    # line is empty; an empty first data line is the row reader's case anyway.
    if data and data[0].strip():
        try:
            matrix = np.loadtxt(data, dtype=np.float64, delimiter=",",
                                comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if len(matrix) == len(data) and np.isfinite(matrix).all():
                return matrix
    return _parse_rows(path, lines, header, drop_bad_rows)


def _parse_rows(path: str, lines: list[str], header: bool,
                drop_bad_rows: bool) -> np.ndarray:
    """The row reader of `_read_matrix`: one Python float per field."""
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        if header and lineno == 1:
            continue
        line = line.strip()
        bad = None
        values: list[float] = []
        if not line:
            bad = "empty row"
        else:
            for part in line.split(","):
                try:
                    v = float(part)
                except ValueError:
                    bad = f"non-numeric field {part.strip()!r}"
                    break
                if not np.isfinite(v):
                    bad = f"non-finite field {part.strip()!r}"
                    break
                values.append(v)
        if bad is None and width is not None and len(values) != width:
            bad = f"expected {width} fields, found {len(values)}"
        if bad is not None:
            if drop_bad_rows:
                continue
            raise ValueError(f"{path}: malformed row {lineno}: {bad}")
        if width is None:
            width = len(values)
        rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _read_labels(path: str) -> np.ndarray:
    from .postprocess import read_lines
    labels: list[int] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            labels.append(int(line))
        except ValueError:
            raise ValueError(f"{path}: malformed label on row {lineno}: {line!r}")
        if not -2**63 <= labels[-1] < 2**63:
            raise ValueError(f"{path}: label out of the int64 range on row {lineno}")
    if not labels:
        raise ValueError(f"{path}: no labels")
    return np.asarray(labels, dtype=np.int64)


def _write_outputs(outputs: list[tuple[str, str]]) -> None:
    """Write each text to its path, all or none: every text goes to a
    temporary file beside its target, and only when all are written are they
    renamed over their targets. The temporary files a call creates never
    outlive it; a file already at a temporary's name is an error naming that
    file, and is left as it is.

    Two paths that name the same file are a ValueError, and a path that
    names a directory is an IsADirectoryError, both raised before anything
    is written. Each temporary file is preallocated to its size before it is
    written: ext4 (with its default auto_da_alloc) flushes a file that still
    has delayed-allocation blocks when it is renamed over an existing one,
    which costs tens of milliseconds, and preallocated blocks are not
    delayed. Nothing is fsynced, so a power loss right after a call may
    leave a replaced target incomplete.
    """
    seen: dict[str, str] = {}
    for path, _ in outputs:
        key = os.path.realpath(path)
        if key in seen:
            raise ValueError(f"{seen[key]} and {path} name the same file")
        if os.path.isdir(key):
            raise IsADirectoryError(errno.EISDIR, "output path is a directory", path)
        seen[key] = path
    temps = [f"{path}.{os.getpid()}.tmp" for path, _ in outputs]
    created: list[str] = []
    try:
        for (_, text), temp in zip(outputs, temps):
            data = text.encode("utf-8")
            try:
                with open(temp, "xb") as fh:
                    created.append(temp)
                    if data:
                        try:
                            os.posix_fallocate(fh.fileno(), 0, len(data))
                        except (AttributeError, OSError):
                            pass  # not available here: the rename may flush
                    fh.write(data)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, temp) from None
        for (path, _), temp in zip(outputs, temps):
            os.replace(temp, path)
    finally:
        for temp in created:
            if os.path.exists(temp):
                os.remove(temp)


def _labels_text(labels: np.ndarray) -> str:
    values, index = np.unique(labels, return_inverse=True)    # each label formatted once
    return "\n".join(np.array([*map(str, values.tolist())], dtype=object)[index].tolist()) + "\n"


def _write_labels(labels: np.ndarray, path: str | None) -> None:
    if path is None:
        sys.stdout.write(_labels_text(labels))
    else:
        _write_outputs([(path, _labels_text(labels))])


def _parse_grid(raw: str, flag: str, kind=float) -> list:
    try:
        return [kind(p) for p in raw.split(",") if p.strip() != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag} expects a comma-separated list of {noun}, got {raw!r}")


def cmd_fit(args) -> int:
    from .postprocess import fit, to_json
    data = _read_matrix(args.input, args.header, args.drop_bad_rows)
    model = fit(data, radius=args.radius, minpts=args.minpts, scale=args.scale,
                merge_mode=args.merge, outlier_mode=args.outliers)
    labels = model.labels
    outputs = []
    if args.output is not None:
        outputs.append((args.output, _labels_text(labels)))
    if args.model:
        outputs.append((args.model, to_json(model) + "\n"))
    if args.plot_data:
        from .prep import principal_plane
        centered = data - model.mean
        v1, v2 = principal_plane(centered)
        pc1 = (centered @ v1).tolist()
        pc2 = (centered @ v2).tolist()
        rows = (f"{pc1[i]!r},{pc2[i]!r},{model.point_group[i]},{labels[i]}\n"
                for i in range(model.n))
        outputs.append((args.plot_data, "pc1,pc2,group,cluster\n" + "".join(rows)))
    _write_outputs(outputs)
    if args.output is None:
        _write_labels(labels, None)
    if args.stats:
        from .explain import fit_stats_text
        print(fit_stats_text(model))
    return 0


def cmd_predict(args) -> int:
    from .postprocess import load_model, predict
    model = load_model(args.model)
    queries = _read_matrix(args.input, args.header, args.drop_bad_rows)
    labels = predict(model, queries)
    _write_labels(labels, args.output)
    return 0


def cmd_explain(args) -> int:
    from .explain import explain_pair, explain_point, explain_summary
    from .postprocess import load_model
    model = load_model(args.model)
    if args.index is None and args.index2 is not None:
        raise ValueError("--index2 requires --index")
    if args.index is None:
        report = explain_summary(model)
    elif args.index2 is None:
        report = explain_point(model, args.index)
    else:
        report = explain_pair(model, args.index, args.index2)
    print(json.dumps(report.structured) if args.json else report.text)
    return 0


def cmd_eval(args) -> int:
    from .evaluation import ami, ari
    truth = _read_labels(args.truth)
    pred = _read_labels(args.pred)
    if truth.size != pred.size:
        raise ValueError(f"label files differ in length: {truth.size} vs {pred.size}")
    if args.metric in ("ari", "both"):
        print(f"ari {ari(truth, pred):.6f}")
    if args.metric in ("ami", "both"):
        print(f"ami {ami(truth, pred):.6f}")
    return 0


def cmd_probe(args) -> int:
    from .evaluation import GaussianModelParams, model_ratio
    grids = [_parse_grid(args.grid_c, "--grid-c"), _parse_grid(args.grid_r, "--grid-r"),
             _parse_grid(args.grid_s, "--grid-s"), _parse_grid(args.grid_d, "--grid-d", int)]
    if not all(grids):
        raise ValueError("all four grids must be nonempty")
    print("c r s d ratio")
    for c, r, s, d in itertools.product(*grids):
        params = GaussianModelParams(c=c, r=r, s=s, d=d)
        print(f"{c:g} {r:g} {s:g} {d} {model_ratio(params):.6f}")
    return 0


def cmd_blobs(args) -> int:
    from .evaluation import make_blobs
    data, labels = make_blobs(args.n, args.d, args.k, args.std, args.seed)
    header = ",".join(f"f{j}" for j in range(args.d)) + "\n" if args.header else ""
    rows = (",".join(repr(float(v)) for v in row) + "\n" for row in data)
    outputs = [(args.output, header + "".join(rows))]
    if args.truth:
        outputs.append((args.truth, _labels_text(labels)))
    _write_outputs(outputs)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sortclust",
        description="Clustering by greedy aggregation of principal-score-sorted points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", required=True, help="input CSV of numeric rows")
        p.add_argument("--output", default=None, help="labels output path (default: stdout)")
        p.add_argument("--header", action="store_true",
                       help="input CSV has a single header row")
        p.add_argument("--drop-bad-rows", action="store_true",
                       help="drop malformed rows instead of failing")

    p_fit = sub.add_parser("fit", help="cluster a CSV file and write labels")
    add_io(p_fit)
    p_fit.add_argument("--radius", type=float, default=0.5,
                       help="unit-free grouping tolerance (default 0.5)")
    p_fit.add_argument("--minpts", type=int, default=0,
                       help="minimum cluster size (default 0)")
    p_fit.add_argument("--scale", type=float, default=1.5,
                       help="distance-merge multiplier in [1, 2] (default 1.5)")
    p_fit.add_argument("--merge", choices=["distance", "density"], default="distance",
                       help="group merging criterion (default distance)")
    p_fit.add_argument("--outliers", choices=["reassign", "separate"], default="reassign",
                       help="treatment of too-small clusters (default reassign)")
    p_fit.add_argument("--model", default=None, help="write the fitted model JSON here")
    p_fit.add_argument("--stats", action="store_true", help="print a fit report")
    p_fit.add_argument("--plot-data", default=None,
                       help="write per-point plot CSV (pc1, pc2, group, cluster)")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="label new points with a fitted model")
    add_io(p_pred)
    p_pred.add_argument("--model", required=True, help="fitted model JSON")
    p_pred.set_defaults(func=cmd_predict)

    p_exp = sub.add_parser("explain", help="explain a fit, one point, or a pair")
    p_exp.add_argument("--model", required=True, help="fitted model JSON")
    p_exp.add_argument("--index", type=int, default=None, help="data point index")
    p_exp.add_argument("--index2", type=int, default=None, help="second data point index")
    p_exp.add_argument("--json", action="store_true",
                       help="emit the machine-readable payload instead of text")
    p_exp.set_defaults(func=cmd_explain)

    p_eval = sub.add_parser("eval", help="score a predicted labeling against truth")
    p_eval.add_argument("--truth", required=True, help="ground-truth label file")
    p_eval.add_argument("--pred", required=True, help="predicted label file")
    p_eval.add_argument("--metric", choices=["ari", "ami", "both"], default="both")
    p_eval.set_defaults(func=cmd_eval)

    p_probe = sub.add_parser("probe", help="tabulate the window-hit-rate model")
    p_probe.add_argument("--grid-c", default="0", help="comma list of window centers")
    p_probe.add_argument("--grid-r", default="0.5", help="comma list of radii")
    p_probe.add_argument("--grid-s", default="0.3", help="comma list of elongations")
    p_probe.add_argument("--grid-d", default="2", help="comma list of dimensions (>= 2)")
    p_probe.set_defaults(func=cmd_probe)

    p_blobs = sub.add_parser("blobs", help="generate Gaussian blob data")
    p_blobs.add_argument("--n", type=int, required=True, help="number of points")
    p_blobs.add_argument("--d", type=int, required=True, help="feature dimension")
    p_blobs.add_argument("--k", type=int, required=True, help="number of blobs")
    p_blobs.add_argument("--std", type=float, default=1.0, help="blob standard deviation")
    p_blobs.add_argument("--seed", type=int, default=0, help="generator seed")
    p_blobs.add_argument("--output", required=True, help="data CSV output path")
    p_blobs.add_argument("--truth", default=None, help="truth labels output path")
    p_blobs.add_argument("--header", action="store_true", help="write a header row")
    p_blobs.set_defaults(func=cmd_blobs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
