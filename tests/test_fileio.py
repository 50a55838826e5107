import csv
import os

import numpy as np
import pytest

from blockspectra import fileio
from blockspectra.cli import main
from blockspectra.heterogeneity import (
    HeterogeneityReport,
    load_heatmap_csv,
    save_heatmap_csv,
    save_js0_summary,
)
from blockspectra.operators import load_matrix_csv
from blockspectra.slq import SpectralDensity, save_density_csv
from blockspectra.svgplot import heatmap_svg, line_plot_svg
from blockspectra.toynet import Dataset, load_dataset_csv, save_dataset_csv
from helpers import write_matrix_csv, write_spectrum_csv


# ---------------------------------------------------------------------------
# Exact bytes of each writer: CRLF rows, repr floats, LF text files
# ---------------------------------------------------------------------------

def _report():
    return HeterogeneityReport(
        labels=("a", "b"),
        pairwise=np.array([[0.0, 0.25], [0.25, 0.0]]),
        js0=0.25,
        normalization_mode="none",
        warnings=("b: fell back",),
    )


WRITERS = {
    "matrix": (
        lambda p: write_matrix_csv(p, np.array([[1.0, 0.1], [0.1, 2]])),
        b"c0,c1\r\n1.0,0.1\r\n0.1,2.0\r\n",
    ),
    "spectrum": (
        lambda p: write_spectrum_csv(p, [3, 0.5]),
        b"eigenvalue\r\n3.0\r\n0.5\r\n",
    ),
    "density": (
        lambda p: save_density_csv(p, SpectralDensity(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 0.5)),
        b"t,density\r\n0.0,1.0\r\n1.0,1.0\r\n",
    ),
    "heatmap": (
        lambda p: save_heatmap_csv(p, _report()),
        b"block,a,b\r\na,0.0,0.25\r\nb,0.25,0.0\r\n",
    ),
    "js0_summary": (
        lambda p: save_js0_summary(p, _report()),
        b"js0 = 0.25\nblocks = 2\nnormalization_mode = none\nwarning = b: fell back\n",
    ),
    "dataset": (
        lambda p: save_dataset_csv(p, Dataset(np.array([[0.1, 2.0], [3.0, -4.5]]), np.array([1, -1]))),
        b"x0,x1,label\r\n0.1,2.0,1.0\r\n3.0,-4.5,-1.0\r\n",
    ),
    "csv_cells": (
        lambda p: fileio.write_csv(p, ["n", "x", "y", "s"], [[7, np.float64(1e-300), 0.1, ""], [np.int64(3), 2.0, np.float32(0.5), "ok"]]),
        b"n,x,y,s\r\n7,1e-300,0.1,\r\n3,2.0,0.5,ok\r\n",
    ),
    "text": (
        lambda p: fileio.write_text(p, "k = 1\nj = 2\n"),
        b"k = 1\nj = 2\n",
    ),
}


def test_plain_number_rows_match_the_csv_module(tmp_path):
    # Rows of only ints and floats are joined directly; every row must read
    # exactly as the csv module writes it with floats as repr, in order.
    nan, inf = float("nan"), float("inf")
    rows = [
        [0, 1.5, -0.0, nan, inf, -inf, 10**30, -(10**19), 5e-324, 1e300],
        (3, 0.1),
        [],
        [np.float32(0.1), np.float64(-0.0), np.int64(7), 2],
        [np.float64(0.25), 1],
        [True, False, 1.0],
        [None, 2.5, ""],
        ["a,b", 'say "hi"', "two\nlines", 4.0],
        [nan, "x"],
    ]
    # A trajectory file's (iteration, ratio) rows, one of them mixed.
    trajectory = list(zip(range(1001), np.random.default_rng(0).random(1001).tolist()))
    trajectory[500] = (500, np.float64(0.5))
    rows += trajectory
    path = tmp_path / "rows.csv"
    fileio.write_csv(path, ["h1", "h,2"], iter(rows))
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h1", "h,2"])
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row])
    assert path.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_bytes_are_pinned(tmp_path, name):
    write, expected = WRITERS[name]
    path = tmp_path / "out"
    write(path)
    assert path.read_bytes() == expected
    assert os.listdir(tmp_path) == ["out"]


def test_svg_writers_end_lines_with_lf(tmp_path):
    line_plot_svg(tmp_path / "line.svg", [("s", [0, 1, 2], [1.0, 0.5, 0.25])], log_y=True)
    heatmap_svg(tmp_path / "heat.svg", _report().pairwise, ("a", "b"))
    for name in ("line.svg", "heat.svg"):
        data = (tmp_path / name).read_bytes()
        assert data.startswith(b"<svg ") and data.endswith(b"</svg>\n") and b"\r" not in data
    assert sorted(os.listdir(tmp_path)) == ["heat.svg", "line.svg"]


# ---------------------------------------------------------------------------
# Write policy
# ---------------------------------------------------------------------------

def test_failed_csv_write_keeps_previous_file_and_no_tmp(tmp_path):
    path = tmp_path / "data.csv"
    fileio.write_csv(path, ["x"], [[1.0]])
    before = path.read_bytes()

    def rows():
        yield [2.0]
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError):
        fileio.write_csv(path, ["x"], rows())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["data.csv"]


def test_failed_text_write_keeps_previous_file_and_no_tmp(tmp_path):
    path = tmp_path / "note.txt"
    fileio.write_text(path, "old\n")
    with pytest.raises(TypeError):
        fileio.write_text(path, b"not text")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["note.txt"]


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

# Values from 1e-300 to 1e300, both signs, each written as its shortest repr.
WIDE = (np.geomspace(1e-300, 1e300, 600) * np.where(np.arange(600) % 2, -1.0, 1.0)).reshape(-1, 3)
WIDE_ROWS = "".join(",".join(map(repr, row)) + "\n" for row in WIDE.tolist()).encode()

# name: (file bytes, read_table keywords, header, data rows)
TABLES = {
    "crlf_and_blank_rows": (b"a,b\r\n\r\n1,2\n\n3,4\r\n\r\n", {}, ["a", "b"], [[1, 2], [3, 4]]),
    "spaces_row_first": (b"  \n1,2\n3,4\n", {}, None, [[1, 2], [3, 4]]),
    "spaces_row_between_data": (b"1,2\n  \n3,4\n", {}, None, [[1, 2], [3, 4]]),
    "no_header": (b"1,2\n3,4", {}, None, [[1, 2], [3, 4]]),
    "padded_cells": (b" x , y \n 1 ,-2.5e3\n", {}, [" x ", " y "], [[1, -2500]]),
    "nan_and_inf": (b"nan,inf\n-inf,Infinity\n", {}, None, [[np.nan, np.inf], [-np.inf, np.inf]]),
    "quoted_cells": (b'"a","b,c"\n"1",2\n', {}, ["a", "b,c"], [[1, 2]]),
    "python_only_literal_is_a_header": (b"1_0,2\n3,4\n", {}, ["1_0", "2"], [[3, 4]]),
    "required_header": (b"1,2\n3,4\n", {"header_required": True}, ["1", "2"], [[3, 4]]),
    "row_labels": (
        b'block,a,"b,c"\na,0.0,0.5\n"b,c",0.5,0.0\n',
        {"header_required": True, "skip_columns": 1},
        ["block", "a", "b,c"],
        [[0, 0.5], [0.5, 0]],
    ),
    "wide_range_round_trip": (WIDE_ROWS, {}, None, WIDE),
    "byte_order_mark_no_header": (b"\xef\xbb\xbf1,0\n0,2\n", {}, None, [[1, 0], [0, 2]]),
    "byte_order_mark_header": (b"\xef\xbb\xbfc0,c1\n1,0\n0,2\n", {}, ["c0", "c1"], [[1, 0], [0, 2]]),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_read_table(tmp_path, name):
    content, kwargs, header, rows = TABLES[name]
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    got_header, table = fileio.read_table(path, **kwargs)
    expected = np.asarray(rows, dtype=float)
    assert got_header == header
    assert table.shape == expected.shape and table.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "content, message",
    [
        (b"1,2\n3\n", "the row on line 2 has width 1, the first data row width 2"),
        (b"c0,c1\r\n\r\n1,2\r\n3,4\r\n\r\n5,6,7\r\n", "the row on line 6 has width 3, the first data row width 2"),
        (b"c0,c1,c2\n1,2\n", "the header has 3 cells"),
        (b"1,2\n3,x\n", "the cell on line 2, column 2 is 'x': could not convert it to a number"),
        (b"c0,c1\r\n1,2\r\n\r\n3,x\r\n", "the cell on line 4, column 2 is 'x'"),
        (b"1,2\n \t \n3\n", "the row on line 3 has width 1, the first data row width 2"),
        (b"c0,c1\n\n", "no data rows"),
        (b"\xff\xfe1,2\n", "decode"),
    ],
    ids=["ragged_row", "ragged_row_after_header_and_blank_rows", "ragged_header", "non_numeric_cell",
         "non_numeric_cell_after_header_and_blank_rows", "ragged_row_after_spaces_row", "header_only",
         "undecodable"],
)
def test_bad_table_is_rejected_naming_the_file(tmp_path, capsys, content, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    with pytest.raises(ValueError, match="bad.csv") as info:
        fileio.read_table(path)
    assert message in str(info.value) and "usecols" not in str(info.value)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"source = matrix\nmatrix = {path}\n")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out"), "--cheap"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err


def test_matrix_header_is_optional(tmp_path):
    m = np.array([[1.0, 0.25], [0.25, -3.0]])
    with_header, bare = tmp_path / "h.csv", tmp_path / "b.csv"
    write_matrix_csv(with_header, m)
    np.savetxt(bare, m, fmt="%.17g", delimiter=",")
    assert np.array_equal(load_matrix_csv(with_header), m)
    assert np.array_equal(load_matrix_csv(bare), m)


# The package reads no density file back; "density" is the header-required
# read that tests give the files ``save_density_csv`` writes.
@pytest.mark.parametrize(
    "loader", [load_dataset_csv, load_heatmap_csv, lambda p: fileio.read_table(p, header_required=True)],
    ids=["dataset", "heatmap", "density"],
)
def test_empty_csv_is_rejected_naming_the_file(tmp_path, loader):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="empty.csv"):
        loader(path)


def test_dataset_header_is_optional(tmp_path):
    bare = tmp_path / "bare.csv"
    bare.write_text("0.5,1.5,-1\n-1,2,1\n3,-0.25,1\n")
    data = load_dataset_csv(bare)
    assert np.array_equal(data.X, [[0.5, 1.5], [-1.0, 2.0], [3.0, -0.25]])
    assert np.array_equal(data.y, [-1.0, 1.0, 1.0])
    with_header = tmp_path / "h.csv"
    save_dataset_csv(with_header, data)
    back = load_dataset_csv(with_header)
    assert np.array_equal(back.X, data.X) and np.array_equal(back.y, data.y)


# ---------------------------------------------------------------------------
# No temporary file survives a CLI run
# ---------------------------------------------------------------------------

CLI_RUNS = {
    "spectrum": "source = case\ncase = 3\nsvg = true\n",
    "heatmap": "source = case\ncase = 4\nsvg = true\n",
    "quadlab": "case = 3\noptimizer = gd,adam_fixed\neta_grid = true\ngrid_points = 3\nmax_iters = 200\nseeds = 1\nsvg = true\n",
    "toynet": "experiment = train\nsamples = 48\nfeatures = 3\nhidden = 4\nsteps = 20\nsnapshot_stride = 10\nsvg = true\n",
}


@pytest.mark.parametrize("subcommand", sorted(CLI_RUNS))
def test_cli_leaves_no_tmp_files(tmp_path, subcommand):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CLI_RUNS[subcommand])
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out), "--cheap"]) == 0
    names = os.listdir(out)
    assert "manifest.txt" in names and len(names) > 2
    assert not [n for n in names if n.endswith(".tmp")]
