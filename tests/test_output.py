"""Output formatting: block-wise CSV and SVG text against the per-cell form."""
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

import himcf.cli
from himcf.output import csv_text, svg_text, write_csv

SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16,
           1e-5, 0.1 + 0.2, -1.5, 123456789.125, 2.0**-1074 * 3, 1e308 * 1.7]


def per_cell_csv(header, rows):
    """The row-by-row writer: repr(float(x)) for every cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(cell)) for cell in row))
    return "\n".join(lines) + "\n"


class TestCsvText:
    def test_special_values_match_per_cell_repr(self):
        values = np.array(SPECIAL).reshape(-1, 1) * np.ones((1, 3))
        values[:, 1] = values[::-1, 0]
        blocks = [(None, values)]
        rows = [tuple(r) for r in values]
        assert csv_text(["a", "b", "c"], blocks) == per_cell_csv(["a", "b", "c"], rows)

    def test_time_column_is_written_once_per_block_row(self):
        rng = np.random.default_rng(7)
        times = [0.0, 0.1 + 0.2, np.float64(1e-5), 5e-324, -0.0]
        blocks = [(t, rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-20, 20, (4, 3)))
                  for t in times]
        blocks.append((np.float64(1e16), np.array(SPECIAL[:9]).reshape(3, 3)))
        rows = [(t, *row) for t, block in blocks for row in block]
        header = ["t", "x", "y", "z"]
        assert csv_text(header, blocks) == per_cell_csv(header, rows)

    def test_float32_cells_are_widened_like_float(self):
        block = np.array([[0.1, 1e-5], [3.3, -0.0]], dtype=np.float32)
        expected = per_cell_csv(["a", "b"], [tuple(r) for r in block])
        assert csv_text(["a", "b"], [(None, block)]) == expected

    def test_empty_blocks_add_no_rows(self):
        text = csv_text(["t", "x"], [(0.5, np.empty((0, 1))), (None, np.empty((0, 2)))])
        assert text == "t,x\n"

    def test_no_header_line_when_header_is_none(self):
        block = (0.5, np.array([[1.0, 2.0]]))
        assert csv_text(None, [block]) == "0.5,1.0,2.0\n"
        assert csv_text(None, []) == ""


def stream_blocks():
    """Blocks of every kind a CLI run writes: t None and float, empty, SPECIAL."""
    rng = np.random.default_rng(11)
    yield 0.0, np.array(SPECIAL[:12]).reshape(3, 4)
    yield 0.1 + 0.2, np.empty((0, 4))
    yield np.float64(5e-324), rng.standard_normal((7, 4))
    yield None, np.array(SPECIAL).reshape(-1, 1) * np.ones((1, 5))
    yield None, np.empty((0, 5))
    # Longer than one streamed piece, so the table is written in slices.
    yield None, rng.standard_normal((10000, 5)) * 10.0 ** rng.integers(-300, 300, (10000, 5))


class TestWriteCsv:
    def test_streamed_file_equals_csv_text(self, tmp_path):
        header = ["t", "a", "b", "c", "d"]
        write_csv(str(tmp_path / "s.csv"), header, stream_blocks())
        assert (tmp_path / "s.csv").read_bytes() == csv_text(header, stream_blocks()).encode()

    def test_writing_memory_does_not_grow_with_the_block_count(self, tmp_path):
        # A run's snapshot: M = 512 rows, full-precision t and cells.
        block = np.random.default_rng(5).standard_normal((512, 4))
        times = np.linspace(0.0, 0.3, 300).tolist()
        piece = len(csv_text(None, [(times[1], block)]))

        def blocks():
            for t in times:
                yield t, block

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_csv(str(tmp_path / "m.csv"), ["t", "a", "b", "c", "d"], blocks())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert (tmp_path / "m.csv").stat().st_size > 250 * piece
        assert peak < 3 * piece, (peak, piece, peak / piece)

    def test_a_raising_block_leaves_the_target_and_no_temp_file(self, tmp_path):
        target = tmp_path / "c.csv"
        target.write_bytes(b"old bytes\n")

        def blocks():
            for i in range(3):
                yield float(i), np.ones((4, 2))
            raise RuntimeError("block failed")

        with pytest.raises(RuntimeError, match="block failed"):
            write_csv(str(target), ["t", "x", "y"], blocks())
        assert target.read_bytes() == b"old bytes\n"
        assert not list(tmp_path.glob(".himcf-*.tmp"))


def test_svg_points_match_per_vertex_repr():
    rng = np.random.default_rng(3)
    P = rng.standard_normal((9, 2))
    P[0] = (0.0, 0.0)                      # y = 0 flips to -0.0
    P[1] = (0.1 + 0.2, 1e-5)
    text = svg_text([P, 2.0 * P])
    found = re.findall(r'points="([^"]*)"', text)
    for poly, points in zip((P, 2.0 * P), found):
        assert points == " ".join(f"{repr(float(x))},{repr(float(-y))}" for x, y in poly)


# sha256 of the files these runs wrote with the per-cell formatter (numpy
# 2.4, x86-64 Linux).  Any change of a formatted byte shows here; so may a
# libm or FFT build that moves the last digit of a computed value.
GOLDEN = {
    "lagrangian": (["curve", "--solver", "lagrangian", "--vertices", "32", "--t-end", "0.05"], {
        "curve.csv": "ee09e89f9a8a8e5256ca0d6ba66c389e0657ee37a94d3ddf05105f9653e2f921",
        "curve.svg": "02aa657e9545d989cfe42764410d628e53b5399d3b19a253d77a19980fa57a39",
    }),
    # 120 steps: two resamples, and a final snapshot off the record cadence.
    "lagrangian-resample": (["curve", "--solver", "lagrangian", "--preset", "ellipse",
                             "--a", "2", "--b", "1", "--speed", "-1", "--vertices", "32",
                             "--t-end", "2", "--record-every", "7"], {
        "curve.csv": "44f21dfaeb9efc13ba50b1606eb1308e82aae8b4053ed34b63015cd25851daac",
        "curve.svg": "c1a794a469ca110250b0420dd9799d85fe8c553575d50a7a93b29a4d39b04bf0",
        "curve_summary.json": "2169f3bd64f781210128d5ffb1df3df4df4a5dd282ecac9002ac3170ba3134e1",
    }),
    # Ends in ConvexityLost at t = 0.380112, located by bisection.
    "lagrangian-bisection": (["curve", "--solver", "lagrangian", "--preset", "ellipse",
                              "--a", "1.2", "--b", "0.8", "--speed", "-1.5",
                              "--vertices", "32", "--t-end", "1"], {
        "curve.csv": "2121fce1ec6f72c1a0eda2bd301c1811aa38f3ecc6e5b60f0663453bf204aedb",
        "curve.svg": "13bba8204b18dd922a63de830251a8c9dd90b4a097ec18fea22ec4a7ff2c44d7",
        "curve_summary.json": "2902749a851bb8baaa10a502ae7bad1168b59ca79e6bbb25a4003005bd790927",
    }),
    "support": (["curve", "--solver", "support", "--N", "16"], {
        "curve.csv": "9e3b333ba15c999cd51bdeb9f2aed6af6c18a101212d1727034649b45fba7df5",
        "curve.svg": "884821addc016d5495ab8d8090a78ac4c1ffde5277f2013f3e595ead473e78fd",
    }),
    "radial-forcing-table": (["radial", "--config", "{config}"], {
        "radial.csv": "864893293a18087ab239081ce5c5dcf17c0c0c9ab792b780cefb4fe334f41f85",
    }),
    # The forced row reaches r <= 0 at t = 0.35 and ends the table at 36
    # samples; the lower bracket crossed zero one step earlier.
    "radial-forcing-table-zero": (["radial", "--config", "{config}"], {
        "radial.csv": "18920799ee596e8d5758a6e532992e44aa3517741a3c6e80aa0761e7c2b1d05e",
        "radial_summary.json": "ea151b48163923cfe09ebd9ca2deffc98adb6ff873050c1fadbf6e87a0eaec9c",
    }),
    # Extinction at t = 0.549306, located on the Hermite dense output.
    "radial-circle-extinction": (["radial", "--geometry", "circle", "--r0", "1",
                                  "--r1", "-2"], {
        "radial.csv": "a6faf242bba57bcc15076a182e3b335cd62cacaf651d9ae461e0c8071642ca5f",
        "radial_summary.json": "f35d1a659d500f8505ffa359cf09470f4625a81b44f53fd263e419518c7a3e39",
    }),
    # The radial-forced run of scripts/run_scenarios.py.
    "radial-forced-constant": (["radial", "--geometry", "sphere", "--n", "2", "--r0", "1",
                                "--r1", "0", "--t-end", "2", "--forcing-constant", "0.25"], {
        "radial.csv": "d81d1c7abcc26e2b1d905dd76e12aeb750961bd3ae94b852ffc3af626d8e81b2",
        "radial_summary.json": "6a07f367e7d690d246fb2b1e662f8295e52dc0c9a6418257077c5ce13fcbc558",
    }),
    # Both runs end by the scenario's floor eps_convex = 2e-2 (CurvatureBlowup).
    "containment-ellipse-floor": (["containment", "--scenario", "ellipse-in-circle"], {
        "containment.csv": "c9bc2629fa4006b252bf2e1a7acf15b3efca813b490ce9dadecbf9008de32100",
        "containment_summary.json":
            "f0834a1da53c28c3b8b9d1d020512cf7e5f4a34c871174b9a68c2bfaf390813d",
    }),
    # Both circles reach t_end; the pair steps as one batch on its shared schedule.
    "containment-circles": (["containment", "--scenario", "circle-in-circle"], {
        "containment.csv": "40034fc9bc704cd6e0e2381d4b1c7bd5f4da5ad5f9a73a6a58b095418a3dff4c",
        "containment_summary.json":
            "9393add32e217680d495d2360b3466a1f2c97fe41bf3452909cf72c76271449a",
    }),
    "verify-containment": (["verify", "containment"], {
        "verify_report.json": "20346dee82f679fb157fb460482dc8ae81645dc6c941df714ed499ec72b84360",
    }),
    # A collapsing circle on both solvers; the summary carries T* = ln(3)/2.
    "curve-both-collapse": (["curve", "--preset", "circle", "--r0", "1", "--speed", "-2",
                             "--N", "64", "--vertices", "64", "--both-solvers"], {
        "curve_summary.json": "7f3ab0d3e5fb876d93107e384421a32e4c88752b824890a797cc55d8365efa23",
    }),
    "verify-radial-outcomes-forced": (["verify", "radial", "outcomes", "forced-bracket"], {
        "verify_report.json": "f3280046754ff6722e7c3060aa464f40c2dc2959a45653c6b6c5ff5e2fbd139e",
    }),
}

# The --config file of each GOLDEN entry that reads one.
CONFIGS = {
    "radial-forcing-table": {
        "geometry": "sphere", "n": 2, "r0": 1.0, "r1": 0.0, "dt": 0.01, "t_end": 0.5,
        "forcing": {"kind": "table", "times": [0.0, 0.25, 0.5], "values": [0.0, 0.3, 0.1]}},
    "radial-forcing-table-zero": {
        "geometry": "sphere", "n": 2, "r0": 1.0, "r1": -3.0, "dt": 0.01, "t_end": 3.0,
        "forcing": {"kind": "table", "times": [0.0, 1.0, 3.0], "values": [0.0, 0.3, -0.4]}},
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_pinned(name, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS.get(name, {})))
    argv, digests = GOLDEN[name]
    out = tmp_path / name
    argv = [a.format(config=config) for a in argv] + ["--out-dir", str(out)]
    assert himcf.cli.main(argv) == 0
    if name.startswith("radial-forcing-table"):
        assert ",nan," in (out / "radial.csv").read_text()
    for fname, digest in digests.items():
        assert hashlib.sha256((out / fname).read_bytes()).hexdigest() == digest, fname
