"""Flat-file emission: CSV, JSON summaries, static SVG snapshot art.

All numeric text uses the shortest round-trip decimal form of binary64 so
repeated runs are byte-identical; files land via temp-file + rename so
parallel scenario runs never interleave bytes.  A CSV file is streamed to
disk one block at a time, so the memory that writing it takes does not grow
with the length of the run (the trajectory holds every snapshot's floats).
"""
from __future__ import annotations

import itertools
import json
import os
import tempfile

import numpy as np


def write_text_atomic(path: str, text) -> None:
    """Write text, a str or an iterable of str pieces in order, to path via a temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".himcf-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# A format call holds its cells as Python floats, about 1.5x their text, so
# csv_text formats _FORMAT_ROWS rows per call.  write_csv streams a CSV in
# pieces of at most _PIECE_ROWS rows: a snapshot block, or a slice of a table.
_FORMAT_ROWS = 128
_PIECE_ROWS = 4096


def csv_text(header: list[str] | None, blocks) -> str:
    """Header row (none if header is None) plus the rows of each (t, columns) block.

    columns is a 2-D float array, one row per CSV row.  t, unless None, is
    written once per block as the first cell of each of its rows.  Floats
    are formatted by %r, the shortest round-trip form of repr(float(x)),
    with one format call per _FORMAT_ROWS rows.  Every line ends in a newline.
    """
    lines = [] if header is None else [",".join(header) + "\n"]
    for t, columns in blocks:
        values = np.asarray(columns, dtype=float)
        count, width = values.shape
        row = ",".join(["%r"] * width) + "\n"
        if t is not None:
            row = f"{float(t)!r},{row}"
        for start in range(0, count, _FORMAT_ROWS):
            part = values[start:start + _FORMAT_ROWS]
            lines.append((row * len(part)) % tuple(part.ravel().tolist()))
    return "".join(lines)


def write_csv(path: str, header: list[str], blocks) -> None:
    """Write csv_text(header, blocks) to path, each piece its own csv_text call."""
    pieces = (csv_text(None, [(t, columns[start:start + _PIECE_ROWS])])
              for t, columns in blocks for start in range(0, len(columns), _PIECE_ROWS))
    write_text_atomic(path, itertools.chain([csv_text(header, ())], pieces))


def json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"


def svg_text(polylines) -> str:
    """Static SVG 1.1, 640 x 640 pixels, with one closed polyline outline per snapshot.

    The viewBox is the padded bounding box of every snapshot, so the image
    frames the whole evolution.  First outline dark, last accented, the rest
    light; y is negated to keep mathematical orientation on screen.
    """
    if not polylines:
        raise ValueError("nothing to draw")
    flipped = [np.column_stack([p[:, 0], -p[:, 1]]) for p in polylines]
    allpts = np.vstack(flipped)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.05 * float(span.max())
    x0, y0 = (lo - pad).tolist()
    w, h = ((hi - lo) + 2 * pad).tolist()
    stroke = 0.004 * max(w, h)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="640" height="640" '
        f'viewBox="{x0!r} {y0!r} {w!r} {h!r}">',
        f'<rect x="{x0!r}" y="{y0!r}" '
        f'width="{w!r}" height="{h!r}" fill="white"/>',
    ]
    last = len(flipped) - 1
    for i, p in enumerate(flipped):
        if i == 0:
            color = "#1f2430"
        elif i == last:
            color = "#c03028"
        else:
            color = "#9aa3b2"
        pts = " ".join(["%r,%r"] * len(p)) % tuple(p.ravel().tolist())
        parts.append(
            f'<polygon points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{stroke!r}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
