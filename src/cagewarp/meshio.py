"""ASCII OBJ and CSV readers/writers, and the weight-matrix files.

Only `v` and `f` records are interpreted; normals, texture coordinates and
vertex colors in the input are ignored.  Faces must be triangles unless quad
fan-triangulation is requested, and every number read must be finite.
Floats are written with 17 significant digits so a save/load round trip is
bit-exact.

Both directions work on whole record kinds, not lines: a file in the plain
layout (``v`` records of finite numbers, then ``f`` records of three indices,
``a/b/c`` tokens and records of other kinds allowed) is read by one
``np.loadtxt`` call per record kind, and every other file, every malformed
one included, by the line-by-line parser, which reports the first bad
line.  Writers format a chunk of rows with one ``%``.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from pathlib import Path

import numpy as np

from .geometry import DEGENERATE_FACE_AREA, MeshError, TriMesh, as_positions


_WRITE_CHUNK = 4096   # rows formatted per write
_WEIGHTS_MAGIC = b"MVCMAT01"
_INDEX_CHARS = b"0123456789+- \t\r\n"   # all plain face text may hold
# the ASCII characters str.split() splits on
_IS_SPACE = np.zeros(256, dtype=bool)
_IS_SPACE[list(b" \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f")] = True


class ParseError(Exception):
    """Malformed input file."""


def _parse_face_token(token: str, n_vertices: int, lineno: int) -> int:
    idx_str = token.split("/")[0]
    try:
        idx = int(idx_str)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad face index {token!r}") from exc
    if idx < 1 or idx > n_vertices:
        raise ParseError(
            f"line {lineno}: face index {idx} out of range 1..{n_vertices}"
        )
    return idx - 1


def load_mesh(path, triangulate_quads: bool = False) -> TriMesh:
    """Load a triangulated OBJ file.

    Quads are fan-triangulated when ``triangulate_quads`` is set, otherwise
    any non-triangle face is rejected.  So are infinite or NaN vertex
    coordinates, and faces of zero area or of area below
    ``DEGENERATE_FACE_AREA`` times the squared largest side of the bounding
    box, so that the test does not depend on the mesh's units.
    """
    with open(path, "r") as fh:
        text = fh.read()
    parsed = _read_plain(text)
    if parsed is None:
        parsed = _read_records(text.split("\n"), triangulate_quads)
    mesh = TriMesh(*parsed)
    if mesh.n_faces:
        areas = mesh.face_areas()
        lo, hi = mesh.bbox()
        side = float((hi - lo).max())
        threshold = DEGENERATE_FACE_AREA * side * side
        bad = np.nonzero((areas < threshold) | (areas == 0.0))[0]
        if len(bad):
            raise MeshError(
                f"degenerate faces (area < {threshold:.3g}): "
                f"{bad[:5].tolist()}"
            )
    return mesh


def _read_plain(text: str):
    """(vertices, faces) of an OBJ text in the plain layout, else None.

    Plain: with comments cut, no ``v`` record follows an ``f`` record, and
    the face records, each token cut at its first ``/``, hold only ASCII
    digits, signs and whitespace.  Records of other kinds are skipped, as
    ``_read_records`` skips them.  Each record kind is then converted in
    one ``np.loadtxt`` call, which takes a subset of the tokens ``float``
    and ``int`` take and reads them to the same values.  Anything else, a
    face without three indices or with one out of range, a non-finite
    coordinate and every malformed file included, is left to
    ``_read_records``, so the errors and their lines are that parser's.
    """
    lines = text.split("\n")
    if "#" in text:
        lines = [ln.split("#", 1)[0] for ln in lines]
    records = [ln.split(None, 1) for ln in lines]
    keys = [r[0] if r else "" for r in records]
    if "f" in keys and "v" in keys[keys.index("f"):]:
        return None
    try:
        v_rows = [r[1] for r, key in zip(records, keys) if key == "v"]
        f_rows = [r[1] for r, key in zip(records, keys) if key == "f"]
    except IndexError:   # a "v" or "f" with nothing after it
        return None
    f_text = "\n".join(f_rows)
    if "/" in f_text:
        f_text = _cut_slash_tails(f_text)
    # numpy before 2.0 reads "2.9" as the int 2 with only a warning, so no
    # such token may reach loadtxt
    if f_text is None or f_text.encode().translate(None, _INDEX_CHARS):
        return None
    try:
        verts = (np.loadtxt(v_rows, usecols=(0, 1, 2), comments=None,
                            ndmin=2) if v_rows else np.zeros((0, 3)))
        faces = (np.loadtxt(f_text.split("\n"), dtype=np.int64,
                            comments=None, ndmin=2)
                 if f_rows else np.zeros((0, 3), dtype=np.int64))
    except ValueError:
        return None
    if faces.shape != (len(f_rows), 3) or (
            faces.size and (faces.min() < 1 or faces.max() > len(verts))):
        return None
    if not np.isfinite(verts).all():
        return None
    return verts, faces - 1


def _cut_slash_tails(text: str):
    """``text`` with each token cut at its first ``/``, the part
    ``_parse_face_token`` reads; None if the text is not ASCII or a token
    starts with ``/``."""
    if not text.isascii():
        return None
    c = np.frombuffer(text.encode(), dtype=np.uint8)
    space = _IS_SPACE.take(c)
    slash = c == ord("/")
    if slash[0] or (slash[1:] & space[:-1]).any():
        return None
    # slashes so far, against the count at the token's start
    seen = np.cumsum(slash, dtype=np.int32 if len(c) < 2**31 else np.int64)
    tail = seen > np.maximum.accumulate(np.where(space, seen, 0))
    return c[~tail].tobytes().decode()


def _read_records(lines, triangulate_quads: bool):
    """(vertices, faces) from OBJ lines, one record at a time; raises
    ``ParseError`` at the first malformed line."""
    verts: list[list[float]] = []
    faces: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) < 4:
                raise ParseError(f"line {lineno}: vertex needs 3 coordinates")
            try:
                verts.append([float(x) for x in parts[1:4]])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad vertex coordinate") from exc
            if not all(map(math.isfinite, verts[-1])):
                raise ParseError(f"line {lineno}: non-finite vertex coordinate")
        elif parts[0] == "f":
            idx = [
                _parse_face_token(t, len(verts), lineno) for t in parts[1:]
            ]
            if len(idx) == 3:
                faces.append(tuple(idx))
            elif len(idx) > 3 and triangulate_quads:
                for k in range(1, len(idx) - 1):
                    faces.append((idx[0], idx[k], idx[k + 1]))
            else:
                raise ParseError(
                    f"line {lineno}: face has {len(idx)} vertices; "
                    "only triangles are accepted (the library's "
                    "load_mesh(..., triangulate_quads=True) splits larger faces)"
                )
        # all other records (vn, vt, usemtl, o, g, s, ...) are ignored
    return (np.array(verts, dtype=np.float64).reshape(-1, 3),
            np.array(faces, dtype=np.int64).reshape(-1, 3))


def _write_rows(fh, fmt: str, array) -> None:
    """Write each row of ``array`` with the %-format ``fmt``.

    One ``%`` formats a chunk of rows at a time.  "%.17g" gives the digits
    ``f"{x:.17g}"`` gives, and 17 significant digits read back to the same
    float.
    """
    for lo in range(0, len(array), _WRITE_CHUNK):
        chunk = array[lo:lo + _WRITE_CHUNK]
        fh.write((fmt * len(chunk)) % tuple(chunk.ravel().tolist()))


def save_mesh(mesh: TriMesh, path) -> None:
    """Write an OBJ file that round-trips bit-exactly through load_mesh."""
    with open(path, "w") as fh:
        _write_rows(fh, "v %.17g %.17g %.17g\n", mesh.vertices)
        _write_rows(fh, "f %d %d %d\n", mesh.faces + 1)


def _read_csv_rows(path, width: int, convert, layout: str,
                   bad_value: str) -> list:
    """Rows of ``width`` values of a CSV file, each value read with
    ``convert``; blank rows are skipped.  A row of another width raises
    ``ParseError`` "line N: expected <layout>", a value ``convert``
    rejects "line N: <bad_value>", an infinite or NaN one "line N:
    non-finite value"."""
    rows = []
    with open(path, "r") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != width:
                raise ParseError(f"line {lineno}: expected {layout}")
            try:
                rows.append([convert(x) for x in row])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {bad_value}") from exc
            if not all(map(math.isfinite, rows[-1])):
                raise ParseError(f"line {lineno}: non-finite value")
    return rows


def load_points(path) -> np.ndarray:
    """(N, 3) positions from OBJ `v` records or a CSV of x,y,z rows."""
    p = Path(path)
    if p.suffix.lower() == ".csv":
        pts = _read_csv_rows(p, 3, float, "x,y,z", "bad coordinate")
        return np.array(pts, dtype=np.float64).reshape(-1, 3)
    return load_mesh(p).vertices


def save_points(points, path) -> None:
    """Write positions as x,y,z CSV rows or OBJ `v` records, by suffix."""
    fmt = ("%.17g,%.17g,%.17g\n" if Path(path).suffix.lower() == ".csv"
           else "v %.17g %.17g %.17g\n")
    with open(path, "w") as fh:
        _write_rows(fh, fmt, as_positions(points))


def load_landmarks(path) -> np.ndarray:
    """CSV of `src_index,dst_index` integer pairs -> (L, 2) array."""
    pairs = _read_csv_rows(path, 2, int, "src_index,dst_index",
                           "bad landmark index")
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def save_landmarks(pairs: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        _write_rows(fh, "%d,%d\n", np.asarray(pairs, dtype=np.int64))


def load_offsets(path) -> np.ndarray:
    """CSV of `dx,dy,dz` rows -> (C, 3) array."""
    rows = _read_csv_rows(path, 3, float, "dx,dy,dz", "bad offset value")
    return np.array(rows, dtype=np.float64).reshape(-1, 3)


def save_offsets(offsets: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        _write_rows(fh, "%.17g,%.17g,%.17g\n",
                    np.asarray(offsets, dtype=np.float64))


def save_weights(weights: np.ndarray, path) -> None:
    """Write (N, C) weights as CSV rows for a ``.csv`` path, else as an
    ``MVCMAT01`` file: the magic, int64 LE rows, int64 LE cols, then the
    row-major float64 LE entries."""
    w = np.asarray(weights, dtype=np.float64)
    if Path(path).suffix.lower() == ".csv":
        with open(path, "w") as fh:
            _write_rows(fh, ",".join(["%.17g"] * w.shape[1]) + "\n", w)
        return
    with open(path, "wb") as fh:
        fh.write(_WEIGHTS_MAGIC)
        fh.write(struct.pack("<qq", *w.shape))
        fh.write(w.astype("<f8").tobytes(order="C"))


def load_weights(path) -> np.ndarray:
    """(N, C) float64 weights of an ``MVCMAT01`` file; a wrong magic, a short
    header, negative dimensions, a payload shorter than the header's
    dimensions or bytes past it raise ``ValueError`` before it is read."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _WEIGHTS_MAGIC:
            raise ValueError(f"not an MVC matrix file (magic {magic!r})")
        header = fh.read(16)
        if len(header) < 16:
            raise ValueError("truncated MVC matrix file")
        rows, cols = struct.unpack("<qq", header)
        if rows < 0 or cols < 0:
            raise ValueError(
                f"negative MVC matrix dimensions ({rows}, {cols})")
        size = rows * cols * 8
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if size > left:
            raise ValueError("truncated MVC matrix file")
        if size < left:
            raise ValueError(
                f"MVC matrix file has {left - size} bytes past its "
                f"({rows}, {cols}) payload")
        data = np.frombuffer(fh.read(size), dtype="<f8")
    return data.reshape(rows, cols).astype(np.float64)
