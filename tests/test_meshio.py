"""OBJ and CSV files: bytes written, values read and errors raised.

The writers format whole chunks of rows and the OBJ reader converts whole
record kinds; these tests pin them to the per-row ``f"{x:.17g}"`` output
and to the line-by-line parser's values, messages and line numbers.
"""

import warnings

import numpy as np
import pytest

from cagewarp import meshio
from cagewarp.geometry import (
    MeshError,
    PointSet,
    TriMesh,
    make_box_mesh,
    make_template_cage,
)
from cagewarp.mvc import compute_mvc, deform

EDGE_VALUES = [0.0, -0.0, 1e-320, -5e-324, 2.2250738585072014e-308,
               1e300, -1.7976931348623157e308, 1.0 / 3.0, -123456.789e-200,
               12345678901234567.0, 0.1]


def _edge_points(n=40):
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 1))
    pts.ravel()[:len(EDGE_VALUES)] = EDGE_VALUES
    return pts


def _per_row(fmt, rows):
    return "".join(fmt.format(*row) for row in rows)


def test_save_mesh_bytes_match_per_row_output(tmp_path):
    verts = _edge_points()
    faces = np.array([[0, 1, 2], [2, 1, 3], [39, 38, 0]])
    path = tmp_path / "m.obj"
    meshio.save_mesh(TriMesh(verts, faces), path)
    expected = (_per_row("v {:.17g} {:.17g} {:.17g}\n", verts)
                + _per_row("f {} {} {}\n", faces + 1))
    assert path.read_text() == expected
    assert "v 0 -0 9.9998886718268301e-321\n" in expected


@pytest.mark.parametrize("suffix", [".csv", ".obj"])
def test_save_points_bytes_match_per_row_output(tmp_path, suffix):
    pts = _edge_points()
    path = tmp_path / f"p{suffix}"
    meshio.save_points(PointSet(points=pts), path)
    fmt = ("{:.17g},{:.17g},{:.17g}\n" if suffix == ".csv"
           else "v {:.17g} {:.17g} {:.17g}\n")
    assert path.read_text() == _per_row(fmt, pts)
    assert np.array_equal(meshio.load_points(path), pts)


def test_save_offsets_and_landmarks_bytes(tmp_path):
    off = _edge_points()
    path = tmp_path / "off.csv"
    meshio.save_offsets(off, path)
    assert path.read_text() == _per_row("{:.17g},{:.17g},{:.17g}\n", off)
    assert np.array_equal(meshio.load_offsets(path), off)
    lm = np.array([[0, 7], [12, 3]])
    meshio.save_landmarks(lm, tmp_path / "lm.csv")
    assert (tmp_path / "lm.csv").read_text() == "0,7\n12,3\n"


def _edge_weights():
    # (40, 6): the edge values, 5e-324 among them, in the first rows
    w = _edge_points(80).reshape(40, 6)
    w[-1, :3] = [5e-324, -0.0, 1e300]
    return w


def test_save_weights_csv_bytes_match_per_row_output(tmp_path):
    w = _edge_weights()
    path = tmp_path / "w.csv"
    meshio.save_weights(w, path)
    assert path.read_text() == "".join(
        ",".join(f"{x:.17g}" for x in row) + "\n" for row in w)
    assert np.array_equal(np.loadtxt(path, delimiter=",", ndmin=2), w)


def test_chunked_weight_csv_matches_one_chunk(tmp_path, monkeypatch):
    w = _edge_weights()
    meshio.save_weights(w, tmp_path / "one.csv")
    monkeypatch.setattr(meshio, "_WRITE_CHUNK", 7)
    meshio.save_weights(w, tmp_path / "many.csv")
    assert (tmp_path / "one.csv").read_bytes() == (
        tmp_path / "many.csv").read_bytes()


def test_weight_binary_round_trips_bit_for_bit(tmp_path):
    w = _edge_weights()
    path = tmp_path / "w.bin"
    meshio.save_weights(w, path)
    back = meshio.load_weights(path)
    assert back.dtype == np.float64 and back.shape == w.shape
    assert back.tobytes() == w.tobytes()


def test_deform_reads_the_loaded_weights(tmp_path):
    cage = make_template_cage("sphere42", scale=1.5)
    pts = make_box_mesh(3).vertices
    moved = cage.vertices * [1.1, 0.9, 1.0] + 0.01
    weights = compute_mvc(cage, pts).weights
    meshio.save_weights(weights, tmp_path / "w.bin")
    got = deform(meshio.load_weights(tmp_path / "w.bin"), moved)
    assert got.tobytes() == deform(weights, moved).tobytes()


def test_chunked_writes_match_one_chunk(tmp_path, monkeypatch):
    mesh = make_box_mesh(6)
    meshio.save_mesh(mesh, tmp_path / "one.obj")
    monkeypatch.setattr(meshio, "_WRITE_CHUNK", 7)
    meshio.save_mesh(mesh, tmp_path / "many.obj")
    assert (tmp_path / "one.obj").read_bytes() == (
        tmp_path / "many.obj").read_bytes()


def test_plain_layout_takes_the_bulk_path_and_round_trips(tmp_path):
    mesh = make_box_mesh(5, scale=(0.9, 1.1, 1.0))
    path = tmp_path / "box.obj"
    meshio.save_mesh(mesh, path)
    text = path.read_text()
    assert meshio._read_plain(text) is not None
    back = meshio.load_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)


TET = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
TET_FACES = "f 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n"


@pytest.mark.parametrize("text", [
    TET + TET_FACES,
    "# header\n\n" + TET + "# faces\n" + TET_FACES + "\n\n",
    "v 0 0 0 # origin\nv 1e0 0 0\nv 0 .1e1 0\nv -0 +0 1.000\n" + TET_FACES,
    "v 0 0 0 0.5 0.5 0.5\nv 1 0 0 1 0 0\nv 0 1 0\nv 0 0 1 1\n" + TET_FACES,
    TET + "f +1 03 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n",
    "v  0\t0 0  \n" + TET[8:] + "f  1\t3  2 \n" + TET_FACES[8:],
    (TET + TET_FACES).replace("\n", "\r\n"),
    "o tet\nvn 0 0 1\nvt 0 0\n" + TET + "usemtl x\ns off\n" + TET_FACES,
    TET + "f 1/1/1 3/3/3 2/2/2\n" + TET_FACES[8:],
    TET + "  # indented comment\n" + TET_FACES,
    TET + "f 1/1/1 3/3/3 2/2/2\nf 1//1 2//2 4//4\nf 1/1 4/4 3/3\n"
    "f 2/x/y 3/ 4/# cut\n",
    "g a\nv\t0 0 0\nvn 0 0 1\n  v 1 0 0\nvt 0 0\nv 0 1 0\n\tv 0 0 1\n"
    "o b\ng b\nf\t1/1/1\t3//2 2/2/\r\n f 1/9/9 2/9 4/\n" + TET_FACES[8:],
    (TET + "vn 0 0 1\n" + TET_FACES.replace(" 3", " 3/1/1")).replace(
        "\n", "\r\n"),
], ids=["plain", "comments", "number-forms", "vertex-colors",
        "signed-indices", "spacing", "crlf", "other-records",
        "slashed-tokens", "blank-with-spaces", "token-forms",
        "exporter-layout", "crlf-slashed"])
def test_plain_and_line_parsers_agree(text):
    # each of these is in the plain layout, so the bulk path reads it
    plain = meshio._read_plain(text)
    assert plain is not None
    for a, b in zip(plain, meshio._read_records(text.split("\n"), False)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
        assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("text", [
    TET + "f 1 3 2\nv 0.5 0.5 0.5\n" + TET_FACES[8:],
    TET + "f 1/\u00e9 3 2\n" + TET_FACES[8:],
    TET + "f 1/1\x0b3 2\n" + TET_FACES[8:],
], ids=["late-vertex", "non-ascii-tail", "vertical-tab"])
def test_other_layouts_read_line_by_line(tmp_path, text):
    assert meshio._read_plain(text) is None
    path = tmp_path / "m.obj"
    path.write_text(text)
    mesh = meshio.load_mesh(path)
    verts, faces = meshio._read_records(text.split("\n"), False)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.faces, faces)


@pytest.mark.parametrize("text, message", [
    ("v 0 0 0\nv 1 0 0\nv 0 zero 0\n", "line 3: bad vertex coordinate"),
    ("# c\nv 0 0\n", "line 2: vertex needs 3 coordinates"),
    (TET + "f 1 x 3\n", "line 5: bad face index 'x'"),
    (TET + "f 1 2 9\n", "line 5: face index 9 out of range 1..4"),
    (TET + "f 1 2 0\n", "line 5: face index 0 out of range 1..4"),
    (TET + "f 1.0 2 3\n", "line 5: bad face index '1.0'"),
    (TET + TET_FACES + "f 2.9 2 3\n", "line 9: bad face index '2.9'"),
    (TET + "f 1 2 1e0\n", "line 5: bad face index '1e0'"),
    (TET + "f 1 -2 3\n", "line 5: face index -2 out of range 1..4"),
    (TET + "f 1 2 99999999999999999999\n",
     "line 5: face index 99999999999999999999 out of range 1..4"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\nv 0 0 1\n",
     "line 4: face index 4 out of range 1..3"),
    (TET + "f 1 2 3 4\n", "line 5: face has 4 vertices; only triangles are "
     "accepted (the library's load_mesh(..., triangulate_quads=True) splits "
     "larger faces)"),
    (TET + "f\n", "line 5: face has 0 vertices"),
    (TET + "f   \n", "line 5: face has 0 vertices"),
    (TET + "f 1 2\n", "line 5: face has 2 vertices"),
    (TET + "f 1/1/1 x/2/2 3/3/3\n", "line 5: bad face index 'x/2/2'"),
    ("# one\nvn 0 0 1\nvt 0 0\n" + TET + "f 1 2 7 # c\n",
     "line 8: face index 7 out of range 1..4"),
    ("v 0 0 0\nv\t1 0 0\nv 0 1 0\n" + TET_FACES,
     "line 5: face index 4 out of range 1..3"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\n  v 0 0 1_0\n" + TET_FACES + "v 1 2 x\n",
     "line 9: bad vertex coordinate"),
    (TET + TET_FACES + "f /2/3 1 2 3\n", "line 9: bad face index '/2/3'"),
    (TET + "f 1/2/3 2/ 3//1.5 4\n", "line 5: face has 4 vertices"),
    (TET + "f 1//1 2//2\n", "line 5: face has 2 vertices"),
    (TET + "f 1.5/1 2 3\n", "line 5: bad face index '1.5/1'"),
    (TET + "f 1/1 2/2 5/5\n", "line 5: face index 5 out of range 1..4"),
    ("o a\ng a\nvn 0 0 1\nvt 0 0\nv\t0 0 0\nv 1 0 0\nv\t0 x 0\n"
     "f 1/1/1 2//1 3/1\n", "line 7: bad vertex coordinate"),
    (TET + "f 1/1\x0b3 2 4\n", "line 5: face has 4 vertices"),
    ("v 1e999 nan -inf\n" + TET[8:], "line 1: non-finite vertex coordinate"),
    (TET + "v 0 nan 1\n" + TET_FACES, "line 5: non-finite vertex coordinate"),
    ("v 0 0 0\nv 1 0 0\nv 0 -inf 0\nv 0 0 1\n" + TET_FACES,
     "line 3: non-finite vertex coordinate"),
], ids=["coordinate", "short-vertex", "face-token", "index-high", "index-zero",
        "float-index", "float-index-late", "exponent-index", "negative-index",
        "huge-index", "forward-reference", "quad", "bare-f", "blank-face",
        "two-indices", "slashed-token", "ignored-records", "tab-vertex",
        "indented-vertex", "leading-slash", "slashed-quad", "slashed-two",
        "slashed-float", "slashed-high", "exporter-vertex",
        "vertical-tab-in-tail", "inf-nan", "nan-vertex", "inf-vertex"])
def test_malformed_obj_keeps_error_and_line(tmp_path, text, message):
    path = tmp_path / "bad.obj"
    path.write_text(text)
    # warnings are recorded, not raised, so a token loadtxt reads with a
    # warning cannot pass for an error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(meshio.ParseError) as err:
            meshio.load_mesh(path)
    assert str(err.value).startswith(message)
    assert not caught


def test_non_integer_face_tokens_never_reach_loadtxt(monkeypatch):
    # numpy before 2.0 reads "1.0" or "2.9" as an int64 with only a
    # DeprecationWarning, so the layout check has to turn such faces away
    seen = []
    real = np.loadtxt

    def spy(rows, *args, **kwargs):
        seen.append(list(rows))
        return real(rows, *args, **kwargs)

    monkeypatch.setattr(meshio.np, "loadtxt", spy)
    for token in ("1.0", "2.9", "1e0", "nan", "0x1", "1_0", "\u0661",
                  "1.0/1", "2.9//3", "/1"):
        assert meshio._read_plain(TET + f"f {token} 2 3\n") is None
    assert seen == []


def test_quads_triangulated_and_slashes_read(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 0 0 1\n"
                    "f 1/1/1 2/2/2 3/3/3 4/4/4\nf 1//1 5//2 2//3\n")
    mesh = meshio.load_mesh(path, triangulate_quads=True)
    assert mesh.faces.tolist() == [[0, 1, 2], [0, 2, 3], [0, 4, 1]]


def test_degenerate_face_still_mesh_error(tmp_path):
    path = tmp_path / "deg.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")
    assert meshio._read_plain(path.read_text()) is not None
    with pytest.raises(MeshError, match="degenerate faces"):
        meshio.load_mesh(path)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
def test_mesh_in_any_units_round_trips(tmp_path, scale):
    # the area threshold follows the mesh's extent: box(3) x 1e-6 (largest
    # face area 2.2e-13) used to fail with "degenerate faces (area < 1e-12)"
    box = make_box_mesh(3)
    mesh = TriMesh(box.vertices * scale, box.faces)
    path = tmp_path / "scaled.obj"
    meshio.save_mesh(mesh, path)
    back = meshio.load_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)


@pytest.mark.parametrize("scale", [1.0, 1e-6])
def test_collinear_face_rejected_at_any_scale(tmp_path, scale):
    # a box(3) with one more face on three collinear points of an edge
    box = make_box_mesh(3)
    v = np.vstack([box.vertices, [[-1.0, -1.0, -1.0 / 3.0],
                                  [-1.0, -1.0, 1.0 / 3.0]]]) * scale
    corner = int(np.nonzero((box.vertices == -1.0).all(axis=1))[0][0])
    n = len(box.vertices)
    mesh = TriMesh(v, np.vstack([box.faces, [[corner, n, n + 1]]]))
    path = tmp_path / "collinear.obj"
    meshio.save_mesh(mesh, path)
    with pytest.raises(MeshError, match=rf"degenerate faces .*: \[{box.n_faces}\]"):
        meshio.load_mesh(path)


def test_mesh_of_one_point_rejected(tmp_path):
    # a zero extent gives a zero threshold; zero-area faces still fail
    path = tmp_path / "point.obj"
    path.write_text("v 1 1 1\nv 1 1 1\nv 1 1 1\nf 1 2 3\n")
    with pytest.raises(MeshError, match=r"degenerate faces .*: \[0\]"):
        meshio.load_mesh(path)


CSV_READERS = {
    "points": (meshio.load_points, "1,2,3", "x,y,z",
               "bad coordinate", "1,2,z"),
    "landmarks": (meshio.load_landmarks, "1,2", "src_index,dst_index",
                  "bad landmark index", "1,2.5"),
    "offsets": (meshio.load_offsets, "1,2,3", "dx,dy,dz", "bad offset value",
                "1,nan?,3"),
}


@pytest.mark.parametrize("reader", sorted(CSV_READERS))
def test_csv_rows_skip_blanks_and_name_the_bad_line(tmp_path, reader):
    load, good, layout, bad_value, bad_row = CSV_READERS[reader]
    path = tmp_path / f"{reader}.csv"
    path.write_text(f"\n{good}\n   \n{good}\n")
    got = load(path)
    assert np.array_equal(got, [[1, 2, 3][:got.shape[1]]] * 2)
    for text, message in (
            (f"{good}\n\n{good},4\n", f"line 3: expected {layout}"),
            (f"{good}\n1\n", f"line 2: expected {layout}"),
            (f"\n \n{good}\n{bad_row}\n", f"line 4: {bad_value}")):
        path.write_text(text)
        with pytest.raises(meshio.ParseError) as err:
            load(path)
        assert str(err.value) == message


@pytest.mark.parametrize("reader", ["points", "offsets"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_csv_non_finite_value_names_the_line(tmp_path, reader, value):
    load, good = CSV_READERS[reader][:2]
    path = tmp_path / f"{reader}.csv"
    path.write_text(f"{good}\n1,{value},3\n")
    with pytest.raises(meshio.ParseError) as err:
        load(path)
    assert str(err.value) == "line 2: non-finite value"
