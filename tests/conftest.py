import numpy as np
import pytest

from cagewarp.geometry import TriMesh, make_box_mesh, normalize_to_unit_box

TETRA_VERTS = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
)
TETRA_FACES = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])

OCTA_VERTS = np.array(
    [
        [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
    ]
)
OCTA_FACES = np.array(
    [
        [0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
        [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5],
    ]
)


@pytest.fixture
def tetra() -> TriMesh:
    return TriMesh(TETRA_VERTS.copy(), TETRA_FACES.copy())


@pytest.fixture
def octa() -> TriMesh:
    return TriMesh(OCTA_VERTS.copy(), OCTA_FACES.copy())


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation matrix via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def finned_box() -> TriMesh:
    """A unit-box box(3) mesh with a two-face fin on its edge (0, 1), which
    then has four incident faces."""
    box, _ = normalize_to_unit_box(make_box_mesh(3))
    n = box.n_vertices
    fin = np.array([[0.3, -1 / 3, -0.3], [0.2, -1 / 3, -0.4]])
    return TriMesh(np.vstack([box.vertices, fin]),
                   np.vstack([box.faces, [[0, 1, n], [1, 0, n + 1]]]))


def collapsed_face_box(subdiv=3) -> TriMesh:
    """A unit-box box(subdiv) mesh with vertex 2 of face 0 moved onto its
    vertex 1, so face 0 (and its neighbour across that edge) has zero area;
    the moved vertex is inside a side, so the bounding box stays."""
    box, _ = normalize_to_unit_box(make_box_mesh(subdiv))
    v = box.vertices.copy()
    v[box.faces[0, 2]] = v[box.faces[0, 1]]
    return TriMesh(v, box.faces)
