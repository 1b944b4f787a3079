"""Mean value coordinates by the formula of Ju, Schaefer & Warren (2005),
evaluated in ``np.longdouble``, one query at a time.

Independent of ``cagewarp.mvc``'s blocked float64 kernel: the same closed
form, written as the paper's pseudo-code reads, with every operation in
long double.  Where long double has a 64-bit mantissa (x86-64), it carries
11 more bits than float64, so it serves as the reference for the kernel's
accuracy near the cage.  Only queries off the cage surface are handled
(there is no on-face or on-vertex branch).
"""

import numpy as np

LD = np.longdouble
_NEXT = [1, 2, 0]   # corner i -> i + 1
_PREV = [2, 0, 1]   # corner i -> i - 1


def mvc_longdouble(vertices, faces, x) -> np.ndarray:
    """Normalized weights of query ``x`` against the closed triangle cage,
    in long double."""
    v = np.asarray(vertices).astype(LD)
    x = np.asarray(x).astype(LD)
    faces = np.asarray(faces)
    rel = v - x
    d = np.sqrt(np.sum(rel * rel, axis=1))
    u = rel / d[:, None]
    uf, df = u[faces], d[faces]                       # (F, 3, 3), (F, 3)
    # theta_i: the arc of the edge opposite corner i
    chord = np.sqrt(np.sum((uf[:, _NEXT] - uf[:, _PREV]) ** 2, axis=2))
    theta = 2 * np.arcsin(chord / 2)
    h = theta.sum(axis=1) / 2
    sin_t = np.sin(theta)
    c = (2 * np.sin(h)[:, None] * np.sin(h[:, None] - theta)
         / (sin_t[:, _NEXT] * sin_t[:, _PREV]) - 1)
    det = np.sum(uf[:, 0] * np.cross(uf[:, 1], uf[:, 2]), axis=1)
    s = np.sign(det)[:, None] * np.sqrt(np.maximum(1 - c * c, 0))
    # x in a face's plane outside it: the face adds nothing
    live = (np.abs(s) > 0).all(axis=1)
    w_face = ((theta - c[:, _NEXT] * theta[:, _PREV]
               - c[:, _PREV] * theta[:, _NEXT])
              / (df * sin_t[:, _NEXT] * s[:, _PREV]))
    w = np.zeros(len(v), dtype=LD)
    np.add.at(w, faces[live], w_face[live])
    return w / w.sum()
