"""Test helper: how far a sampled group path is from horizontal.

Only the tests measure horizontality, so the measure lives here and not in
the library.
"""

import numpy as np

from semiroll.integrate import fd_derivative


def horizontality_residual(model, path):
    """Per-node h-component (and off-span part) of q^{-1} qdot."""
    qdot = fd_derivative(path.samples, path.grid.h)
    coeffs, resid = model.algebra_coords(np.linalg.solve(path.samples, qdot))
    h_part = np.max(np.abs(coeffs[:, list(model.h_indices)]), axis=1, initial=0.0)
    return np.maximum(h_part, resid)
