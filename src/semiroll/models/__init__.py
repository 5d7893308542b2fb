"""Model registry: bundled geometries plus declarative JSON descriptions.

Every model is constructed through one path: a JSON-serializable
*description* (algebra basis, splitting, form signatures, submersion
differential, base point) paired with a named *embedding bundle* that
supplies what only the model knows: ``rho``, ``d_e_rho``, the chart
``action``, ``embed``, the chart ``base_point``, ``tangent_frame_at`` and
``constraint``, the defining equations that refuse a sampled curve off the
manifold.  ``build_model`` passes the bundle straight to
``CartanModel``, which derives the embedded base point, the random points
and the rolling correction (``omega_basis``, zero on a symmetric space)
itself.  ``get_model`` is the one lookup: it resolves the fixed names and
the parameterized family names from their generators, builds each model
once and caches it, and builds and validates a description file by path.
A model with a base point of its own is ``build_model(description(...,
base_point))``.  Every model rolls through ``homogeneous``, and a symmetric
one also through ``hyperbolic.kinematic_roll``.
The JSON files under ``data/`` are regression fixtures: tests check that
they still match the generators, and they show the file format.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import numpy as np

from ..homogeneous import CartanModel
from ..linalg import SignatureForm
from . import hyperbolic, pseudo_orthogonal, sphere, stiefel
from .hyperbolic import roll_hyperboloid

__all__ = [
    "build_model",
    "get_model",
    "available_models",
    "roll_hyperboloid",
]

EMBEDDING_BUNDLES = {
    "hyperboloid12": hyperbolic.bundle,
    "riemann_sphere": sphere.bundle,
    "pseudo_orth": pseudo_orthogonal.bundle,
    "stiefel": stiefel.bundle,
}

# signed, so that out-of-range sizes reach the generators' own range checks
_FAMILY_PATTERNS = [
    (re.compile(r"^so_plus_(-?\d+)_(-?\d+)$"),
     lambda m: pseudo_orthogonal.description(int(m.group(1)), int(m.group(2)))),
    (re.compile(r"^stiefel_(-?\d+)_(-?\d+)$"),
     lambda m: stiefel.description(int(m.group(1)), int(m.group(2)))),
]

_FIXED_DESCRIPTIONS = {
    "hyperboloid": hyperbolic.description,
    "sphere": sphere.description,
}


def _decode_basis(desc):
    raw = np.asarray(desc["basis"], dtype=float)
    if desc.get("dtype", "real") == "complex":
        if raw.ndim != 4 or raw.shape[-1] != 2:
            raise ValueError("complex basis must store [re, im] entry pairs")
        return raw[..., 0] + 1j * raw[..., 1]
    return raw


def build_model(desc, validate=False):
    """Instantiate a CartanModel from a description dictionary."""
    version = desc.get("format_version")
    if version != 1:
        raise ValueError(f"unsupported model format_version: {version!r}")
    embedding = desc.get("embedding", "")
    if not embedding.startswith("builtin:"):
        raise ValueError(f"unknown embedding scheme: {embedding!r}")
    key = embedding.split(":", 1)[1]
    if key not in EMBEDDING_BUNDLES:
        raise ValueError(f"unknown embedding bundle: {key!r}")
    model = CartanModel(
        name=desc["name"],
        basis=_decode_basis(desc),
        h_indices=desc["h_indices"],
        p_indices=desc["p_indices"],
        form=SignatureForm(desc["J_signs"]),
        group_form=SignatureForm(desc["group_signs"]),
        d_e_pi=np.asarray(desc["d_e_pi"], dtype=float),
        params=desc.get("params"),
        description=desc,
        **EMBEDDING_BUNDLES[key](desc),
    )
    if validate:
        model.validate()
    return model


def _description_for(name):
    if name in _FIXED_DESCRIPTIONS:
        return _FIXED_DESCRIPTIONS[name]()
    for pattern, builder in _FAMILY_PATTERNS:
        m = pattern.match(name)
        if m:
            return builder(m)
    return None


_CACHE = {}


def get_model(name):
    """Look up a model by name, family pattern, or description-file path.

    Named models are built once and cached.  A description file is read
    and validated on every call, so an edited or corrupted file is never
    served stale.  A name that is neither a string nor a path is unknown.
    """
    if isinstance(name, os.PathLike):
        name = os.fspath(name)
    if isinstance(name, str):
        if name in _CACHE:
            return _CACHE[name]
        desc = _description_for(name)
        if desc is not None:
            # under the canonical name, so "so_plus_01_2" is "so_plus_1_2"
            if desc["name"] not in _CACHE:
                _CACHE[desc["name"]] = build_model(desc)
            return _CACHE[desc["name"]]
        if Path(name).is_file():
            with open(name) as fh:
                return build_model(json.load(fh), validate=True)
    raise KeyError(
        f"unknown model {name!r}; try one of {available_models()} "
        "or a description-file path"
    )


def available_models():
    """Names resolvable without a file path, bundled families at sample sizes."""
    return sorted({*_FIXED_DESCRIPTIONS, "so_plus_1_2", "stiefel_3_1", "stiefel_4_2"})
