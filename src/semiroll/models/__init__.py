"""Model registry: bundled geometries plus declarative JSON descriptions.

Every model is constructed through one path: a JSON-serializable
*description* (real algebra basis, splitting, form signatures, submersion
differential, the embedded base point ``obar``) paired with a named
*embedding bundle* that supplies what only the model knows: ``rho``,
``d_e_rho``, ``tangent_frame_at`` and ``constraint``, the defining
equations that refuse a sampled curve off the manifold.  Every model is a
level set X^T J X = G, and one rule, ``pseudo_orthogonal._level_set``, gives
each its constraint and (but SO+(p, q)) its tangent frames.  A bundle reads
every size it needs off the description's form signatures, so a description
states each fact once; ``build_model`` ignores the ``params`` key of older
files, takes a ``dtype`` only if it is ``"real"``, refuses by name a
description that is not an object, lacks a field or holds one of another
JSON type (``_FIELDS``), and passes the bundle straight to ``CartanModel``,
which derives the random points rho(q) obar and the rolling correction
(``omega_basis``, zero on a symmetric space) itself.  ``get_model`` is the
one lookup: it resolves the fixed names and the parameterized family names
from their generators, builds each model once and caches it, and builds and
validates a description file by path, naming the file if it is not JSON.  A
model with a base point of its own is built from a description with that
``obar``.  Every model rolls through
``homogeneous``, and a symmetric one also through
``hyperbolic.kinematic_roll``.  SU(2) and SU(1,1) are stored as real forms
r(X) = [[Re X, -Im X], [Im X, Re X]].  The JSON files under ``data/`` are
regression fixtures: tests check that they still match the generators, and
they show the file format.
"""

from __future__ import annotations

import json
import numbers
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


def build_model(desc):
    """Instantiate a CartanModel from a description dictionary."""
    if not isinstance(desc, dict):
        raise ValueError(f"model description must be a JSON object, got {type(desc).__name__}")
    version = desc.get("format_version")
    if version != 2:
        raise ValueError(f"unsupported model format_version: {version!r}")
    embedding = desc.get("embedding", "")
    if not isinstance(embedding, str) or not embedding.startswith("builtin:"):
        raise ValueError(f"unknown embedding scheme: {embedding!r}")
    key = embedding.split(":", 1)[1]
    if key not in EMBEDDING_BUNDLES:
        raise ValueError(f"unknown embedding bundle: {key!r}")
    if desc.get("dtype", "real") != "real":
        raise ValueError(f"unsupported basis dtype {desc['dtype']!r}: a basis is real; store "
                         "a complex matrix X as its real form r(X) = [[Re X, -Im X], [Im X, Re X]]")
    fields = {field: _field(desc, field) for field in _FIELDS}
    return CartanModel(form=SignatureForm(fields.pop("J_signs")),
                       group_form=SignatureForm(fields.pop("group_signs")),
                       **fields, **EMBEDDING_BUNDLES[key](desc))


# each field's JSON type: a leaf type under that many lists, as named in a refusal
_FIELDS = {
    "name": (str, 0, "a string"),
    "basis": (numbers.Real, 3, "a list of lists of lists of numbers"),
    "h_indices": (numbers.Integral, 1, "a list of integers"),
    "p_indices": (numbers.Integral, 1, "a list of integers"),
    "J_signs": (numbers.Real, 1, "a list of numbers"),
    "group_signs": (numbers.Real, 1, "a list of numbers"),
    "obar": (numbers.Real, 1, "a list of numbers"),
    "d_e_pi": (numbers.Real, 2, "a list of lists of numbers"),
}


def _stray(value, leaf, depth):
    """Type name of the first entry of ``value`` that is no ``leaf`` under ``depth`` lists,
    or None; a bool is no number, as ``integrate._integer`` refuses it for a size."""
    if depth == 0 and isinstance(value, leaf) and not isinstance(value, bool):
        return None
    if depth == 0 or not isinstance(value, list):
        return type(value).__name__
    return next(filter(None, (_stray(entry, leaf, depth - 1) for entry in value)), None)


def _field(desc, key):
    """Field ``key`` of a description read by its JSON type, numbers as a float array; a
    missing field, a wrong type and ragged rows are refused by the field's name."""
    if key not in desc:
        raise ValueError(f"model description is missing {key!r}")
    (leaf, depth, kind), value = _FIELDS[key], desc[key]
    got = _stray(value, leaf, depth)
    if got is None and leaf is numbers.Real:
        try:
            return np.array(value, dtype=float)
        except ValueError:
            got = "a ragged list"
    elif got is None:
        return value
    elif depth and isinstance(value, list):
        got = f"a list holding {got}"
    raise ValueError(f"model description field {key!r} must be {kind}, got {got}")


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
                try:
                    desc = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{name}: model description is not valid JSON: {exc}") from None
            model = build_model(desc)
            model.validate()
            return model
    raise KeyError(
        f"unknown model {name!r}; try one of {available_models()} "
        "or a description-file path"
    )


def available_models():
    """Names resolvable without a file path, bundled families at sample sizes."""
    return sorted({*_FIXED_DESCRIPTIONS, "so_plus_1_2", "stiefel_3_1", "stiefel_4_2"})
