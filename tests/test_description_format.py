"""A model description states each fact once: its sizes are read off its forms.

The generators write no ``params`` and no ``dtype``.  A description of the
older format, with ``params`` restating its sizes and ``"dtype": "real"``,
builds the same model bit for bit, and so does one whose ``params``
contradict its forms: nothing reads them.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from semiroll.models import (_description_for, available_models, build_model,
                             pseudo_orthogonal, stiefel)

DATA = Path(stiefel.__file__).parent / "data"
FIXTURES = sorted(p.stem for p in DATA.glob("*.json"))


def _moved_so_plus_1_2():
    X = np.zeros((3, 3))
    X[0, 1] = X[1, 0] = 0.8
    X[0, 2] = X[2, 0] = -0.5
    return pseudo_orthogonal.description(1, 2, expm(X))


DESCRIPTIONS = {
    **{name: (lambda name=name: _description_for(name)) for name in available_models()},
    **{f"fixture_{stem}": (lambda stem=stem: json.loads((DATA / f"{stem}.json").read_text()))
       for stem in FIXTURES},
    "moved_so_plus_1_2": _moved_so_plus_1_2,
}


def _old_params(desc):
    """The ``params`` the older generators wrote, read back off the name."""
    sizes = [int(size) for size in re.findall(r"\d+", desc["name"])]
    if desc["name"].startswith("stiefel"):
        return dict(zip("nk", sizes))
    if desc["name"].startswith("so_plus"):
        return dict(zip("pq", sizes))
    return {}


def _same(a, b):
    """Equal values, signed zeros included: equal bits, dtype and shape."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _outputs(model):
    """Every array the model derives and its bundle's values at fixed inputs."""
    rng = np.random.default_rng(11)
    qs = np.array([model.random_group_element(rng) for _ in range(3)])
    X = np.tensordot(rng.standard_normal(model.basis.shape[0]), model.basis, axes=(0, 0))
    X[0, 0] = -0.0
    points = np.asarray(model.rho(qs)) @ model.obar
    return {
        "rho": model.rho(qs),
        "rho_one": model.rho(qs[0]),
        "d_e_rho": model.d_e_rho(X),
        "tangent_frame_at": model.tangent_frame_at(points),
        "constraint": model.constraint(points),
        **{attr: getattr(model, attr) for attr in (
            "frame0", "normal0", "omega_basis", "cf0", "ip_p", "target_gram", "d_rho_p")},
        "symmetric_space": model.symmetric_space,
        "validate": list(model.validate().items()),
    }


@pytest.mark.parametrize("name", sorted(DESCRIPTIONS))
def test_no_generator_writes_params_or_dtype(name):
    desc = DESCRIPTIONS[name]()
    assert "params" not in desc and "dtype" not in desc


@pytest.mark.parametrize("name", sorted(DESCRIPTIONS))
def test_stale_or_contradicting_params_build_the_same_model(name):
    desc = DESCRIPTIONS[name]()
    old = {**desc, "dtype": "real", "params": _old_params(desc)}
    contradicting = {**desc, "params": {"n": 7, "k": 5, "p": 0, "q": 9}}
    new = _outputs(build_model(desc))
    for variant in (old, contradicting):
        built = _outputs(build_model(json.loads(json.dumps(variant))))
        assert built.keys() == new.keys()
        for key, value in new.items():
            if key == "validate":
                assert built[key] == value, key
            else:
                assert _same(built[key], value), key
