"""A test leaves the cached models as it found them.

``monkeypatch.setattr(model, name, ...)`` on a cached model restores the
method by setattr, so after undo a bound method stays in the model's
``__dict__`` and hides any later patch of ``CartanModel.<name>``.  Patch the
class instead, and count only the calls on the model under test.
"""

import inspect

import pytest

from semiroll import models
from semiroll.homogeneous import CartanModel

METHOD_NAMES = frozenset(name for name, value in vars(CartanModel).items()
                         if inspect.isfunction(value) or isinstance(value, property))


@pytest.fixture(autouse=True)
def _cached_models_keep_their_methods():
    # autouse fixtures are set up first, so this runs after monkeypatch's undo
    yield
    left = {}
    for name, model in list(models._CACHE.items()):
        names = METHOD_NAMES & vars(model).keys()
        if names:
            left[name] = sorted(names)
            for method in names:
                delattr(model, method)
    if left:
        pytest.fail(f"test left CartanModel methods on cached model instances: {left}")
