"""Settings shared by the whole tier-1 suite."""

import copy
import pickle

import pytest
from hypothesis import settings

# Property tests parse files and run solver loops on shared hosts, where one
# stalled example says nothing about correctness: no per-example deadline.
settings.register_profile("plrlab", deadline=None)
settings.load_profile("plrlab")


@pytest.fixture(params=[copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
                ids=["copy", "deepcopy", "pickle"])
def duplicate(request):
    """Each way to duplicate an instance: a shallow copy, a deep copy, a pickle round trip."""
    return request.param
