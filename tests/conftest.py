"""Settings shared by the whole tier-1 suite."""

from hypothesis import settings

# Property tests parse files and run solver loops on shared hosts, where one
# stalled example says nothing about correctness: no per-example deadline.
settings.register_profile("plrlab", deadline=None)
settings.load_profile("plrlab")
