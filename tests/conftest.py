"""Shared test configuration: a deterministic draw profile for property tests."""

import os
from pathlib import Path

from hypothesis import settings

# hypothesis caches the constants it reads from the source under its storage
# directory whatever the profile says; keep that cache inside pytest's own
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", str(Path(__file__).parents[1] / ".pytest_cache" / "hypothesis")
)

# derandomized and without an example database, so every run draws the same
# cases; no deadline, since a wide draw runs a few milliseconds of BLAS
settings.register_profile(
    "markovgeom", derandomize=True, database=None, max_examples=150, deadline=None
)
settings.load_profile("markovgeom")
