"""Shared test configuration: a deterministic draw profile for property tests,
and a counter of the scaling core's rounds."""

import os
from pathlib import Path

import pytest
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


@pytest.fixture
def core_rounds(monkeypatch):
    """A list that gains one entry per call of the scaling core
    ``normalize._scale``, counted through its module binding."""
    from markovgeom import normalize

    real_scale, rounds = normalize._scale, []
    monkeypatch.setattr(normalize, "_scale",
                        lambda *args, **kwargs: rounds.append(1) or real_scale(*args, **kwargs))
    return rounds
