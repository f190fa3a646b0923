from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 result repeats exactly.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


def pytest_configure(config):
    # Hypothesis still caches the literals it reads from the code under test;
    # keep that cache with pytest's own rather than in a .hypothesis/ directory.
    cache = getattr(config, "cache", None)
    if cache is not None:
        set_hypothesis_home_dir(cache.mkdir("hypothesis"))

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def scenes_dir() -> Path:
    return REPO_ROOT / "scenes"
