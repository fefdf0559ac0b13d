import os

import pytest
from hypothesis import settings

# property tests draw the same examples on every run, matching the package's
# byte-deterministic output policy; export HYPOTHESIS_PROFILE=explore to search
settings.register_profile("fixed", derandomize=True)
settings.register_profile("explore", derandomize=False, max_examples=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fixed"))


@pytest.fixture(autouse=True)
def no_partial_files(request):
    """Fail a test that leaves an atomic writer's temp or part file behind."""
    root = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    if root is not None:
        left = sorted(str(p.relative_to(root)) for pattern in ("*.tmp", "*.part")
                      for p in root.rglob(pattern))
        assert not left, f"partial files left behind: {left}"
