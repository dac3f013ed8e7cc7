import pytest
from hypothesis import settings

from ftqc import tensors

# Property tests draw the same examples on every run, so a failure reproduces
# and tier-1 stays deterministic; deadline=None because wall time per
# example varies with the machine's load.
settings.register_profile("ftqc", derandomize=True, deadline=None)
settings.load_profile("ftqc")


@pytest.fixture
def small_data():
    return tensors.random_instance(3, seed=7)


@pytest.fixture
def fcidump_file(tmp_path, small_data):
    path = tmp_path / "FCIDUMP"
    tensors.write_fcidump(small_data, path, nelec=6, ms2=0)
    return path
