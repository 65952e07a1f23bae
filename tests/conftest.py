import pytest

import hzml.hardyz as hz


@pytest.fixture
def pool_threads(monkeypatch):
    """A setter for the pool's thread count. With the EM threshold lowered
    to 1, every batch that holds an Euler-Maclaurin point goes to the pool
    in 4 chunks a thread when the count is above 1, whatever the CPUs;
    batches that are all Riemann-Siegel still run on the calling thread."""
    monkeypatch.setattr(hz, "_POOL_MIN_EM_POINTS", 1)
    return lambda n: monkeypatch.setattr(hz, "_thread_count", lambda: n)
