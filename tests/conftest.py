import numpy as np
import pytest

import hzml.hardyz as hz


@pytest.fixture
def split_batches(monkeypatch):
    """A setter that makes every critical-line batch run as n chunks joined
    in order: hardyz._line_core is the one place every Z value on the line
    goes through, and each point's value must not depend on the split."""

    def setter(n):
        real = hz._line_core

        def split(t, j, m):
            parts = [real(c, j, m) for c in np.array_split(t, n)]
            return tuple(np.concatenate(col) for col in zip(*parts))

        monkeypatch.setattr(hz, "_line_core", split)

    return setter
