"""Shared fixtures."""

import pytest

from ncforms.linalg import QMat


class LargestQMat:
    """The shape of the largest QMat (by entry count) built since reset()."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.shape, self.size = (0, 0), 0


@pytest.fixture
def largest_qmat(monkeypatch):
    """Records the largest matrix the code under test allocates as a QMat:
    every QMat passes through its constructor, so this bounds the dense
    operators a call builds (numpy temporaries inside one operation are
    not seen)."""
    rec = LargestQMat()
    init = QMat.__init__

    def recording(self, num, den=1):
        init(self, num, den)
        if num.size > rec.size:
            rec.shape, rec.size = num.shape, num.size

    monkeypatch.setattr(QMat, "__init__", recording)
    return rec
