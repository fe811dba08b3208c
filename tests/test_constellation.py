import numpy as np
import numpy.testing as npt
import pytest

from gfdmsim.constellation import Constellation, qpsk


def test_constellation_requires_unit_average_energy():
    with pytest.raises(ValueError, match="average energy"):
        Constellation("bad", np.array([2, -2]))
    cs = qpsk()
    assert cs.size == 4
    npt.assert_allclose(np.mean(np.abs(cs.points) ** 2), 1.0, atol=1e-15)
