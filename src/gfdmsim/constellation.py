"""Symbol constellations with unit-average-energy normalization."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Constellation:
    """A finite symbol alphabet.

    `points` fixes the canonical symbol order used everywhere (data generation,
    detector tie-breaking, error counting) and must have unit average energy,
    which the SNR-to-noise conversion and the MMSE regularization assume.
    Sweeps count symbol errors, so symbols carry no bit labels.
    """

    name: str
    points: np.ndarray

    def __post_init__(self):
        avg = float(np.mean(np.abs(self.points) ** 2))
        if abs(avg - 1.0) > 1e-12:
            raise ValueError(
                f"constellation '{self.name}' has average energy {avg!r}, expected 1"
            )

    @property
    def size(self) -> int:
        return len(self.points)


def qpsk() -> Constellation:
    """QPSK with points (+-1 +-1j)/sqrt(2), average energy 1."""
    re = np.array([1, 1, -1, -1], dtype=float)
    im = np.array([1, -1, 1, -1], dtype=float)
    points = (re + 1j * im) / np.sqrt(2.0)
    return Constellation(name="qpsk", points=points)
