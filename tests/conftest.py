import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from berry_holonomy import TruncatedSpace

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def unitarity_defect(u: np.ndarray) -> float:
    """max |U+ U - 1| over the entries."""
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


@pytest.fixture(scope="session")
def space64():
    return TruncatedSpace(64)


@pytest.fixture(scope="session")
def space96():
    return TruncatedSpace(96)


@pytest.fixture(scope="session")
def space128():
    return TruncatedSpace(128)
