import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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
def dim64():
    return 64


@pytest.fixture(scope="session")
def dim96():
    return 96


@pytest.fixture(scope="session")
def dim128():
    return 128
