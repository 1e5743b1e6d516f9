import pytest

from mwglue.ellcurve import EllipticCurve
from mwglue.family import curve_for_prime
from mwglue.fixtures import EXAMPLE_E, EXAMPLE_F

from inputs import InputDir


@pytest.fixture(scope="session")
def example_e() -> EllipticCurve:
    return EXAMPLE_E


@pytest.fixture(scope="session")
def example_f() -> EllipticCurve:
    return EXAMPLE_F


@pytest.fixture(scope="session")
def e3() -> EllipticCurve:
    return curve_for_prime(3)


@pytest.fixture(scope="session")
def e11() -> EllipticCurve:
    return curve_for_prime(11)


@pytest.fixture
def inputs(tmp_path) -> InputDir:
    """The test's input files, written through tests/inputs.py."""
    return InputDir(tmp_path)
