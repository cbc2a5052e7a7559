import pytest

from loom import build_cartan, energy_table, fundamental_crystal, linear_path
from weights import fund


@pytest.fixture(scope="session")
def a1():
    return build_cartan("A", 1)


@pytest.fixture(scope="session")
def a2():
    return build_cartan("A", 2)


@pytest.fixture(scope="session")
def c2():
    return build_cartan("C", 2)


@pytest.fixture(scope="session")
def b3():
    return build_cartan("B", 3)


@pytest.fixture(scope="session")
def a1_base(a1):
    return fundamental_crystal(a1, 1)


@pytest.fixture(scope="session")
def a1_keys(a1):
    """The keys of the A1 paths along w1 and -w1."""
    w = fund(a1, 1)
    return linear_path(w).key(), linear_path(-w).key()


@pytest.fixture(scope="session")
def a2_base(a2):
    return fundamental_crystal(a2, 1)


@pytest.fixture(scope="session")
def c2_base(c2):
    return fundamental_crystal(c2, 1)


@pytest.fixture(scope="session")
def a1_energy(a1, a1_base):
    return energy_table(a1_base)


@pytest.fixture(scope="session")
def a2_energy(a2, a2_base):
    return energy_table(a2_base)
