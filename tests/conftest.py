import pytest
from hypothesis import settings

from pauligeom import polar_geometry as pg
from pauligeom.pauli_codec import GeometryContext

# Property tests draw the same examples on every run and have no time
# limit per example, so a slow host cannot fail them.
settings.register_profile("pauligeom", derandomize=True, deadline=None, database=None)
settings.load_profile("pauligeom")


@pytest.fixture(scope="session")
def ctx2():
    return GeometryContext(2)


@pytest.fixture(scope="session")
def ctx3():
    return GeometryContext(3)


@pytest.fixture(scope="session")
def ctx4():
    return GeometryContext(4)


@pytest.fixture(scope="session")
def gens4(ctx4):
    return pg.get_generators(ctx4, "quadric")


@pytest.fixture(scope="session")
def sympl4(ctx4):
    return pg.get_generators(ctx4, "symplectic")


@pytest.fixture(scope="session")
def quadric4(gens4):
    return gens4.quadric


@pytest.fixture(scope="session")
def ovoids(ctx4):
    return pg.get_ovoids(ctx4)


@pytest.fixture(scope="session")
def ostar():
    return pg.ostar()


@pytest.fixture(scope="session")
def census(ovoids):
    """The tetrad census over all 960 ovoids, built once per session."""
    return pg.tetrad_census(ovoids)
