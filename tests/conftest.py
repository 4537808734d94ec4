import pytest

from hopfgalois.fixtures import load_bundled

_CACHE = {}


def _fixture(name):
    if name not in _CACHE:
        _CACHE[name] = load_bundled(name)
    return _CACHE[name]


@pytest.fixture(scope="session")
def qi():
    return _fixture("qi")


@pytest.fixture(scope="session")
def qzeta3():
    return _fixture("qzeta3")


@pytest.fixture(scope="session")
def c4quartic():
    return _fixture("c4quartic")


@pytest.fixture(scope="session")
def v4biquad():
    return _fixture("v4biquad")


@pytest.fixture(scope="session")
def qcbrt2():
    return _fixture("qcbrt2")


@pytest.fixture(scope="session")
def s3sextic():
    return _fixture("s3sextic")


@pytest.fixture(scope="session")
def metacyclic21():
    return _fixture("metacyclic21")


@pytest.fixture(scope="session")
def d4():
    return _fixture("d4")


@pytest.fixture(scope="session")
def q8():
    return _fixture("q8")


@pytest.fixture(scope="session")
def field_fixtures(qi, qzeta3, c4quartic, v4biquad, qcbrt2, s3sextic):
    return [qi, qzeta3, c4quartic, v4biquad, qcbrt2, s3sextic]


@pytest.fixture(scope="session")
def all_fixtures(field_fixtures, metacyclic21, d4, q8):
    return field_fixtures + [metacyclic21, d4, q8]
