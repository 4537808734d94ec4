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


@pytest.fixture
def generator_kernels(monkeypatch):
    """The determinant kernels generator tests call in descent, in order:
    ("mod p", matrix) for linalg.int_det on a transition matrix (one of
    residues: the mod-p certificate of the per-sample test,
    transition_det_nonzero; the batch reads Delta_N as forms and
    eliminates none), ("orbit", matrix) for linalg.int_det
    on any other matrix (an orbit, the exact rank) and ("exact", matrix)
    for _packed_det (the exact transition determinant over E)."""
    from types import SimpleNamespace

    from hopfgalois import descent, linalg
    events, built = [], {}
    build, int_det, packed_det = (descent.transition_matrix_of,
                                  linalg.int_det, descent._packed_det)

    def building(n, values):
        matrix = build(n, values)
        built[id(matrix)] = matrix
        return matrix

    def det(rows):
        events.append(("mod p" if built.get(id(rows)) is rows else "orbit",
                       rows))
        return int_det(rows)

    def exact(rows, modulus):
        events.append(("exact", rows))
        return packed_det(rows, modulus)
    monkeypatch.setattr(descent, "transition_matrix_of", building)
    monkeypatch.setattr(descent, "linalg",
                        SimpleNamespace(**{**vars(linalg), "int_det": det}))
    monkeypatch.setattr(descent, "_packed_det", exact)
    return events
