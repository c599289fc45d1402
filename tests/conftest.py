import pathlib

import pytest

from wiring.relations import Relation
from wiring.typed import TypedStar, ValueDomain

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(scope="session")
def bool_domain() -> ValueDomain:
    return ValueDomain("Bool", ("True", "False"))


@pytest.fixture(scope="session")
def nand_star(bool_domain) -> TypedStar:
    return TypedStar.uniform(["A", "B", "out"], bool_domain)


@pytest.fixture(scope="session")
def nand_relation(nand_star) -> Relation:
    return Relation(
        nand_star,
        [
            ("True", "True", "False"),
            ("True", "False", "True"),
            ("False", "True", "True"),
            ("False", "False", "True"),
        ],
    )


@pytest.fixture()
def generic_calls(monkeypatch):
    """What each generic join of :func:`wiring.relations.evaluate` returned:
    ``None`` when both of its bounds were over the limit."""
    import wiring.relations as relations_mod

    calls = []
    generic_join = relations_mod._generic_join

    def spy(*args):
        calls.append(generic_join(*args))
        return calls[-1]

    monkeypatch.setattr(relations_mod, "_generic_join", spy)
    return calls
