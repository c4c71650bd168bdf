import pytest

from oracles import enumerate_commutative


@pytest.fixture(scope="session")
def commutative_tables():
    """Every commutative associative table of order 1..4, keyed by size.

    Enumerated once per session; order 4 alone has 1140 tables."""
    return {n: enumerate_commutative(n) for n in (1, 2, 3, 4)}
