import random

import pytest

from extraspecial import LaurentSeries, residue_field
from extraspecial.valuation import _idx_to_poly


@pytest.fixture(scope="session")
def f9():
    return residue_field(3, 2)


@pytest.fixture(scope="session")
def f3():
    return residue_field(3, 1)


@pytest.fixture(scope="session")
def f25():
    return residue_field(5, 2)


@pytest.fixture(scope="session")
def f27():
    return residue_field(3, 3)


def elem_from_index(field, idx: int):
    """Field element from its basis index (covers all of F_q, not just F_p)."""
    return field(_idx_to_poly(idx, field.d, field.p))


def random_elem(field, rng: random.Random, nonzero=False):
    lo = 1 if nonzero else 0
    return elem_from_index(field, rng.randrange(lo, field.q))


def random_series(field, rng: random.Random, min_exp=-6, max_exp=6, max_terms=5,
                  nonzero=False) -> LaurentSeries:
    coeffs = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        coeffs[rng.randint(min_exp, max_exp)] = random_elem(field, rng, nonzero=True)
    s = LaurentSeries(field, coeffs)
    if nonzero and s.is_zero():
        return LaurentSeries.monomial(field, field.gen(), rng.randint(min_exp, max_exp))
    return s
