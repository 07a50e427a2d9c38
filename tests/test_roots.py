import pytest

from kjuggle.errors import DomainError
from kjuggle.roots import (MINUS, ambient_dim, edouble, eminus, eplus, esingle,
                           highest_root, parse_root, positive_roots,
                           root_to_weight, simple_root_coefficients,
                           weight_from_simple)


def test_root_counts_match_type_formulas():
    assert len(positive_roots("A", 2)) == 3
    for r in range(1, 7):
        assert len(positive_roots("A", r)) == r * (r + 1) // 2
    for r in range(2, 7):
        assert len(positive_roots("B", r)) == r * r
    for r in range(3, 7):
        assert len(positive_roots("C", r)) == r * r
    for r in range(4, 7):
        assert len(positive_roots("D", r)) == r * (r - 1)


def test_small_root_systems_exactly():
    assert positive_roots("A", 2) == (eminus(1, 2), eminus(1, 3), eminus(2, 3))
    assert positive_roots("B", 2) == (eminus(1, 2), eplus(1, 2), esingle(1), esingle(2))
    d4 = positive_roots("D", 4)
    assert len(d4) == 12
    assert all(r.kind in ("minus", "plus") for r in d4)


def test_canonical_order_is_strict():
    for lie_type, rank in (("A", 4), ("B", 3), ("C", 4), ("D", 5)):
        roots = positive_roots(lie_type, rank)
        keys = [r.sort_key() for r in roots]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_positive_roots_are_built_once_per_type_and_rank():
    assert positive_roots("C", 5) is positive_roots("C", 5)
    assert positive_roots("C", 5) is not positive_roots("C", 6)
    for _ in range(2):  # an error is raised each time, never cached
        with pytest.raises(DomainError):
            positive_roots("D", 3)
        with pytest.raises(DomainError):
            positive_roots("E", 6)


def test_rank_minimums_enforced():
    for lie_type, bad in (("A", 0), ("B", 1), ("C", 2), ("D", 3)):
        with pytest.raises(DomainError):
            positive_roots(lie_type, bad)
    with pytest.raises(DomainError):
        positive_roots("E", 6)


def test_root_to_weight():
    assert root_to_weight(eminus(1, 3), 4) == (1, 0, -1, 0)
    assert root_to_weight(edouble(2), 3) == (0, 2, 0)
    assert root_to_weight(eplus(1, 2), 2) == (1, 1)
    with pytest.raises(DomainError):
        root_to_weight(eminus(1, 5), 4)


def test_weight_from_simple():
    assert weight_from_simple("A", 3, (1, 2, 1)) == (1, 1, -1, -1)
    assert weight_from_simple("B", 2, (1, 2)) == (1, 1)
    assert weight_from_simple("A", 2, (0, 0)) == (0, 0, 0)
    with pytest.raises(DomainError):
        weight_from_simple("A", 3, (1, 2))


def test_highest_roots():
    assert highest_root("A", 3) == (1, 0, 0, -1)
    assert highest_root("C", 3) == (2, 0, 0)
    assert highest_root("D", 4) == (1, 1, 0, 0)
    assert highest_root("B", 2) == (1, 1)


@pytest.mark.parametrize("lie_type,rank,coeffs", [
    ("A", 4, (1, 1, 1, 1)),
    ("B", 3, (1, 2, 2)),
    ("C", 3, (2, 2, 1)),
    ("D", 4, (1, 2, 1, 1)),
    ("D", 5, (1, 2, 2, 1, 1)),
])
def test_highest_root_simple_expansion(lie_type, rank, coeffs):
    assert highest_root(lie_type, rank) == weight_from_simple(lie_type, rank, coeffs)


def test_every_positive_root_has_nonnegative_simple_coefficients():
    for lie_type, rank in (("A", 4), ("B", 4), ("C", 4), ("D", 5)):
        n = ambient_dim(lie_type, rank)
        for root in positive_roots(lie_type, rank):
            coeffs = simple_root_coefficients(lie_type, rank, root_to_weight(root, n))
            assert all(c >= 0 for c in coeffs), (lie_type, rank, root)
            assert weight_from_simple(lie_type, rank, coeffs) == root_to_weight(root, n)


def test_simple_coefficient_lattice_errors():
    with pytest.raises(DomainError):
        simple_root_coefficients("A", 2, (1, 0, 0))
    with pytest.raises(DomainError):
        simple_root_coefficients("C", 3, (1, 0, 0))
    with pytest.raises(DomainError):
        simple_root_coefficients("D", 4, (1, 0, 0, 0))


def test_parse_and_format_roundtrip():
    for text, root in [("1-2", eminus(1, 2)), ("2+5", eplus(2, 5)),
                       ("3", esingle(3)), ("24", edouble(4))]:
        assert parse_root(text) == root
        assert parse_root(str(root)) == root
    with pytest.raises(DomainError):
        parse_root("x")
    with pytest.raises(DomainError):
        parse_root("3-2")


def test_root_kind_validation():
    with pytest.raises(DomainError):
        eminus(2, 2)
    with pytest.raises(DomainError):
        esingle(0)
    assert eminus(1, 2).kind == MINUS
