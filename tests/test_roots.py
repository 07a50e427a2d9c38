import copy
import pickle
import re

import pytest

from kjuggle import roots as roots_module
from kjuggle.errors import DomainError
from kjuggle.roots import (DOUBLE, MIN_RANK, MINUS, PLUS, SINGLE, Root,
                           ambient_dim, edouble, eminus, eplus, esingle,
                           highest_root, parse_root, positive_roots,
                           root_to_weight, simple_root, simple_root_coefficients,
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
        keys = [r.key for r in roots]
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


def _old_highest_root(lie_type, n):
    """The per-type ladder highest_root was written as before it read a Root."""
    w = [0] * n
    if lie_type == "A":
        w[0], w[n - 1] = 1, -1
    elif lie_type == "C":
        w[0] = 2
    else:
        w[0], w[1] = 1, 1
    return tuple(w)


def _old_simple_root(lie_type, rank, i, n):
    """The per-type ladder simple_root was written as before it read a Root."""
    w = [0] * n
    if lie_type == "A" or i < rank:
        w[i - 1] = 1
        w[i] = -1
    elif lie_type == "B":
        w[rank - 1] = 1
    elif lie_type == "C":
        w[rank - 1] = 2
    else:  # D
        w[rank - 2] = 1
        w[rank - 1] = 1
    return tuple(w)


def test_highest_and_simple_roots_match_the_per_type_ladders():
    checked = 0
    for lie_type in "ABCD":
        for rank in range(MIN_RANK[lie_type], 31):
            n = ambient_dim(lie_type, rank)
            assert highest_root(lie_type, rank) == _old_highest_root(lie_type, n)
            for i in range(1, rank + 1):
                assert simple_root(lie_type, rank, i) == _old_simple_root(lie_type, rank, i, n)
                checked += 1
            for i in (0, rank + 1):
                with pytest.raises(DomainError, match=f"simple root index {i} out of range"):
                    simple_root(lie_type, rank, i)
        for bad in (MIN_RANK[lie_type] - 1, -1):
            for call in (lambda: highest_root(lie_type, bad),
                         lambda: simple_root(lie_type, bad, 1)):
                with pytest.raises(DomainError, match=f"requires rank >= {MIN_RANK[lie_type]}"):
                    call()
    assert checked == 465 + 464 + 462 + 459  # ranks up to 30: r(r+1)/2 summed, less the low ranks
    for call in (lambda: highest_root("E", 6), lambda: simple_root("E", 6, 1)):
        with pytest.raises(DomainError, match="unknown Lie type"):
            call()


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


def test_root_text_never_collides():
    # e_i whose digits start with 2 (two or more of them) and 2e_i past one
    # digit print with an "e"; the legacy digit tokens keep their reading.
    assert [str(r) for r in (esingle(2), esingle(20), esingle(21), esingle(213), esingle(12))] \
        == ["2", "e20", "e21", "e213", "12"]
    assert [str(r) for r in (edouble(9), edouble(10), edouble(21))] == ["29", "2e10", "2e21"]
    for text, root in [("e21", esingle(21)), ("e3", esingle(3)), ("2e12", edouble(12)),
                       ("2e4", edouble(4)), ("2", esingle(2)), ("21", edouble(1)),
                       ("37", esingle(37)), ("29", edouble(9))]:
        assert parse_root(text) is root, text
    for text in ("20", "210", "2100"):
        with pytest.raises(DomainError, match="e<i> .* 2e<i>") as info:
            parse_root(text)
        assert "\n" not in str(info.value)


def test_root_kind_validation():
    with pytest.raises(DomainError):
        eminus(2, 2)
    with pytest.raises(DomainError):
        esingle(0)
    assert eminus(1, 2).kind == MINUS


def _old_text(root):
    """The text the root dataclass built on every call, but for the one
    spelling changed since: 2e_i with i >= 10 prints as 2e<i>, since the
    token 2<i> could also be e_2<i>.  (e_20 and up print as e<i>, but no
    rank here reaches them.)"""
    if root.kind == MINUS:
        return f"{root.i}-{root.j}"
    if root.kind == PLUS:
        return f"{root.i}+{root.j}"
    if root.kind == SINGLE:
        return f"{root.i}"
    return f"2{root.i}" if root.i < 10 else f"2e{root.i}"


def test_roots_are_interned():
    assert eminus(1, 2) is eminus(1, 2)
    assert Root(MINUS, 1, 2) is eminus(1, 2)
    assert Root(PLUS, 2, 5) is eplus(2, 5)
    assert Root(SINGLE, 3) is esingle(3) is Root(SINGLE, 3, 0)
    assert Root(DOUBLE, 4) is edouble(4)
    assert Root(MINUS, 7.0, 9) is Root(MINUS, 7, 9)
    assert eminus(True, 9.0) is eminus(1, 9)
    assert type(eminus(8.0, 9).i) is int and str(eminus(8.0, 9)) == "8-9"
    assert eminus(1, 2) is not eplus(1, 2)
    assert len({eminus(1, 2), Root(MINUS, 1, 2), eplus(1, 2)}) == 2
    assert all(a is b for a, b in zip(positive_roots("B", 4),
                                      [Root(r.kind, r.i, r.j) for r in positive_roots("B", 4)]))


def test_copies_and_pickles_are_the_same_root():
    for root, terms in ((eminus(1, 2), ((1, 1), (2, -1))), (eplus(3, 7), ((3, 1), (7, 1))),
                        (esingle(2), ((2, 1),)), (edouble(5), ((5, 2),))):
        assert root.terms == terms
        assert copy.copy(root) is root
        assert copy.deepcopy(root) is root
        assert copy.deepcopy([root, (root, 1)])[1][0] is root
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(root, protocol))
            assert back is root and back.terms == terms


def _old_weight(root, ambient):
    """The coordinate vector as the per-kind expansion wrote it."""
    w = [0] * ambient
    if root.kind == MINUS:
        w[root.i - 1], w[root.j - 1] = 1, -1
    elif root.kind == PLUS:
        w[root.i - 1], w[root.j - 1] = 1, 1
    elif root.kind == SINGLE:
        w[root.i - 1] = 1
    else:
        w[root.i - 1] = 2
    return tuple(w)


def test_terms_expand_as_the_per_kind_reference():
    checked = 0
    for lie_type, last in (("A", 8), ("B", 8), ("C", 8), ("D", 8)):
        for rank in range(MIN_RANK[lie_type], last + 1):
            n = ambient_dim(lie_type, rank)
            for root in positive_roots(lie_type, rank):
                assert root_to_weight(root, n) == _old_weight(root, n), root
                assert root.terms == tuple((k, x) for k, x in enumerate(_old_weight(root, n), 1)
                                           if x)
                top = root.terms[-1][0]
                assert root_to_weight(root, top) == _old_weight(root, top)
                with pytest.raises(DomainError, match=re.escape(f"root {root} does not fit")):
                    root_to_weight(root, top - 1)
                checked += 1
    assert checked == 120 + 203 + 199 + 160  # r(r+1)/2, r^2, r^2, r(r-1) roots summed over the ranks


def test_roots_are_immutable():
    root = eminus(1, 2)
    with pytest.raises(AttributeError):
        root.i = 3
    with pytest.raises(AttributeError):
        del root.j
    assert root.i == 1 and root.j == 2 and str(root) == "1-2"


def test_root_text_matches_the_old_format():
    for lie_type, rank in (("A", 12), ("B", 11), ("C", 11), ("D", 11)):
        for root in positive_roots(lie_type, rank):
            text = _old_text(root)
            assert str(root) == f"{root}" == text
            assert format(root, ">6") == f"{root:>6}" == f"{text:>6}"
            assert format(root, "") == text
    assert repr(eminus(1, 2)) == "Root(kind='minus', i=1, j=2)"


def test_parse_root_returns_the_interned_root():
    for lie_type in "ABCD":
        for rank in range(MIN_RANK[lie_type], 61):
            for root in positive_roots(lie_type, rank):
                assert parse_root(str(root)) is root, (lie_type, rank, root)


@pytest.mark.parametrize("kind,i,j", [
    (MINUS, 2, 2), (MINUS, 3, 1), (PLUS, 0, 1), (SINGLE, 0, 0), (SINGLE, 1, 2),
    (DOUBLE, -1, 0), ("cross", 1, 2), (MINUS, 1.5, 3), (MINUS, "1", 3),
    (MINUS, 1, float("inf")), (MINUS, 1, float("nan")), (MINUS, None, 3),
])
def test_invalid_roots_raise_one_line_and_are_not_interned(kind, i, j):
    before = dict(roots_module._INTERNED)
    with pytest.raises(DomainError) as info:
        Root(kind, i, j)
    assert "\n" not in str(info.value)
    assert roots_module._INTERNED == before
