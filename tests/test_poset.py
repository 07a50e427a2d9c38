from itertools import product

import pytest

from kjuggle import poset as poset_module
from kjuggle.errors import DomainError, InvariantViolation
from kjuggle.kostant import count_partitions
from kjuggle.poset import (binomial_power_coefficients, build_poset,
                           characteristic_polynomial, minimal_elements,
                           mobius_from_bottom, poset_dot)
from kjuggle.roots import positive_roots


def test_single_ball_length_three_is_the_square_lattice():
    poset = build_poset((1,), (1,), 3, 1)
    assert len(poset) == 4
    assert len(poset.covers) == 4
    assert characteristic_polynomial(poset) == (1, -2, 1)


def test_singleton_poset():
    poset = build_poset((1,), (1,), 1)
    assert len(poset) == 1 and poset.covers == ()
    assert characteristic_polynomial(poset) == (1,)


def test_three_ball_staircase():
    poset = build_poset((1, 1, 1), (3,), 3)
    assert len(poset) == count_partitions((1, 1, 1, -3), positive_roots("A", 3)) == 7
    assert characteristic_polynomial(poset) == binomial_power_coefficients(3)


def test_grading_every_cover_changes_throw_count_by_one():
    poset = build_poset((1, 1, 1), (3,), 3)
    for lo, hi in poset.covers:
        assert poset.ranks[hi] == poset.ranks[lo] + 1
        assert len(poset.sequences[lo].throws) + 1 == len(poset.sequences[hi].throws)


def test_hypercube_shape():
    for n in (3, 4, 5):
        poset = build_poset((1,), (1,), n, 1)
        assert len(poset) == 2 ** (n - 1)
        degree = [0] * len(poset)
        for lo, hi in poset.covers:
            degree[lo] += 1
            degree[hi] += 1
        assert all(d == n - 1 for d in degree)


def test_multiple_minima_are_reported():
    # two incomparable two-throw sequences sit at the bottom
    poset = build_poset((1, 1), (1, 1), 2)
    assert len(minimal_elements(poset)) == 2
    with pytest.raises(DomainError):
        characteristic_polynomial(poset)


def test_empty_sequence_set_is_an_error():
    with pytest.raises(DomainError):
        build_poset((1,), (2,), 1)


def test_binomial_power_coefficients():
    assert binomial_power_coefficients(0) == (1,)
    assert binomial_power_coefficients(2) == (1, -2, 1)
    assert binomial_power_coefficients(3) == (-1, 3, -3, 1)


def test_dot_output_mentions_every_element_and_cover():
    poset = build_poset((1,), (1,), 3)
    text = poset_dot(poset)
    assert text.startswith("digraph")
    assert text.count("->") == len(poset.covers)
    assert text.count("label=") == len(poset)


def _brute_force_mobius(poset):
    """Mobius values from the bottom, by the defining recursion over the
    transitive closure of the covers."""
    up = {k: [] for k in range(len(poset))}
    for lo, hi in poset.covers:
        up[lo].append(hi)
    below = {k: set() for k in range(len(poset))}
    for x in range(len(poset)):
        stack = list(up[x])
        while stack:
            y = stack.pop()
            if x not in below[y]:
                below[y].add(x)
                stack.extend(up[y])
    (bottom,) = [x for x in range(len(poset)) if not below[x]]
    mu = {bottom: 1}
    for x in sorted(range(len(poset)), key=lambda k: len(below[k])):
        if x != bottom:
            assert bottom in below[x]
            mu[x] = -sum(mu[y] for y in below[x])
    return [mu[x] for x in range(len(poset))]


def test_mobius_matches_brute_force():
    cases = [(bits, (sum(bits),), len(bits), None)
             for length in range(1, 6) for bits in product((0, 1), repeat=length)]
    cases += [((1,), (1,), n, 1) for n in range(1, 8)]
    cases += [((1, 1, 0, 1, 0, 0), (3,), 6, None)]  # 860 elements, 14 distinct values
    for a, b, n, capacity in cases:
        poset = build_poset(a, b, n, capacity)
        assert mobius_from_bottom(poset) == _brute_force_mobius(poset), (a, n)
    assert len(set(mobius_from_bottom(poset))) == 14


def test_single_ball_length_twelve():
    poset = build_poset((1,), (1,), 12, 1)
    assert len(poset) == 2048
    assert len(poset.covers) == 11264
    assert characteristic_polynomial(poset) == binomial_power_coefficients(11)


def test_missing_merge_names_the_instance(monkeypatch):
    full = poset_module.enumerate_sequences

    def drop_bottom(*args):
        seqs = full(*args)
        fewest = min(len(s.throws) for s in seqs)
        return [s for s in seqs if len(s.throws) != fewest]

    monkeypatch.setattr(poset_module, "enumerate_sequences", drop_bottom)
    with pytest.raises(InvariantViolation) as info:
        build_poset((1, 1, 1), (3,), 3)
    message = str(info.value)
    assert "left the sequence set" in message
    assert "a=(1, 1, 1), b=(3,), n=3, capacity=None" in message
