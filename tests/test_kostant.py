import random
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kjuggle import kostant
from kjuggle.errors import DomainError
from kjuggle.kostant import (canonical_roots, count_capacity_restricted,
                             count_partitions, count_weighted,
                             enumerate_partitions, make_partition,
                             partition_weight)
from kjuggle.roots import (MINUS, ambient_dim, eminus, eplus, esingle, highest_root,
                           positive_roots, root_to_weight, weight_from_simple)

A3 = positive_roots("A", 3)


def test_worked_example_count_and_multisets():
    mu = weight_from_simple("A", 3, (1, 2, 1))
    parts = enumerate_partitions(mu, A3)
    assert count_partitions(mu, A3) == 5
    assert set(parts) == {
        make_partition([eminus(1, 2), eminus(2, 3), eminus(2, 3), eminus(3, 4)]),
        make_partition([eminus(1, 3), eminus(2, 4)]),
        make_partition([eminus(1, 3), eminus(2, 3), eminus(3, 4)]),
        make_partition([eminus(1, 2), eminus(2, 3), eminus(2, 4)]),
        make_partition([eminus(1, 4), eminus(2, 3)]),
    }


def test_zero_weight_has_one_partition():
    assert count_partitions((0, 0, 0, 0), A3) == 1
    assert enumerate_partitions((0, 0, 0, 0), A3) == [()]


def test_unreachable_weight_counts_zero():
    assert count_partitions((-1, 1, 0, 0), A3) == 0
    assert enumerate_partitions((0, 1, -1, 0), [eminus(1, 2)]) == []


def test_doubled_highest_root_values():
    # brute-force anchors: 3, 10, 125 by independent flow enumeration
    assert count_partitions((2, 0, -2), positive_roots("A", 2)) == 3
    assert count_partitions((2, 0, 0, -2), A3) == 10
    assert count_partitions((2, 0, 0, 0, 0, -2), positive_roots("A", 5)) == 125


def test_other_type_highest_roots():
    assert count_partitions(highest_root("B", 2), positive_roots("B", 2)) == 3
    assert count_partitions(highest_root("C", 3), positive_roots("C", 3)) == 10
    assert count_partitions(highest_root("D", 4), positive_roots("D", 4)) == 15


def test_count_matches_enumeration_everywhere_small():
    for lie_type, rank in (("A", 3), ("B", 2), ("C", 3), ("D", 4)):
        roots = positive_roots(lie_type, rank)
        n = len(highest_root(lie_type, rank))
        for head in product(range(-1, 2), repeat=n):
            parts = enumerate_partitions(head, roots)
            assert count_partitions(head, roots) == len(parts)
            for p in parts:
                assert partition_weight(p, n) == tuple(head)


def _random_instance(rng):
    """A random root subset of a random type and a signed weight: uniform in
    [-3, 3], or a sum of a few allowed roots so that most counts are nonzero."""
    lie_type = rng.choice("ABCD")
    rank = rng.randint({"A": 1, "B": 2, "C": 3, "D": 4}[lie_type], 4)
    n = ambient_dim(lie_type, rank)
    allowed = [r for r in positive_roots(lie_type, rank) if rng.random() < 0.7]
    if allowed and rng.random() < 0.5:
        mu = [0] * n
        for _ in range(rng.randint(1, 4)):
            for k, x in enumerate(root_to_weight(rng.choice(allowed), n)):
                mu[k] += x
        return tuple(mu), allowed
    return tuple(rng.randint(-3, 3) for _ in range(n)), allowed


def _canonical_key(partition):
    return tuple((root.key, mult) for root, mult in partition)


def _assert_canonical_listing(parts, mu):
    """Strictly increasing in the canonical key, and every element sums to mu."""
    keys = [_canonical_key(p) for p in parts]
    assert all(x < y for x, y in zip(keys, keys[1:])), mu
    assert all(partition_weight(p, len(mu)) == tuple(mu) for p in parts), mu


def test_count_matches_enumeration_on_random_subsets():
    # the forward layer count and the recursive enumeration are separate
    # code paths; they must agree on restricted root sets of every type, and
    # the listing (which is never sorted) must come out canonically ordered
    rng = random.Random(20201)
    nonzero = 0
    for _ in range(400):
        mu, allowed = _random_instance(rng)
        count = count_partitions(mu, allowed)
        parts = enumerate_partitions(mu, allowed)
        assert count == len(parts), (mu, allowed)
        _assert_canonical_listing(parts, mu)
        nonzero += count > 0
    assert nonzero > 100


@st.composite
def _small_instances(draw):
    lie_type, rank = draw(st.sampled_from(
        [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4)]))
    roots = positive_roots(lie_type, rank)
    keep = draw(st.lists(st.booleans(), min_size=len(roots), max_size=len(roots)))
    n = ambient_dim(lie_type, rank)
    mu = draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))
    return tuple(mu), [r for r, k in zip(roots, keep) if k]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(instance=_small_instances())
def test_count_matches_enumeration_property(instance):
    mu, allowed = instance
    parts = enumerate_partitions(mu, allowed)
    assert count_partitions(mu, allowed) == len(parts)
    _assert_canonical_listing(parts, mu)


def test_enumeration_depth_is_one_frame_per_root():
    # 400 roots: the walk passes every one of them with multiplicity 0
    roots = positive_roots("B", 20)
    last = esingle(20)
    mu = root_to_weight(last, 20)
    assert enumerate_partitions(mu, roots) == [((last, 1),)]


@pytest.mark.parametrize("roots, weight", [
    # 1,500 roots of one (kind, i) group: all but the first are skipped
    ([eminus(1, j) for j in range(2, 1502)], {1: 1, 2: -1}),
    # 1,500 groups of one simple root each: all but the last are stepped past
    ([eminus(i, i + 1) for i in range(1, 1501)], {1500: 1, 1501: -1}),
])
def test_skipped_roots_and_groups_take_no_frame(roots, weight):
    mu = tuple(weight.get(k, 0) for k in range(1, 1502))
    root = eminus(*sorted(weight))
    assert count_partitions(mu, roots) == 1
    assert enumerate_partitions(mu, roots) == [((root, 1),)]


def test_a_partition_of_many_parts_takes_no_frame_per_part():
    # e_1 - e_1501 over the 1,500 simple roots: one partition, of 1,500 parts
    roots = [eminus(i, i + 1) for i in range(1, 1501)]
    mu = (1,) + (0,) * 1499 + (-1,)
    assert count_partitions(mu, roots) == 1
    assert enumerate_partitions(mu, roots) == [tuple((root, 1) for root in roots)]


def test_count_weighted_is_linear():
    assert count_weighted({}, A3) == 0
    assert count_weighted({(0, 0, 0, 0): 7}, A3) == 7
    mapping = {(1, 1, -1, -1): 3, (2, 0, 0, -2): 5, (1, 0, 0, -1): -2, (0, 1, -2, 1): 4}
    expected = sum(ways * count_partitions(w, A3) for w, ways in mapping.items())
    assert expected == 3 * 5 + 5 * 10 - 2 * 4
    assert count_weighted(mapping, A3) == expected
    with pytest.raises(DomainError):
        count_weighted({(0, 0, 0, 0): 1, (1, -1): 1}, A3)


# Weights with coordinates of size 40 next to small ones: a residual field one
# bit narrower than the packing uses would carry into its neighbour.
WIDE_ENUMERATED = [
    ("A", 2, (40, 0, -40)), ("A", 2, (0, 40, -40)), ("A", 2, (-40, 40, 0)),
    ("A", 3, (40, 0, 0, -40)), ("A", 3, (1, 40, -1, -40)),
    ("B", 2, (40, 0)), ("B", 2, (0, 40)), ("B", 2, (40, -40)), ("B", 2, (-40, 40)),
    ("B", 3, (0, 40, 0)), ("B", 3, (40, 1, -40)), ("B", 3, (0, 0, -40)),
    ("C", 3, (0, 40, 0)), ("C", 3, (40, -40, 0)), ("C", 3, (-3, 40, 3)),
    ("D", 4, (0, 40, 0, 0)), ("D", 4, (40, 0, 0, -40)), ("D", 4, (1, 1, 40, -40)),
]


def test_wide_coordinates_match_enumeration():
    for lie_type, rank, mu in WIDE_ENUMERATED:
        roots = positive_roots(lie_type, rank)
        assert count_partitions(mu, roots) == len(enumerate_partitions(mu, roots)), mu


# Type A weights whose prefix sums reach the field edges: the pure sweep packs
# prefix sums, whose largest size is the span for a nonzero total.
WIDE_PREFIX = [
    ("A", 2, (40, 0, -40)), ("A", 2, (40, 0, 0)), ("A", 2, (40, -40, 0)),
    ("A", 2, (20, 20, -40)), ("A", 2, (-40, 0, 40)), ("A", 2, (0, 0, 40)),
    ("A", 3, (40, 0, -40, 0)), ("A", 3, (20, 20, -20, -20)), ("A", 3, (40, -40, 40, -40)),
    ("A", 3, (40, 0, 0, 0)), ("A", 3, (0, 40, 0, -40)),
]


def test_wide_prefix_sums_match_enumeration():
    for lie_type, rank, mu in WIDE_PREFIX:
        roots = positive_roots(lie_type, rank)
        for allowed in (roots, roots[1:], roots[:-1]):
            assert count_partitions(mu, allowed) == len(enumerate_partitions(mu, allowed)), mu
    a2 = positive_roots("A", 2)
    assert count_weighted({(40, 0, 0): 5, (40, 0, -40): 2, (0, 40, -40): 3}, a2) == 2 * 41 + 3


def test_wide_coordinates_pinned():
    # values of the earlier tuple-keyed count, too many to enumerate
    assert count_partitions((40, 0, 0), positive_roots("B", 3)) == 2589202
    assert count_partitions((40, 0, 0), positive_roots("C", 3)) == 761530


def test_count_weighted_mixed_lengths_signs_and_zeros():
    a2 = positive_roots("A", 2)
    mapping = {(1, 0, -1): 2, (1, 0, -1, 0): -3, (1, 0, -1, 0, 1): 5, (2, -1, -1, 0): 7,
               (0, 0, 0): 4, (0, 0, 0, 0, 0): -1, (0, 1, -1, 0, 0): 0}
    # shorter targets are zero padded: (1, 0, -1) and (1, 0, -1, 0) are the
    # same weight, and (1, 0, -1, 0, 1) has no partition
    expected = (2 - 3) * 2 + 7 * 2 + 4 - 1
    assert sum(ways * count_partitions(w, a2) for w, ways in mapping.items()) == expected
    assert count_weighted(mapping, a2) == expected
    assert count_weighted({(): 3, (0,): -1}, []) == 2
    assert count_weighted({(40, 0, -40): 2, (1, 0, -1): -41}, a2) == 0


def test_count_weighted_checks_each_target_length_once(monkeypatch):
    checked = []
    check = kostant._check_ambient
    monkeypatch.setattr(kostant, "_check_ambient",
                        lambda ambient, roots: checked.append(ambient) or check(ambient, roots))
    mapping = {(1, 0, 0, -1): 1, (1, -1, 0): 1, (0, 1, -1, 0): 2, (1, -1): 3, (0, 0, 0): 1}
    with pytest.raises(DomainError) as err:
        count_weighted(mapping, A3)
    # the first short length raises, with the message a per-target check gave
    assert str(err.value) == "root 1-4 does not fit in ambient dimension 3"
    assert checked == [4, 3]
    checked.clear()
    mapping = {(1, 0, -1, 0, 0): 1, (2, -1, -1, 0): 4, (0, 1, -1, 0, 0): 2, (1, -1, 0, 0): -1}
    assert count_weighted(mapping, A3) == 2 + 4 * 2 + 2 - 1
    assert checked == [5, 4]


def test_bcd_counts_with_negative_coordinates_match_enumeration():
    rng = random.Random(60606)
    nonzero = 0
    for _ in range(300):
        lie_type = rng.choice("BCD")
        rank = rng.randint({"B": 2, "C": 3, "D": 4}[lie_type], 5)
        n = ambient_dim(lie_type, rank)
        allowed = [r for r in positive_roots(lie_type, rank) if rng.random() < 0.7]
        mu = [rng.randint(-3, 2) for _ in range(n)]
        for _ in range(rng.randint(0, 4) if allowed else 0):
            for k, x in enumerate(root_to_weight(rng.choice(allowed), n)):
                mu[k] += x
        if min(mu) >= 0:
            mu[rng.randrange(n)] = -rng.randint(1, 3)
        count = count_partitions(mu, allowed)
        assert count == len(enumerate_partitions(mu, allowed)), (mu, allowed)
        nonzero += count > 0
    assert nonzero > 30


def test_a7_staircase_count():
    assert count_partitions((7, 6, 5, 4, 3, 2, 1, -28),
                            positive_roots("A", 7)) == 78608134640816


def test_restriction_monotonicity():
    small = [eminus(1, 2), eminus(2, 3), eminus(3, 4)]
    for head in product(range(3), repeat=3):
        mu = head + (-sum(head),)
        assert count_partitions(mu, small) <= count_partitions(mu, A3)


def test_type_a_reachability_criterion():
    # a nonnegative sum of e_i - e_j roots: every prefix sum nonnegative, total zero
    for mu in product(range(-2, 3), repeat=4):
        sums = list(accumulate(mu))
        expected = min(sums) >= 0 and sums[-1] == 0
        assert (count_partitions(mu, A3) > 0) == expected, mu


def test_canonical_roots_dedupes_and_sorts():
    roots = canonical_roots([eminus(2, 3), eminus(1, 2), eminus(2, 3), eplus(1, 2)])
    assert roots == (eminus(1, 2), eminus(2, 3), eplus(1, 2))


class TestCapacityRestricted:
    LAM5 = [eminus(i, j) for i in range(1, 4) for j in range(i + 1, 6)]

    def test_reference_value(self):
        # x^3 coefficient of the two-ball periodic row: 11
        target = (1, 1, 0, -1, -1)
        assert count_capacity_restricted(target, self.LAM5, (1, 1), 2) == 11

    def test_vacuous_capacity_equals_plain_count(self):
        target = (1, 1, 0, -1, -1)
        plain = count_partitions(target, self.LAM5)
        assert count_capacity_restricted(target, self.LAM5, (1, 1), 9) == plain

    def test_zero_target(self):
        assert count_capacity_restricted((0, 0, 0), [eminus(1, 2)], (1,), 2) == 1

    def test_initial_over_capacity(self):
        assert count_capacity_restricted((0, 0, 0), [eminus(1, 2)], (3,), 2) == 0

    def test_magic_initial_relaxes_budget(self):
        # the magic ball at height 3 raises that landing budget by one
        target = (2, -1, -1)
        lam = [eminus(1, 2), eminus(1, 3)]
        assert count_capacity_restricted(target, lam, (2, 0, -1), 2) == 1
        assert count_capacity_restricted(target, lam, (2, 0, -1), 1) == 0

    def test_matches_filtered_enumeration(self):
        # the hand-capacity inequality applied to every listed partition,
        # with magic (negative) initial entries and initials of any length
        rng = random.Random(4242)
        nonzero = restricted = 0
        for _ in range(400):
            rank = rng.randint(1, 5)
            n = rank + 1
            allowed = [r for r in positive_roots("A", rank) if rng.random() < 0.75]
            mu = [0] * n
            for _ in range(rng.randint(0, 6) if allowed else 0):
                for k, x in enumerate(root_to_weight(rng.choice(allowed), n)):
                    mu[k] += x
            initial = tuple(rng.randint(-2, 3) for _ in range(rng.randint(0, n + 1)))
            capacity = rng.randint(1, 4)
            start = [initial[k] if k < len(initial) else 0 for k in range(n)]
            parts = enumerate_partitions(mu, allowed)
            kept = 0
            for partition in parts:
                landed = list(start)
                for root, mult in partition:
                    landed[root.j - 1] += mult
                kept += max(landed) <= capacity
            count = count_capacity_restricted(mu, allowed, initial, capacity)
            assert count == kept, (mu, allowed, initial, capacity)
            nonzero += kept > 0
            restricted += kept != len(parts)
        assert nonzero > 100 and restricted > 100

    def test_ceiling_at_coordinates_without_roots(self):
        # coordinate 3 has no roots of its own: its cap still bounds landings
        lam = [eminus(1, 3), eminus(2, 3)]
        assert [count_capacity_restricted((1, 1, -2), lam, (), m) for m in (1, 2, 3)] == [0, 1, 1]
        # neither coordinate 2 nor 3 has roots of its own
        lam = [eminus(1, 3)]
        assert [count_capacity_restricted((2, 0, -2), lam, (), m) for m in (1, 2)] == [0, 1]

    def test_middle_coordinates_without_roots_match_filtered_enumeration(self):
        rng = random.Random(5151)
        nonzero = restricted = 0
        for _ in range(300):
            rank = rng.randint(2, 5)
            n = rank + 1
            idle = set(rng.sample(range(2, n), rng.randint(1, n - 2)))
            allowed = [r for r in positive_roots("A", rank)
                       if r.i not in idle and rng.random() < 0.8]
            mu = [0] * n
            for _ in range(rng.randint(0, 6) if allowed else 0):
                for k, x in enumerate(root_to_weight(rng.choice(allowed), n)):
                    mu[k] += x
            initial = tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, n)))
            capacity = rng.randint(1, 3)
            start = [initial[k] if k < len(initial) else 0 for k in range(n)]
            parts = enumerate_partitions(mu, allowed)
            kept = 0
            for partition in parts:
                landed = list(start)
                for root, mult in partition:
                    landed[root.j - 1] += mult
                kept += max(landed) <= capacity
            count = count_capacity_restricted(mu, allowed, initial, capacity)
            assert count == kept, (mu, allowed, initial, capacity)
            nonzero += kept > 0
            restricted += kept != len(parts)
        assert nonzero > 50 and restricted > 50

    def test_rejects_non_minus_roots(self):
        with pytest.raises(DomainError):
            count_capacity_restricted((1, 1), [eplus(1, 2)], (1,), 2)
        with pytest.raises(DomainError):
            count_capacity_restricted((1, 0), [esingle(1)], (1,), 2)

    def test_rejects_bad_capacity(self):
        with pytest.raises(DomainError):
            count_capacity_restricted((0, 0), [eminus(1, 2)], (0,), 0)


# ---------------------------------------------------------------------------
# The per-process root-set and sweep-plan tables.

def _clear_tables():
    kostant._root_set.cache_clear()
    kostant._plan.cache_clear()


def _reference_canonical(roots):
    """Canonical order as built before the tables: deduplicate, then sort."""
    unique = {root.key: root for root in roots}
    return tuple([unique[key] for key in sorted(unique)])


def _every_route(mu, allowed, far):
    """Each cached entry point on one instance.  The far weight, with a
    negative first coordinate, has no partition but sets the field width."""
    allowed = tuple(allowed)
    routes = [canonical_roots(allowed), count_partitions(mu, allowed),
              count_weighted({mu: 2, far: 3}, allowed), enumerate_partitions(mu, allowed)]
    if all(root.kind == MINUS for root in allowed):
        routes += [count_capacity_restricted(mu, allowed, (1, 2), capacity) for capacity in (1, 3)]
    return routes


def test_tables_give_the_same_results_cold_and_warm():
    rng = random.Random(1818)
    widths = set()
    for _ in range(150):
        mu, allowed = _random_instance(rng)
        far = rng.choice((1, 40, 10 ** 5, 10 ** 30))
        far = (-far,) + (0,) * (len(mu) - 2) + (far,)
        widths.add((sum(map(abs, far)) + 1).bit_length())
        _clear_tables()
        cold = _every_route(mu, allowed, far)
        assert cold == _every_route(mu, allowed, far), (mu, allowed)
        kostant._plan.cache_clear()  # a known root set, a new plan
        assert cold == _every_route(mu, allowed, far), (mu, allowed)
        canon, count, weighted, parts = cold[:4]
        assert canon == _reference_canonical(allowed)
        assert count == len(parts) and weighted == 2 * count
    assert len(widths) == 4


@pytest.mark.parametrize("form", ["list", "tuple", "generator", "set", "duplicates", "reversed"])
def test_tables_take_roots_in_any_form(form):
    make = {"list": list, "tuple": tuple, "generator": lambda r: (x for x in r), "set": set,
            "duplicates": lambda r: list(r) + list(r[::2]), "reversed": lambda r: r[::-1]}[form]
    rng = random.Random(3131)
    for _ in range(40):
        mu, allowed = _random_instance(rng)
        expected = [canonical_roots(allowed), count_partitions(mu, allowed),
                    count_weighted({mu: 1}, allowed), enumerate_partitions(mu, allowed)]
        for cold in (True, False):
            if cold:
                _clear_tables()
            got = [canonical_roots(make(allowed)), count_partitions(mu, make(allowed)),
                   count_weighted({mu: 1}, make(allowed)), enumerate_partitions(mu, make(allowed))]
            assert got == expected, (form, mu, allowed)
        if all(root.kind == MINUS for root in allowed):
            assert (count_capacity_restricted(mu, make(allowed), (1,), 2)
                    == count_capacity_restricted(mu, allowed, (1,), 2))


def test_canonical_roots_matches_dict_and_sort():
    rng = random.Random(77)
    pool = [root for lie_type, rank in (("A", 5), ("B", 5), ("C", 5), ("D", 5))
            for root in positive_roots(lie_type, rank)]
    for _ in range(300):
        roots = [rng.choice(pool) for _ in range(rng.randint(0, 30))]
        assert canonical_roots(roots) == _reference_canonical(roots), roots
        assert canonical_roots(roots) == _reference_canonical(roots), roots


@pytest.mark.parametrize("call, message", [
    (lambda: count_partitions((1, -1), [eminus(1, 3)]),
     "root 1-3 does not fit in ambient dimension 2"),
    (lambda: count_weighted({(1, 0, -1): 1, (1, -1): 1}, [eminus(1, 3)]),
     "root 1-3 does not fit in ambient dimension 2"),
    (lambda: enumerate_partitions((1, -1), [eminus(1, 3)]),
     "root 1-3 does not fit in ambient dimension 2"),
    (lambda: count_capacity_restricted((1, -1), [eminus(1, 3)], (), 2),
     "root 1-3 does not fit in ambient dimension 2"),
    (lambda: count_capacity_restricted((1, 0, -1), [eminus(1, 3)], (), 0),
     "capacity must be a positive integer"),
    (lambda: count_capacity_restricted((1, 1, 0), [eminus(1, 3), eplus(1, 2)], (), 2),
     "capacity-restricted counting is defined only for e_i - e_j roots"),
])
def test_every_call_raises_cold_and_warm(call, message):
    _clear_tables()
    for warm_up in (None, None, lambda: count_partitions((1, 0, -1), [eminus(1, 3)]),
                    lambda: count_partitions((1, 1, 0), [eminus(1, 3), eplus(1, 2)])):
        if warm_up:  # the root set is known from a valid call too
            warm_up()
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message
