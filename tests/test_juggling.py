import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kjuggle.bijection import gamma_inverse, net_change_target, time_bounded_roots
from kjuggle.errors import DomainError
from kjuggle.juggling import (ALL_THROWS, Throw, ThrowSet, count_sequences,
                              enumerate_labeled_sequences, enumerate_sequences,
                              label_component, labeled_count, normalize_state,
                              successors)
from kjuggle.kostant import count_capacity_restricted, count_partitions, partition_weight
from kjuggle.roots import positive_roots


def test_normalize_strips_trailing_zeros_only():
    assert normalize_state((1, 0, 0)) == (1,)
    assert normalize_state((0, 1)) == (0, 1)
    assert normalize_state((0, 0)) == ()
    assert normalize_state(()) == ()


class TestSuccessors:
    def test_two_ball_options(self):
        got = {s for s, _ in successors((1, 1), 1, 2, ALL_THROWS, 5)}
        assert {(2,), (1, 1), (1, 0, 1)} <= got
        assert got == {(2,), (1, 1), (1, 0, 1), (1, 0, 0, 1)}

    def test_pure_descent(self):
        assert successors((0, 1, 1), 1, None, ALL_THROWS, 5) == [((1, 1), ())]

    def test_magic_cancellation_transition(self):
        # three balls thrown to heights 1, 2, 3; the height-2 throw cancels
        hits = [s for s, combo in successors((3, 0, -1), 2, None, ALL_THROWS, 7)
                if combo == (1, 2, 3)]
        assert hits == [(1, 0, 1)]

    def test_magic_at_height_one_is_dead(self):
        assert successors((-1, 1), 1, None, ALL_THROWS, 5) == []

    def test_capacity_filters_states(self):
        got = {s for s, _ in successors((2,), 1, 1, ALL_THROWS, 3)}
        assert (2,) not in got and (1, 1) in got

    def test_an_empty_hand_over_capacity_is_dead(self):
        assert successors((0, 3), 1, 2, ALL_THROWS, 5) == []

    def test_needs_landing_bound_when_throwing(self):
        with pytest.raises(DomainError):
            successors((1,), 1)


class TestCounts:
    def test_periodic_two_ball_values(self):
        assert count_sequences((1, 1), (1, 1), 3, 2) == 11
        assert count_sequences((2,), (2,), 2, 2) == 3

    def test_ball_conservation(self):
        assert count_sequences((1,), (2,), 5) == 0

    def test_single_ball_powers_of_two(self):
        for n in range(1, 8):
            assert count_sequences((1,), (1,), n) == 2 ** (n - 1)

    def test_length_zero(self):
        assert count_sequences((1, 1), (1, 1), 0) == 1
        assert count_sequences((1, 1), (2,), 0) == 0

    def test_magic_cancel_beyond_terminal_window(self):
        # the initial state is taller than length + terminal height
        assert count_sequences((2, 0, -1), (1,), 1) == 1

    def test_initial_over_capacity(self):
        assert count_sequences((3,), (3,), 2, 2) == 0

    def test_capacity_monotone_and_saturating(self):
        for a, b in (((2, 1), (2, 1)), ((1, 1, 1), (3,))):
            for n in (1, 2, 3):
                prev = 0
                for m in (1, 2, 3):
                    cur = count_sequences(a, b, n, m)
                    assert cur >= prev
                    prev = cur
                assert count_sequences(a, b, n, 3) == count_sequences(a, b, n)

    def test_throw_restriction_monotone(self):
        small = ThrowSet.from_heights((1,))
        big = ThrowSet.from_heights((1, 2, 3))
        for n in (1, 2, 3):
            assert (count_sequences((1, 1), (1, 1), n, None, small)
                    <= count_sequences((1, 1), (1, 1), n, None, big)
                    <= count_sequences((1, 1), (1, 1), n))


# Magic balls (at height one too), totals that do and do not match, and
# initial states taller than length + terminal height for small n.
CROSS_CHECK_STATES = [(), (1,), (2,), (3,), (1, 1), (0, 1), (2, 1), (1, 0, 1),
                      (0, 0, 2), (2, 0, -1), (-1, 1), (1, -1, 1), (3, 0, -1),
                      (2, 1, 0, -1), (2, 0, 0, -1)]


def _throw_sets():
    rng = random.Random(2001)
    explicit = [ThrowSet.from_throws({(rng.randint(1, 3), rng.randint(1, 5))
                                      for _ in range(8)}) for _ in range(3)]
    return [ALL_THROWS, ThrowSet.from_heights((1,)), ThrowSet.from_heights((2, 3)),
            ThrowSet.from_heights((1, 3, 4))] + explicit


def test_enumeration_matches_counting():
    for a in CROSS_CHECK_STATES:
        for b in CROSS_CHECK_STATES:
            for n in (0, 1, 2, 3):
                for m in (None, 1, 2, 3):
                    seqs = enumerate_sequences(a, b, n, m)
                    assert len(seqs) == count_sequences(a, b, n, m), (a, b, n, m)
                    assert len(set(seqs)) == len(seqs)


class TestCountAgainstEnumeration:
    """The layer-factored count against the per-state successor walk."""

    @pytest.mark.parametrize("capacity", [None, 2])
    def test_throw_sets(self, capacity):
        for allowed in _throw_sets():
            for a in CROSS_CHECK_STATES:
                for b in CROSS_CHECK_STATES:
                    for n in (0, 2, 3):
                        assert (count_sequences(a, b, n, capacity, allowed)
                                == len(enumerate_sequences(a, b, n, capacity, allowed)))

    def test_seeded_random_instances(self):
        rng = random.Random(3219)
        throw_sets = _throw_sets()
        nonzero = 0
        for _ in range(300):
            a = tuple(rng.choice((0, 0, 1, 1, 2, 3, -1)) for _ in range(rng.randint(0, 5)))
            b = tuple(rng.choice((0, 1, 1, 2, -1)) for _ in range(rng.randint(0, 3)))
            if sum(a) > sum(b):
                b += (sum(a) - sum(b),)
            n = rng.randint(0, 4)
            capacity = rng.choice((None, 1, 2, 3))
            allowed = rng.choice(throw_sets)
            count = count_sequences(a, b, n, capacity, allowed)
            assert count == len(enumerate_sequences(a, b, n, capacity, allowed)), (a, b, n)
            nonzero += count > 0
        assert nonzero >= 30

    def test_magic_at_height_one_dies(self):
        assert count_sequences((-1, 1), (), 1) == 0
        assert count_sequences((-1, 1), (), 2) == 0
        # only the throw to height 1 cancels the magic ball before it reaches
        # the hand; every other throw leads to a dead state
        assert count_sequences((1, -1, 1), (1,), 2) == len(
            enumerate_sequences((1, -1, 1), (1,), 2)) == 1

    def test_initial_taller_than_window(self):
        a = (2, 0, 0, -1)
        assert len(a) > 2 + len((1,))
        assert count_sequences(a, (1,), 2) == len(enumerate_sequences(a, (1,), 2)) == 4

    def test_magic_cancelled_past_the_deadline(self):
        # The magic ball sits past the deadline n + len(b) = 3, so positive
        # balls may only land there to cancel it: the height is full at zero
        # while its entry is still negative.
        a, b = (2, 2, 0, 0, -3), (1,)
        assert count_sequences(a, b, 2) == len(enumerate_sequences(a, b, 2)) == 5
        assert count_sequences(a, b, 2, 2) == len(enumerate_sequences(a, b, 2, 2)) == 2
        # two balls thrown to one height past the deadline cancel a -2
        assert count_sequences((3, 0, 0, -2), (1,), 1) == len(
            enumerate_sequences((3, 0, 0, -2), (1,), 1)) == 1


class TestPackedFieldEdges:
    """count_sequences packs a state into fields sized by sum(abs(a)) and
    sum(abs(b)), which a capacity may exceed; these instances sit at the edges
    of that width and at the ends of the layer, where a dropped height is
    refilled."""

    @pytest.mark.parametrize("b", [(40,), (20, 20), (0, 40)])
    @pytest.mark.parametrize("capacity", [None, 87])  # 40 + 87 = 2^7 - 1
    def test_forty_balls_in_one_field(self, b, capacity):
        count = count_sequences((40,), b, 2, capacity)
        assert count == len(enumerate_sequences((40,), b, 2, capacity)) > 0

    def test_heavy_magic_with_capacity_just_under_the_field(self):
        rng = random.Random(7321)
        nonzero = 0
        for _ in range(200):
            a = rng.choice(((3, -3, 2, -2), (2, -3, 3, -2), (1, 3, -3, 2, -2)))
            b = tuple(rng.randint(-1, 1) for _ in range(rng.randint(0, 3)))
            b += (sum(a) - sum(b),)
            span = max(sum(map(abs, a)), sum(map(abs, b)))
            tight = (1 << span.bit_length() + 1) - 1 - span  # half = span + tight + 1
            capacity = rng.choice((None, 2, tight))
            n = rng.randint(1, 5)
            count = count_sequences(a, b, n, capacity)
            assert count == len(enumerate_sequences(a, b, n, capacity)), (a, b, n, capacity)
            nonzero += count > 0
        assert nonzero >= 15

    @pytest.mark.parametrize("capacity", [None, 1, 3])
    def test_empty_state(self, capacity):
        for n in (0, 1, 3):
            assert count_sequences((), (), n, capacity) == 1
            assert len(enumerate_sequences((), (), n, capacity)) == 1

    @pytest.mark.parametrize("a,b,n", [((1,), (0, 1), 12), ((2,), (1, 1), 7),
                                       ((1, 1, 0, -1), (1,), 9), ((2, 0, -1), (0, 1), 10)])
    def test_length_far_past_the_states(self, a, b, n):
        for capacity in (None, 1, 2):
            count = count_sequences(a, b, n, capacity)
            assert count == len(enumerate_sequences(a, b, n, capacity)), capacity

    def test_terminal_state_outside_the_reachable_range(self):
        # Entries of b past sum(abs(a)) are unreachable; packed with a's width
        # alone, (5, -5, 1) would equal the reachable (1,).
        assert count_sequences((1,), (5, -5, 1), 1) == 0
        assert count_sequences((1,), (1,), 1) == 1


class TestLastAllowedHeight:
    """At a time step's last allowed height count_sequences lands every ball
    still in hand in one move, kept only if the height stays within its top."""

    LOW_SETS = [ThrowSet.from_heights((1,)), ThrowSet.from_heights((1, 2)),
                ThrowSet.from_heights((2,)), ThrowSet.from_heights((1, 3)),
                ThrowSet.from_throws([(t, h) for t in range(1, 5) for h in range(1, 2 + t % 2)]),
                ThrowSet.from_throws([(1, 2), (2, 1), (2, 3), (3, 1), (3, 2), (4, 1)])]

    @pytest.mark.parametrize("capacity", [None, 1, 2])
    def test_throw_sets_below_the_window(self, capacity):
        # the largest allowed height at some time is below bound - time
        for allowed in self.LOW_SETS:
            for a in CROSS_CHECK_STATES:
                for b in CROSS_CHECK_STATES:
                    for n in (1, 2, 4):
                        assert (count_sequences(a, b, n, capacity, allowed)
                                == len(enumerate_sequences(a, b, n, capacity, allowed))), (a, b, n)

    @pytest.mark.parametrize("allowed", [ALL_THROWS, ThrowSet.from_heights((1, 2)),
                                         ThrowSet.from_throws([(1, 1), (1, 2)])])
    def test_capacity_filled_at_the_last_height(self, allowed):
        # both balls in hand land at height 2, the last one allowed
        for capacity, expected in ((1, 0), (2, 1), (3, 1)):
            assert count_sequences((2,), (0, 2), 1, capacity, allowed) == len(
                enumerate_sequences((2,), (0, 2), 1, capacity, allowed)) == expected
        # a ball already waits at height 2: the hand's two fill it to three
        for capacity, expected in ((2, 0), (3, 1), (4, 1)):
            assert count_sequences((2, 0, 1), (0, 3), 1, capacity, allowed) == len(
                enumerate_sequences((2, 0, 1), (0, 3), 1, capacity, allowed)) == expected

    @pytest.mark.parametrize("capacity", [None, 1, 2])
    def test_magic_cancelled_at_the_last_height_past_the_deadline(self, capacity):
        # deadline n + len(b) < bound - 1: the last height at time 1 lands
        # past the deadline, so the balls thrown there must cancel the magic
        for a, b, n in (((2, 0, 0, -2), (), 1), ((3, 0, 0, -2), (1,), 1),
                        ((2, 0, 0, 0, -2), (), 2), ((2, 1, 0, 0, -2), (1,), 2)):
            for allowed in (ALL_THROWS, ThrowSet.from_heights((1, 3)), ThrowSet.from_heights((3,)),
                            ThrowSet.from_heights((1, 2)), ThrowSet.from_throws([(1, 3), (1, 4)])):
                if capacity is not None and max(a) > capacity:
                    continue
                count = count_sequences(a, b, n, capacity, allowed)
                assert count == len(enumerate_sequences(a, b, n, capacity, allowed)), (a, b, n)
        if capacity != 1:
            assert count_sequences((2, 0, 0, -2), (), 1, capacity) == 1
            assert count_sequences((2, 0, 0, -2), (), 1, capacity,
                                   ThrowSet.from_heights((1, 2))) == 0


def test_capacity_count_matches_restricted_partitions_past_the_grid():
    """Ranks 4-5 and capacities 2-4, beyond the acceptance grid's sizes."""
    rng = random.Random(5407)
    checked = nonzero = 0
    while checked < 400:
        capacity = rng.randint(2, 4)
        ambient = rng.choice((5, 6))
        n = rng.randint(ambient - 2, ambient - 1)
        a = normalize_state(rng.randint(0, capacity) for _ in range(rng.randint(1, ambient)))
        b = [rng.randint(0, capacity) for _ in range(ambient - n - 1)]
        b.append(sum(a) - sum(b))
        if b[-1] < 1:
            continue
        target = net_change_target(a, b, n)
        expected = count_capacity_restricted(target, time_bounded_roots(n, len(target)),
                                             a, capacity)
        assert count_sequences(a, b, n, capacity) == expected, (a, b, n, capacity)
        checked += 1
        nonzero += expected > 0
    assert nonzero >= 100


@settings(derandomize=True, deadline=None, max_examples=150)
@given(a=st.lists(st.integers(-1, 2), max_size=4),
       b=st.lists(st.integers(-1, 2), max_size=3),
       n=st.integers(0, 4),
       capacity=st.one_of(st.none(), st.integers(1, 3)))
def test_count_equals_enumeration_property(a, b, n, capacity):
    if sum(a) > sum(b):
        b = b + [sum(a) - sum(b)]
    assert count_sequences(a, b, n, capacity) == len(enumerate_sequences(a, b, n, capacity))


class TestStaircasesAgainstKostant:
    @pytest.mark.parametrize("head,expected", [(6, 3841663050), (7, None), (5, None)])
    def test_a6_staircase_and_head_variants(self, head, expected):
        a = (head, 5, 4, 3, 2, 1)
        weight = a + (-sum(a),)
        count = count_sequences(a, (sum(a),), 6)
        assert count == count_partitions(weight, positive_roots("A", 6))
        if expected is not None:
            assert count == expected

    def test_a7_staircase(self):
        assert count_sequences((7, 6, 5, 4, 3, 2, 1), (28,), 7) == 78608134640816


def net_change_vector(seq, ambient):
    """Sum over throws of e_time - e_{time+height}: the weight of the
    sequence's partition."""
    return partition_weight(gamma_inverse(seq), ambient)


def test_enumerated_sequences_are_valid():
    seqs = enumerate_sequences((2, 1, 0, -1), (1, 1), 3)
    assert seqs
    for seq in seqs:
        assert seq.states[0] == (2, 1, 0, -1)
        assert seq.states[-1] == (1, 1)
        # never throw from a negative hand
        for state in seq.states[:-1]:
            if state:
                assert state[0] >= 0
        assert net_change_vector(seq, 5) == (2, 1, 0, -2, -1)


def test_conveyor_example_sequence_and_net_change():
    seqs = enumerate_sequences((1, 1), (1, 1), 3)
    states = {s.states for s in seqs}
    assert ((1, 1), (2,), (0, 1, 1), (1, 1)) in states
    for seq in seqs:
        assert net_change_vector(seq, 5) == (1, 1, 0, -1, -1)


def test_magic_example_sequence_present():
    seqs = enumerate_sequences((2, 1, 0, -1), (1, 1), 3)
    states = {s.states for s in seqs}
    assert ((2, 1, 0, -1), (3, 0, -1), (1, 0, 1), (1, 1)) in states


def test_net_change_of_throwless_sequence_is_zero():
    seqs = enumerate_sequences((0, 0, 1), (1,), 2)
    assert len(seqs) == 1 and seqs[0].throws == ()
    assert net_change_vector(seqs[0], 3) == (0, 0, 0)


def test_net_change_depends_only_on_endpoints():
    for a, b, n in (((1, 1), (2,), 2), ((2,), (1, 1), 2), ((1, 0, 1), (2,), 3),
                    ((2, 0, -1), (1,), 2)):
        ambient = max(len(a), n + len(b))
        expected = [0] * ambient
        for k, x in enumerate(a):
            expected[k] += x
        for k, x in enumerate(b):
            expected[n + k] -= x
        seqs = enumerate_sequences(a, b, n)
        assert seqs
        for seq in seqs:
            assert net_change_vector(seq, ambient) == tuple(expected)


class TestLabeled:
    def test_product_of_two_single_ball_labels(self):
        a = ((1, 1),)
        assert labeled_count(a, a, 3) == 16

    def test_single_label_reduces_to_plain_count(self):
        a = ((1,), (1,))
        assert labeled_count(a, a, 3) == count_sequences((1, 1), (1, 1), 3)

    def test_label_decomposition(self):
        state = ((1, 2, 1), (1, -1, 0), (0, 1, 2))
        assert label_component(state, 0) == (1, 1)
        assert label_component(state, 1) == (2, -1, 1)
        assert label_component(state, 2) == (1, 0, 2)

    def test_negative_lengths_are_rejected_for_any_label_count(self):
        for a in ((), ((0,),), ((1,),), ((1, 0), (0, 1)), ((2, 1, 1),)):
            with pytest.raises(DomainError, match="nonnegative"):
                labeled_count(a, a, -1)
            with pytest.raises(DomainError, match="nonnegative"):
                enumerate_labeled_sequences(a, a, -1)

    def test_joint_enumeration_matches_product(self):
        a = ((1, 0), (0, 1))
        b = ((0, 1), (1, 0))
        for n in (1, 2, 3):
            assert len(enumerate_labeled_sequences(a, b, n)) == labeled_count(a, b, n)


def test_throwset_validation():
    with pytest.raises(DomainError):
        ThrowSet.from_heights((0,))
    with pytest.raises(DomainError):
        ThrowSet.from_throws([(0, 1)])
    ts = ThrowSet.from_throws([(1, 2), (2, 1)])
    assert tuple(ts.heights(1, 9)) == (2,) and tuple(ts.heights(2, 9)) == (1,)
    assert tuple(ALL_THROWS.heights(9, 9)) == tuple(range(1, 10))
    assert Throw(2, 3).height == 3


def _throw_set_forms():
    """(throw set, the (time, height) pairs it allows, or None for every
    pair) over seeded sets of every form, duplicates included."""
    rng = random.Random(1717)
    forms = [(ALL_THROWS, None), (ThrowSet.from_throws([]), set())]
    for _ in range(20):
        heights = [rng.randint(1, 8) for _ in range(rng.randint(0, 6))]
        heights += heights[:2]  # duplicates
        forms.append((ThrowSet.from_heights(heights),
                       {(t, h) for t in range(-1, 12) for h in heights}))
        pairs = [(rng.randint(1, 6), rng.randint(1, 8)) for _ in range(rng.randint(1, 12))]
        pairs += pairs[:3]
        forms.append((ThrowSet.from_throws(iter(pairs)), set(pairs)))
    return forms


def test_throwset_heights_match_a_brute_force_filter():
    # times past the explicit pairs' (and before them) are missing from the
    # table; tops <= 0 allow nothing
    for ts, pairs in _throw_set_forms():
        for time in range(-1, 12):
            for top in range(-2, 11):
                expected = [h for h in range(1, top + 1) if pairs is None or (time, h) in pairs]
                got = ts.heights(time, top)
                assert list(got) == expected, (pairs, time, top)
                assert list(got) == sorted(set(got))


def test_count_asks_for_heights_once_per_time_step(monkeypatch):
    """count_sequences asks its throw set for a step's heights at most once
    per time step, in time order, and never once per height: 3,000 calls at
    the length-3,000 instance below."""
    times = []
    original = ThrowSet.heights

    def counted(self, time, top):
        times.append(time)
        return original(self, time, top)

    monkeypatch.setattr(ThrowSet, "heights", counted)
    for a, b, n in (((1, 1), (1, 1), 5), ((2, 1, 0, -1), (1, 1), 3), ((2,), (2,), 9)):
        for allowed in (ALL_THROWS, ThrowSet.from_heights((1,)), ThrowSet.from_throws([(1, 2)])):
            times.clear()
            count_sequences(a, b, n, None, allowed)
            assert len(times) <= n and times == sorted(set(times)), (a, b, n)
    times.clear()
    assert count_sequences((1,), (1,), 3000, 1, ThrowSet.from_heights((1,))) == 1
    assert len(times) == 3000
