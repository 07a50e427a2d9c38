"""Both listings against plain depth-first reference walks, element for
element and in order.

The references are the walks the memoized listings replaced: the juggling
one recurses over `successors` and sorts each throw list, the partition one
recurses over a per-node memo of (mult, residual) children, mult 1..bound
then 0.  Each is written out here, sharing no walk code with the engines.
"""

import random
from itertools import product

from kjuggle.juggling import (ALL_THROWS, JugglingSequence, Throw, ThrowSet,
                              enumerate_sequences, normalize_state, successors)
from kjuggle.kostant import canonical_roots, enumerate_partitions
from kjuggle.roots import (DOUBLE, MINUS, PLUS, ambient_dim, positive_roots,
                           root_to_weight)


def _reference_sequences(a, b, n, capacity=None, allowed=ALL_THROWS):
    a, b = normalize_state(a), normalize_state(b)
    if sum(a) != sum(b) or (capacity is not None and any(x > capacity for x in a)):
        return []
    deadline = n + len(b)

    def dead(state, time):
        return any(x > 0 for x in state[deadline - time:])

    if dead(a, 0):
        return []
    bound = max(len(a), n + len(b))
    found = []
    states = [a]
    throws = []

    def rec(time):
        if time > n:
            if states[-1] == b:
                found.append(JugglingSequence(tuple(states), tuple(sorted(throws))))
            return
        for new, combo in successors(states[-1], time, capacity, allowed, bound):
            if dead(new, time):
                continue
            states.append(new)
            throws.extend(Throw(time, h) for h in combo)
            rec(time + 1)
            del throws[len(throws) - len(combo):]
            states.pop()

    rec(1)
    return found


def _reference_partitions(target, allowed):
    target = tuple(target)
    roots = canonical_roots(allowed)
    n = len(roots)
    first_mixed = next((k for k, r in enumerate(roots) if r.kind != MINUS), n)
    vectors = [root_to_weight(r, len(target)) for r in roots]
    memo = {}
    found = []
    chosen = []

    def max_mult(root, w):
        if root.kind == PLUS:
            return min(w[root.i - 1], w[root.j - 1])
        return w[root.i - 1] // 2 if root.kind == DOUBLE else w[root.i - 1]

    def live_children(idx, w):
        key = (idx, w)
        if key in memo:
            return memo[key]
        out = []
        if idx < n:
            root = roots[idx]
            dead = (min(w) < 0 if idx >= first_mixed else
                    w[root.i - 1] < 0 or (first_mixed == n and any(w[:root.i - 1])))
            if not dead:
                for mult in (*range(1, max_mult(root, w) + 1), 0):
                    child = tuple(x - mult * v for x, v in zip(w, vectors[idx]))
                    if not any(child) or live_children(idx + 1, child):
                        out.append((mult, child))
        memo[key] = out
        return out

    def rec(idx, w):
        if not any(w):
            found.append(tuple(chosen))
            return
        for mult, child in memo[idx, w]:
            if mult:
                chosen.append((roots[idx], mult))
            rec(idx + 1, child)
            if mult:
                chosen.pop()

    if not any(target) or live_children(0, target):
        rec(0, target)
    return found


def _random_state(rng, magic):
    """A state of up to four heights; a magic one holds balls in hand that
    can cancel the magic ball at height two."""
    head = (rng.randint(1, 3), -1) if magic else ()
    return head + tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 4 - len(head))))


def _random_throw_set(rng):
    pick = rng.random()
    if pick < 0.4:
        return ALL_THROWS
    if pick < 0.7:
        return ThrowSet.from_heights(rng.sample(range(1, 7), rng.randint(1, 4)))
    return ThrowSet.from_throws({(rng.randint(1, 4), rng.randint(1, 6))
                                 for _ in range(rng.randint(1, 12))})


def test_sequences_match_the_reference_walk_in_order():
    rng = random.Random(8128)
    by_total = {}  # matching totals, so that most lists are not empty
    for entries in product(range(-1, 3), repeat=3):
        by_total.setdefault(sum(entries), set()).add(normalize_state(entries))
    by_total = {t: sorted(states) for t, states in by_total.items()}
    listed = nonempty = magic = 0
    for k in range(1200):
        a = _random_state(rng, magic=k % 2 == 0)
        b = rng.choice(by_total.get(sum(a), [()]))
        n = rng.randint(0, 4)
        capacity = rng.choice((None, 1, 2, 3))
        allowed = _random_throw_set(rng)
        got = enumerate_sequences(a, b, n, capacity, allowed)
        assert got == _reference_sequences(a, b, n, capacity, allowed), (a, b, n, capacity)
        for seq in got:
            assert list(seq.throws) == sorted(seq.throws)
        listed += len(got)
        nonempty += bool(got)
        magic += bool(got) and min(a + b, default=0) < 0
    assert nonempty > 150 and listed > 3000 and magic > 50


def test_sequences_of_length_zero():
    for a in ((), (1,), (0, 2), (-1, 1), (1, 0, -1)):
        for b in ((), (1,), (0, 2), (-1, 1), (1, 0, -1)):
            for capacity in (None, 1, 2):
                got = enumerate_sequences(a, b, 0, capacity)
                assert got == _reference_sequences(a, b, 0, capacity)
    assert enumerate_sequences((1, 1), (1, 1), 0) == [JugglingSequence(((1, 1),), ())]


def test_sequences_match_on_larger_posets():
    for a, b, n, capacity in (((1,), (1,), 8, 1), ((1, 0, 1, 1), (3,), 4, None),
                              ((2, -1, 1), (2,), 5, None), ((1, 1, -1, 1), (2,), 5, 2),
                              ((1, 1, 0, 1), (1, 1, 1), 5, 2)):
        got = enumerate_sequences(a, b, n, capacity)
        assert got and got == _reference_sequences(a, b, n, capacity)


def test_partitions_match_the_reference_walk_in_order():
    rng = random.Random(1978)
    listed = 0
    for _ in range(300):
        lie_type = rng.choice("ABCD")
        rank = rng.randint({"A": 1, "B": 2, "C": 3, "D": 4}[lie_type], 5)
        n = ambient_dim(lie_type, rank)
        allowed = [r for r in positive_roots(lie_type, rank) if rng.random() < 0.7]
        if allowed and rng.random() < 0.6:
            mu = [0] * n
            for _ in range(rng.randint(1, 5)):
                for k, x in enumerate(root_to_weight(rng.choice(allowed), n)):
                    mu[k] += x
        else:
            mu = [rng.randint(-3, 3) for _ in range(n)]
        got = enumerate_partitions(mu, allowed)
        assert got == _reference_partitions(mu, allowed), (lie_type, rank, mu)
        listed += len(got)
    assert listed > 1000


def test_partitions_match_on_staircase_weights_and_edges():
    a5 = positive_roots("A", 5)
    for mu in ((3, 1, 2, 0, 2, -8), (2, 2, 3, 0, 1, -8), (1, 1, 1, 1, 1, -5)):
        got = enumerate_partitions(mu, a5)
        assert len(got) > 100 and got == _reference_partitions(mu, a5)
    b3 = positive_roots("B", 3)
    assert enumerate_partitions((0, 0, 0), b3) == _reference_partitions((0, 0, 0), b3) == [()]
    assert enumerate_partitions((1, 0), []) == _reference_partitions((1, 0), []) == []
    assert enumerate_partitions((-1, 1, 0), b3) == _reference_partitions((-1, 1, 0), b3) == []
    c4 = positive_roots("C", 4)
    assert enumerate_partitions((2, 0, 0, 2), c4) == _reference_partitions((2, 0, 0, 2), c4)
