"""Magic multiplex juggling: state transitions, counting, and enumeration.

A state is an integer tuple whose k-th entry is the net number of balls at
height k+1; negative entries are magic balls.  States are normalized by
stripping trailing zeros, so the empty tuple is the state with no balls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import NamedTuple

from .errors import DomainError

State = tuple  # tuple[int, ...], normalized


class Throw(NamedTuple):
    time: int
    height: int


def normalize_state(entries) -> State:
    entries = tuple(entries)
    end = len(entries)
    while end and entries[end - 1] == 0:
        end -= 1
    return entries[:end]


def state_total(state) -> int:
    return sum(state)


class ThrowSet:
    """A set of allowed throws: everything, fixed heights, or explicit pairs."""

    __slots__ = ("_heights", "_throws")

    def __init__(self, heights=None, throws=None):
        self._heights = frozenset(heights) if heights is not None else None
        self._throws = frozenset(Throw(t, h) for t, h in throws) if throws is not None else None
        if self._heights is not None and self._throws is not None:
            raise DomainError("a throw set is either height-based or explicit, not both")

    @classmethod
    def all_throws(cls) -> "ThrowSet":
        return cls()

    @classmethod
    def from_heights(cls, heights) -> "ThrowSet":
        heights = tuple(heights)
        if any(h < 1 for h in heights):
            raise DomainError("throw heights must be positive")
        return cls(heights=heights)

    @classmethod
    def from_throws(cls, throws) -> "ThrowSet":
        throws = tuple(throws)
        if any(t < 1 or h < 1 for t, h in throws):
            raise DomainError("throw times and heights must be positive")
        return cls(throws=throws)

    def allows(self, time: int, height: int) -> bool:
        if self._heights is not None:
            return height in self._heights
        if self._throws is not None:
            return Throw(time, height) in self._throws
        return True


ALL_THROWS = ThrowSet.all_throws()


@dataclass(frozen=True)
class JugglingSequence:
    """States s_0..s_n together with the multiset of throws performed."""

    states: tuple
    throws: tuple

    @property
    def length(self) -> int:
        return len(self.states) - 1

    @property
    def initial(self) -> State:
        return self.states[0]

    @property
    def terminal(self) -> State:
        return self.states[-1]

    def throw_count(self) -> int:
        return len(self.throws)


def _apply_throws(state: State, heights) -> State:
    """One time step: drop every entry a height, then add the thrown balls."""
    new = list(state[1:])
    for h in heights:
        while len(new) < h:
            new.append(0)
        new[h - 1] += 1
    return normalize_state(new)


def successors(state, time, capacity=None, allowed: ThrowSet = ALL_THROWS, max_landing=None):
    """All (state, throw-heights) pairs reachable in one step at the given time.

    Throws may land no later than max_landing; every positive entry of a
    successor must respect the capacity.  A state with magic balls at height
    one has no successors.
    """
    state = normalize_state(state)
    hand = state[0] if state else 0
    if hand < 0:
        return []
    if hand == 0:
        dropped = normalize_state(state[1:])
        if capacity is not None and any(x > capacity for x in dropped):
            return []
        return [(dropped, ())]
    if max_landing is None:
        raise DomainError("max_landing is required when balls are thrown")
    heights = [j for j in range(1, max_landing - time + 1) if allowed.allows(time, j)]
    out = []
    for combo in combinations_with_replacement(heights, hand):
        new = _apply_throws(state, combo)
        if capacity is not None and any(x > capacity for x in new):
            continue
        out.append((new, combo))
    return out


def _landing_bound(a: State, b: State, n: int) -> int:
    """Latest time a throw may land: the dimension of the net change vector."""
    return max(len(a), n + len(b))


def _dead(state: State, time: int, deadline: int) -> bool:
    """A positive entry that cannot land by the deadline can never reach b.

    Entry k lands at time + k + 1, so only the tail from k = deadline - time
    on can be late.
    """
    return any(x > 0 for x in state[deadline - time:])


def count_sequences(a, b, n: int, capacity=None, allowed: ThrowSet = ALL_THROWS) -> int:
    """Number of length-n juggling sequences from a to b.

    Forward dynamic programming over per-time state layers with exact integer
    counts.  Each time step is factored across the whole layer rather than
    expanded state by state: the states are merged into dropped states
    bucketed by the balls still in hand, then the allowed heights are visited
    one at a time.  At each height the buckets are swept from the most balls
    left down to none, each bucket first receiving every key of the bucket
    above with exactly one more ball at that height; a key stops its chain
    once that height is full (the capacity, or zero for a positive ball past
    the deadline).  A key with l balls left thus reaches bucket l - k with k
    more balls at the height for every feasible k exactly once, so every
    multiset of throw heights is produced exactly once, and the sums are
    exact and independent of dictionary order.  Keys with no ball left leave
    the sweep at once and are checked into the next layer.  Ball conservation
    makes mismatched totals count zero.
    """
    if n < 0:
        raise DomainError("sequence length must be nonnegative")
    a, b = normalize_state(a), normalize_state(b)
    if capacity is not None and capacity < 1:
        raise DomainError("capacity must be a positive integer")
    if state_total(a) != state_total(b):
        return 0
    if capacity is not None and any(x > capacity for x in a):
        return 0
    deadline = n + len(b)
    if _dead(a, 0, deadline):
        return 0
    bound = _landing_bound(a, b, n)

    layer = {a: 1}
    for time in range(1, n + 1):
        done: dict = {}  # bucket 0: dropped states with every ball thrown
        levels: dict = {}  # balls left in hand -> {dropped state: ways}
        for state, ways in layer.items():
            hand = state[0] if state else 0
            if hand >= 0:
                bucket = levels.setdefault(hand, {}) if hand else done
                s = state[1:]
                bucket[s] = bucket.get(s, 0) + ways
        for j in range(1, bound - time + 1):
            if not levels:
                break
            if not allowed.allows(time, j):
                continue
            # A positive entry at height j is final after this height; past
            # the deadline it could never land, so only magic may stay there.
            top = capacity if time + j <= deadline else 0
            swept: dict = {}
            above: dict = {}
            for left in range(max(levels), -1, -1):
                cur = levels.get(left, {}) if left else done
                for s, ways in above.items():
                    if len(s) < j:
                        s += (0,) * (j - len(s))
                    base = s[j - 1]
                    if top is not None and base >= top:
                        continue
                    s = s[:j - 1] + (base + 1,) + s[j:]
                    cur[s] = cur.get(s, 0) + ways
                if left and cur:
                    swept[left] = cur
                above = cur
            levels = swept
        layer = {}
        for state, ways in done.items():
            if state and not state[-1]:  # magic cancelled at the last height
                state = normalize_state(state)
            if state and capacity is not None and max(state) > capacity:
                continue
            if max(state[deadline - time:], default=0) <= 0:
                layer[state] = layer.get(state, 0) + ways
        if not layer:
            break
    return layer.get(b, 0)


def enumerate_sequences(a, b, n: int, capacity=None, allowed: ThrowSet = ALL_THROWS):
    """All length-n juggling sequences from a to b, deterministically ordered."""
    if n < 0:
        raise DomainError("sequence length must be nonnegative")
    a, b = normalize_state(a), normalize_state(b)
    if state_total(a) != state_total(b):
        return []
    if capacity is not None and any(x > capacity for x in a):
        return []
    deadline = n + len(b)
    if _dead(a, 0, deadline):
        return []
    bound = _landing_bound(a, b, n)
    found = []
    states = [a]
    throws: list[Throw] = []

    def rec(time):
        if time > n:
            if states[-1] == b:
                found.append(JugglingSequence(tuple(states), tuple(sorted(throws))))
            return
        for new, combo in successors(states[-1], time, capacity, allowed, bound):
            if _dead(new, time, deadline):
                continue
            states.append(new)
            throws.extend(Throw(time, h) for h in combo)
            rec(time + 1)
            for _ in combo:
                throws.pop()
            states.pop()

    rec(1)
    return found


def net_change_vector(seq: JugglingSequence, ambient: int) -> tuple[int, ...]:
    """Sum over throws of e_time - e_{time+height}."""
    w = [0] * ambient
    for t in seq.throws:
        if t.time + t.height > ambient:
            raise DomainError(f"throw {t} lands outside ambient dimension {ambient}")
        w[t.time - 1] += 1
        w[t.time + t.height - 1] -= 1
    return tuple(w)


# Labeled juggling: a labeled state is a tuple of per-height tuples, each
# holding one signed count per label.


def normalize_labeled(state) -> tuple:
    state = tuple(tuple(u) for u in state)
    labels = {len(u) for u in state}
    if len(labels) > 1:
        raise DomainError("every height of a labeled state needs the same label count")
    end = len(state)
    while end and not any(state[end - 1]):
        end -= 1
    return state[:end]


def label_count(state) -> int:
    return len(state[0]) if state else 0


def label_component(state, label: int) -> State:
    """The single-label juggling state of one label (0-based)."""
    return normalize_state(tuple(u[label] for u in state))


def labeled_count(a, b, n: int, capacity=None) -> int:
    """Number of labeled juggling sequences: the product of per-label counts.

    The product decomposition fails under a shared hand capacity, so passing
    one is an error.
    """
    if capacity is not None:
        raise DomainError("labeled counting does not support a hand capacity")
    a, b = normalize_labeled(a), normalize_labeled(b)
    la, lb = label_count(a), label_count(b)
    labels = max(la, lb)
    if a and b and la != lb:
        raise DomainError("labeled states use different label counts")
    total = 1
    for j in range(labels):
        total *= count_sequences(label_component(a, j) if a else (),
                                 label_component(b, j) if b else (), n)
    return total


def enumerate_labeled_sequences(a, b, n: int):
    """All labeled sequences from a to b, walking the joint state machine.

    Each label transitions independently at every step; the result is the
    list of state paths (used to cross-check the product formula).
    """
    a, b = normalize_labeled(a), normalize_labeled(b)
    labels = max(label_count(a), label_count(b))
    if a and b and label_count(a) != label_count(b):
        raise DomainError("labeled states use different label counts")
    comps_a = [label_component(a, j) if a else () for j in range(labels)]
    comps_b = [label_component(b, j) if b else () for j in range(labels)]
    if any(state_total(u) != state_total(v) for u, v in zip(comps_a, comps_b)):
        return []
    bounds = [_landing_bound(u, v, n) for u, v in zip(comps_a, comps_b)]
    deadlines = [n + len(v) for v in comps_b]
    if any(_dead(u, 0, d) for u, d in zip(comps_a, deadlines)):
        return []
    found = []
    path = [tuple(comps_a)]

    def rec(time):
        if time > n:
            if path[-1] == tuple(comps_b):
                found.append(list(path))
            return
        options = []
        for j in range(labels):
            opts = [new for new, _ in successors(path[-1][j], time, None, ALL_THROWS, bounds[j])
                    if not _dead(new, time, deadlines[j])]
            options.append(opts)
        for joint in product(*options):
            path.append(joint)
            rec(time + 1)
            path.pop()

    rec(1)
    return found
