"""Magic multiplex juggling: state transitions, counting, and enumeration.

A state is an integer tuple whose k-th entry is the net number of balls at
height k+1; negative entries are magic balls.  States are normalized by
stripping trailing zeros, so the empty tuple is the state with no balls.
Counting is a layer DP on packed states; enumeration walks the per-state
`successors` on tuples through a per-call table of live steps, so the two
compare different transition codes.  That table is built layer by layer and
walked with an explicit stack, so no time step costs a frame and the table
is freed by reference counting when the call returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import prod
from operator import lshift
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


ALL_THROWS = ThrowSet()


@dataclass(frozen=True)
class JugglingSequence:
    """States s_0..s_n together with the multiset of throws performed."""

    states: tuple
    throws: tuple


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
        dropped = state[1:]
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
    one at a time.  At each height but the last the buckets are swept from
    the most balls left down to none, each bucket first receiving every key
    of the bucket above with exactly one more ball at that height; a key
    stops its chain once that height is full (the capacity, or zero for a
    positive ball past the deadline), and a height with neither runs no
    test.  A key with l balls left thus reaches bucket l - k with k more
    balls at the height for every feasible k exactly once, so every multiset
    of throw heights is produced exactly once, and the sums are exact and
    independent of dictionary order.  At the last allowed height every ball
    still in hand lands in one addition, kept only if the height stays
    within its top, so no key keeps a ball past it.  Keys with no ball left
    leave the sweep at once and are checked into the next layer.  Ball
    conservation makes mismatched totals count zero, and an empty a (no
    magic balls are ever created) reaches only an empty b.

    A state is one int: height k+1 holds its entry plus half - 1 in the
    bits-wide field at bit bits * k, for k < bound, where half =
    2^(bits-1) > S = max(sum(abs(a)), sum(abs(b))).  Magic balls are never
    created and positive entries never exceed the balls of a, so every entry
    of a reached state, and of b, stays in [-S, S]: no field borrows from its
    neighbour.  A height's top is compared with its whole field, so it may
    exceed the field.  The tops are the only filter: a's entries are checked
    against the capacity and the deadline before the first step, and every
    throw lands within its height's top.
    """
    if n < 0:
        raise DomainError("sequence length must be nonnegative")
    a, b = normalize_state(a), normalize_state(b)
    if capacity is not None and capacity < 1:
        raise DomainError("capacity must be a positive integer")
    if state_total(a) != state_total(b):
        return 0
    if not a:  # magic balls are never created
        return int(not b)
    if capacity is not None and any(x > capacity for x in a):
        return 0
    deadline = n + len(b)
    if _dead(a, 0, deadline):
        return 0
    bound = _landing_bound(a, b, n)

    span = max(sum(map(abs, a)), sum(map(abs, b)))
    bits = span.bit_length() + 1
    mask = (1 << bits) - 1
    zero = mask >> 1  # the field of an empty height: half - 1
    unit = ((1 << bits * bound) - 1) // mask  # a one in every field
    shifts = range(0, bits * bound, bits)
    empty = zero * unit
    refill = zero << bits * (bound - 1)
    layer = {empty + sum(map(lshift, a, shifts)): 1}
    for time in range(1, n + 1):
        done: dict = {}  # bucket 0: dropped states with every ball thrown
        levels: dict = {}  # balls left in hand -> {dropped state: ways}
        for w, ways in layer.items():  # the drop is one-to-one per hand
            hand = (w & mask) - zero
            if hand >= 0:
                (levels.setdefault(hand, {}) if hand else done)[(w >> bits) | refill] = ways
        heights = [j for j in range(1, bound - time + 1) if allowed.allows(time, j)] if levels else []
        for j in heights:
            # A positive entry at height j is final after this height; past
            # the deadline it could never land, so only magic may stay there.
            top = capacity if time + j <= deadline else 0
            one = 1 << bits * (j - 1)
            sel = mask * one
            stop = (top + zero) * one if top is not None else None
            if j == heights[-1]:  # every ball still in hand lands here
                for left, cur in levels.items():
                    add = left * one
                    if stop is None:
                        for s, ways in cur.items():
                            s += add
                            done[s] = done.get(s, 0) + ways
                    else:
                        lim = stop - add  # the height holds at most top
                        for s, ways in cur.items():
                            if s & sel <= lim:
                                s += add
                                done[s] = done.get(s, 0) + ways
                break
            swept: dict = {}
            above: dict = {}
            for left in range(max(levels), -1, -1):
                cur = levels.get(left, {}) if left else done
                if stop is None:
                    for s, ways in above.items():
                        s += one
                        cur[s] = cur.get(s, 0) + ways
                else:
                    for s, ways in above.items():
                        if s & sel < stop:
                            s += one
                            cur[s] = cur.get(s, 0) + ways
                if left and cur:
                    swept[left] = cur
                above = cur
            levels = swept
        layer = done
        if not layer:
            break
    return layer.get(empty + sum(map(lshift, b, shifts)), 0)


def _live_steps(a: State, b: State, n: int, capacity=None, allowed: ThrowSet = ALL_THROWS,
                throws: bool = True):
    """The live steps of the length-n sequences from a to b (both normalized)
    at time 1: (new state, its throws, the live steps from it at the next
    time, or None at time n) for each successor that can still reach b at
    time n, in successor order.  None if n is 0 and a is b; empty if no
    sequence exists.  Built layer by layer: forward, the steps of every
    state reachable at each time (each state's successors taken once);
    then backward from time n, each state's steps whose new state is live,
    so no branch that dies is kept and no time costs a frame.  Without
    `throws` a step holds bare heights, which cost nothing to make."""
    if state_total(a) != state_total(b):
        return []
    if capacity is not None and any(x > capacity for x in a):
        return []
    deadline = n + len(b)
    if _dead(a, 0, deadline):
        return []
    if n == 0:
        return None if a == b else []
    bound = _landing_bound(a, b, n)
    layers = []  # per time: [(state, [(new state, heights), ...]), ...]
    reach = (a,)
    for time in range(1, n + 1):
        layer = []
        nxt: dict = {}
        for state in reach:
            kept = []
            for new, combo in successors(state, time, capacity, allowed, bound):
                if new == b if time == n else not _dead(new, time, deadline):
                    kept.append((new, combo))
                    nxt[new] = None
            layer.append((state, kept))
        layers.append(layer)
        reach = nxt
    # The live steps of each state at the next time: past time n, only b,
    # with None; a step is kept unless its new state has none ([]).
    live = {b: None}
    for time in range(n, 0, -1):
        cur = {}
        for state, kept in layers.pop():
            out = cur[state] = []
            for new, combo in kept:
                below = live[new]
                if below != []:
                    out.append((new, tuple(Throw(time, h) for h in combo) if throws else combo,
                                below))
        live = cur
    return live[a]


def enumerate_sequences(a, b, n: int, capacity=None, allowed: ThrowSet = ALL_THROWS):
    """All length-n juggling sequences from a to b, deterministically ordered.

    The walk follows `_live_steps`, so no state is expanded twice and no
    branch that dies is entered; it keeps its own stack, one entry per time,
    so no time costs a frame.  Throws are emitted by time, then in ascending
    combo order, so each throw tuple is sorted as built.
    """
    if n < 0:
        raise DomainError("sequence length must be nonnegative")
    a, b = normalize_state(a), normalize_state(b)
    if capacity is not None and capacity < 1:
        raise DomainError("capacity must be a positive integer")
    steps = _live_steps(a, b, n, capacity, allowed)
    if steps is None:
        return [JugglingSequence((a,), ())]
    found = []
    # stack[t] iterates the steps at time t (stack[0]: one step into a), with
    # the states and throws before them; from stack[n - 1], each step's
    # steps at time n are emitted as sequences, with no push.
    stack = [(iter([(a, (), steps)]), (), ())]
    while stack:
        entries, states, throws = stack[-1]
        for new, step, below in entries:
            if len(stack) < n:
                stack.append((iter(below), states + (new,), throws + step))
                break
            path, thrown = states + (new,), throws + step
            for end, last, _ in below:
                found.append(JugglingSequence(path + (end,), thrown + last))
        else:
            stack.pop()
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


def _label_components(a, b, n: int) -> tuple[list, list]:
    """The per-label single states of labeled states a and b, after checking
    the length and the label counts."""
    if n < 0:
        raise DomainError("sequence length must be nonnegative")
    a, b = normalize_labeled(a), normalize_labeled(b)
    if a and b and label_count(a) != label_count(b):
        raise DomainError("labeled states use different label counts")
    labels = range(max(label_count(a), label_count(b)))
    return [label_component(a, j) for j in labels], [label_component(b, j) for j in labels]


def labeled_count(a, b, n: int, capacity=None) -> int:
    """Number of labeled juggling sequences: the product of per-label counts.

    The product decomposition fails under a shared hand capacity, so passing
    one is an error.
    """
    if capacity is not None:
        raise DomainError("labeled counting does not support a hand capacity")
    comps_a, comps_b = _label_components(a, b, n)
    return prod(count_sequences(u, v, n) for u, v in zip(comps_a, comps_b))


def enumerate_labeled_sequences(a, b, n: int):
    """All labeled sequences from a to b, walking the joint state machine.

    Each label transitions independently at every step; the result is the
    list of state paths (used to cross-check the product formula).  Each
    label's live steps come from `_live_steps`, as in `enumerate_sequences`,
    and a joint step is one pick of a live step per label, taken in
    `itertools.product` order, so no branch that dies is entered.  The walk
    keeps its own stack, one joint-step iterator per time.
    """
    comps_a, comps_b = _label_components(a, b, n)
    walks = [_live_steps(u, v, n, throws=False) for u, v in zip(comps_a, comps_b)]
    if [] in walks:
        return []
    if n == 0:
        return [[tuple(comps_a)]]
    found = []
    path = [tuple(comps_a)]
    stack = [product(*walks)]  # stack[t] iterates the joint steps at time t + 1
    while stack:
        for joint in stack[-1]:
            state = tuple([new for new, _, _ in joint])
            if len(stack) < n:
                path.append(state)
                stack.append(product(*[below for _, _, below in joint]))
                break
            found.append(path + [state])
        else:
            stack.pop()
            path.pop()
    return found
