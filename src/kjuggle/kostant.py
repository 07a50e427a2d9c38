"""Partitions of a weight into positive roots: enumeration and counting.

A partition is stored as a canonically sorted tuple of (root, multiplicity)
pairs.  Both engines take the allowed roots in canonical order and bound each
multiplicity by the coordinates the remaining roots can no longer raise, so
multisets are produced exactly once.  Both walk residuals packed into one int
of fixed-width biased fields, following one sweep plan per root set: a copy
of a root is one subtraction, a dead residual fails one mask test, and the
copies a root may still take are read off one field.  For e_i - e_j roots
alone the fields hold prefix sums, so a residual with a negative one is dead.
Counting runs forward over a layer of {residual: ways}, one (kind, i) group
of roots at a time, so equal residuals merge, and a pure group's last root
sends every copy left in one move.  The capacity-restricted count is the
same sweep with a cap on each coordinate, checked when the sweep reaches it.
Enumeration is liveness-guided and built root by root, as the juggling
listing is built time by time: forward, the residuals that reach each root;
backward, each residual's live entries, one per positive part that can still
reach zero, with the entries of the part's own remainder below it; an
explicit stack then emits them, so no root costs a frame, no branch that
dies is entered, and partitions come out canonically with no sort.

What depends only on the roots is built once per process, in two bounded
tables of plain tuples: a root set's record (its canonical order and whether
it is pure e_i - e_j), keyed by the roots as given, and the sweep plan (each
group's field shift, prune mask, level divisor and packed root deltas),
keyed by the canonical roots, the field width and the target length.  Only a
root set the process has seen before gains; every check on the input still
runs on every call.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, groupby, repeat
from operator import attrgetter, lshift

from .errors import DomainError
from .roots import DOUBLE, MINUS, PLUS, Root

Partition = tuple  # tuple[tuple[Root, int], ...]


# Bounds on the per-process tables below: enough for every root set (and
# plan) that one pass of the acceptance families touches, so a repeated set
# is found again, while no stream of distinct sets can grow them without end.
ROOT_SET_CACHE = 1024
PLAN_CACHE = 1024


@lru_cache(maxsize=ROOT_SET_CACHE)
def _root_set(roots: tuple) -> tuple:
    """The record of a root collection, given as a tuple: (canonical roots,
    pure), pure saying every root is e_i - e_j."""
    unique = {root.key: root for root in roots}
    canon = tuple([unique[key] for key in sorted(unique)])
    if canon == roots:  # already canonical: keep one tuple, not two
        canon = roots
    return canon, all(root.kind == MINUS for root in canon)


def canonical_roots(roots) -> tuple[Root, ...]:
    """Deduplicate and sort a root collection into canonical order.

    The order is looked up in a bounded per-process table keyed by the
    collection as a tuple, so a root set seen before costs one lookup.
    """
    return _root_set(tuple(roots))[0]


def partition_weight(partition: Partition, ambient: int) -> tuple[int, ...]:
    """Sum of the parts of a partition, as a coordinate vector."""
    _check_ambient(ambient, [root for root, _ in partition])
    total = [0] * ambient
    for root, mult in partition:
        for k, x in root.terms:
            total[k - 1] += mult * x
    return tuple(total)


def partition_parts(partition: Partition):
    """Expand a partition into its parts, repeating by multiplicity."""
    for root, mult in partition:
        for _ in range(mult):
            yield root


def make_partition(parts) -> Partition:
    """Build the canonical (root, multiplicity) form from an iterable of roots."""
    counts: dict[Root, int] = {}
    for root in parts:
        counts[root] = counts.get(root, 0) + 1
    return tuple(sorted(counts.items(), key=lambda it: it[0].key))


def _check_ambient(ambient: int, roots) -> None:
    for root in roots:
        if root.terms[-1][0] > ambient:
            raise DomainError(f"root {root} does not fit in ambient dimension {ambient}")


@lru_cache(maxsize=PLAN_CACHE)
def _plan(roots: tuple, bits: int, length: int) -> tuple:
    """The sweep plan of canonical roots on residuals of `length` bits-wide
    fields: (bias, groups), one group per (kind, i) group of roots, each
    (shift, keep, want, need, deltas, guards, last).  Coordinate i's field
    starts at bit shift; a residual is dead in the group when
    w & keep != want, and a root there takes at most the field's value //
    need copies (the level); deltas holds one copy of each root, packed;
    guards, in an e_i + e_j group only (else None), holds the bit shift of
    each root's second coordinate, sent only while positive; last is a pure
    group's last root (None in a mixed set, where it stays in deltas)."""
    half = 1 << bits - 1
    mask = (half << 1) - 1
    bias = sum(half << bits * k for k in range(length))
    pure = not roots or roots[-1].kind == MINUS  # canonical order: e_i - e_j first
    groups = []
    for (kind, i), group in groupby(roots, key=attrgetter("kind", "i")):
        group = tuple(group)
        shift = bits * (i - 1)
        # Prunes, w & keep != want: a pure set never changes the prefix sums
        # below i again, and none may be negative; in a mixed set nothing
        # raises coordinate i from its e_i - e_j group on, nor any
        # coordinate past the e_i - e_j roots.
        if pure:
            keep, want = bias | ((1 << shift) - 1), bias
        elif kind == MINUS:
            keep = want = half << shift
        else:
            keep = want = bias
        deltas = []
        for root in group:
            if pure:  # prefix sums i..j-1 each lose one
                deltas.append(((1 << bits * (root.j - 1)) - (1 << shift)) // mask)
            else:
                deltas.append(sum(x << bits * (k - 1) for k, x in root.terms))
        last = deltas.pop() if pure else None
        guards = tuple(bits * (root.j - 1) for root in group) if kind == PLUS else None
        groups.append((shift, keep, want, 2 if kind == DOUBLE else 1, tuple(deltas), guards, last))
    return bias, tuple(groups)


def _pack(target, pure: bool, bits: int, bias: int):
    """A target as one residual of bits-wide fields biased by bias: its
    prefix sums if pure, else its coordinates; None for a pure target with a
    nonzero total, which has no partition."""
    if pure:
        target = tuple(accumulate(target))
        if target and target[-1]:
            return None
    return bias + sum(map(lshift, target, range(0, bits * len(target), bits)))


def _sweep(targets, roots, ceiling=None) -> int:
    """The layer DP of count_weighted over a {weight: ways} mapping and
    canonical roots that fit every target, on packed residuals, following
    the roots' sweep plan (built once per process for each canonical root
    tuple, field width and target length); `ceiling`, if given (e_i - e_j
    roots only), caps w[i] as a level at group i's entry (a coordinate with
    no group of its own is the caller's to check)."""
    span = max((sum(map(abs, w)) for w in targets), default=0)
    bits = span.bit_length() + 1
    half = 1 << bits - 1
    mask = (half << 1) - 1
    bias, groups = _plan(roots, bits, max(map(len, targets), default=0))
    pure = not roots or roots[-1].kind == MINUS
    layer: dict = {}
    for target, ways in targets.items():
        w = _pack(target, pure, bits, bias)
        if w is not None:
            layer[w] = layer.get(w, 0) + ways
    for shift, keep, want, need, deltas, guards, last in groups:
        if not layer:
            return 0
        cap = ceiling[shift // bits] if ceiling is not None else span  # no level passes span
        out: dict = {}
        levels: dict = {}
        for w, ways in layer.items():
            if w & keep != want:
                continue
            c = (((w >> shift) & mask) - half) // need
            if c > cap:
                continue
            if c:
                levels.setdefault(c, {})[w] = ways
            else:
                out[w] = ways
        if not levels:
            layer = out
            continue
        # One copy of each root is delta; an e_i + e_j copy is sent only
        # while w[j] > 0, that is while w & sel >= lo (sel = 0: always).
        for delta, guard in zip(deltas, guards or repeat(0)):
            sel, lo = (mask << guard, (half + 1) << guard) if guard else (0, 0)
            nxt: dict = {}
            above: dict = {}
            for c in range(max(levels), -1, -1):
                cur = levels.get(c, {}) if c else out
                if sel:
                    for w, ways in above.items():
                        if w & sel >= lo:
                            r = w - delta
                            cur[r] = cur.get(r, 0) + ways
                else:
                    for w, ways in above.items():
                        r = w - delta
                        cur[r] = cur.get(r, 0) + ways
                if c:
                    nxt[c] = cur
                above = cur
            levels = nxt
        if last is not None:  # nothing after a pure group touches coordinate i
            for c, cur in levels.items():
                drop = c * last
                for w, ways in cur.items():
                    r = w - drop
                    out[r] = out.get(r, 0) + ways
        else:
            for cur in levels.values():  # keys disjoint from out's: w[i] >= need
                out.update(cur)
        layer = out
    return layer.get(bias, 0)


def count_weighted(targets, allowed) -> int:
    """Sum over a {weight: ways} mapping of ways times the number of
    partitions of the weight into the allowed roots (linear in the mapping).

    One forward layer DP, one (kind, i) group of roots at a time.  In a group,
    weights are bucketed by the copies coordinate i can still pay for (level
    0 skips or leaves the group); per root, the buckets are swept downward,
    each receiving the one above minus one copy, which sends 0..max copies
    in one step per distinct residual.

    A residual is one int of bits-wide fields, field k at bit bits * k
    holding a value plus half = 2^(bits-1), where half > P, the largest
    sum(abs(target)); no field borrows from its neighbour, a copy is one
    subtraction, and a field's top bit is set iff its value is >= 0.

    With e_i - e_j roots alone, field k holds the prefix sum w_1 + ... +
    w_(k+1); a copy of e_i - e_j lowers fields i-1..j-2 by one.  A target
    with a nonzero total is skipped.  Every positive root has nonnegative
    prefix sums, so at group entry a residual is dropped as dead if one is
    negative or one below field i-1 is nonzero (no later root changes
    those); the level is then field i-1 itself, and the group's last root
    sends all the copies left in one subtraction, as nothing after the group
    touches coordinate i.  Prefix sums start in [-P/2, P/2], only fall, are
    nonnegative at group entry, and a group lowers each by at most its
    level, itself <= P/2.  Mixed root sets keep one coordinate per field:
    those stay in [-P, P], as an e_i - e_j copy is sent only while w[i] > 0
    and any other only lowers nonnegative coordinates.
    """
    roots = canonical_roots(allowed)
    for ambient in dict.fromkeys(map(len, targets)):  # first seen first: the same error
        _check_ambient(ambient, roots)
    return _sweep(targets, roots)


def count_partitions(target, allowed) -> int:
    """Number of multisets of allowed roots summing to the target weight.

    The empty weight has exactly one partition (the empty one).
    """
    return count_weighted({tuple(target): 1}, allowed)


def enumerate_partitions(target, allowed) -> list[Partition]:
    """All partitions of the target into allowed roots, canonically ordered.

    Built root by root on the count's packed residuals and sweep plan:
    forward, the residuals that reach each root, each with its positive
    parts (the plan's dead residuals are dropped); then backward from
    past the last root, each residual's live entries, one ((root, mult),
    below) per part whose remainder is zero (below None) or live (below its
    live entries at the next root), followed by the next root's entries for
    the residual itself.  An explicit stack emits the entries in order, so
    partitions come out canonically with no sort and no root costs a frame.
    """
    target = tuple(target)
    roots, pure = _root_set(tuple(allowed))
    _check_ambient(len(target), roots)
    if not any(target):
        return [()]
    bits = sum(map(abs, target)).bit_length() + 1
    half = 1 << bits - 1
    mask = (half << 1) - 1
    bias, groups = _plan(roots, bits, len(target))
    start = _pack(target, pure, bits, bias)
    if start is None:
        return []
    layers = []  # per root: [(residual, [remainder after mult 1, 2, ..., None if zero]), ...]
    reach = (start,)
    for shift, keep, want, need, deltas, guards, last in groups:
        if last is not None:
            deltas += (last,)
        for delta, guard in zip(deltas, guards or repeat(0)):
            sel, lo = (mask << guard, (half + 1) << guard) if guard else (0, 0)
            layer = []
            nxt = {}
            for w in reach:
                if w & keep != want:  # dead: no later root brings it to zero
                    continue
                nxt[w] = None
                children = []
                r = w
                for _ in range((((w >> shift) & mask) - half) // need):
                    if r & sel < lo:  # an e_i + e_j copy needs w[j] > 0
                        break
                    r -= delta
                    if r == bias:
                        children.append(None)
                    else:
                        children.append(r)
                        nxt[r] = None
                if children:
                    layer.append((w, children))
            layers.append(layer)
            reach = nxt
    # live[w]: the live entries of w from the root last read back on.  A root
    # changes only the residuals with live parts of their own there: any other
    # keeps its entries from the next root, which are none if it is dead.
    live: dict = {}
    for root in reversed(roots):
        own = {}
        for w, children in layers.pop():
            entries = [((root, mult), None if child is None else live[child])
                       for mult, child in enumerate(children, 1)
                       if child is None or live.get(child)]
            if entries:
                own[w] = entries + live.get(w, [])
        live.update(own)
    found: list[Partition] = []
    # stack[k] iterates the choices of part k + 1, with the k parts chosen before it.
    stack = [(iter(live.get(start, [])), ())]
    while stack:
        entries, chosen = stack[-1]
        for part, below in entries:
            if below is None:
                found.append(chosen + (part,))
            else:
                stack.append((iter(below), chosen + (part,)))
                break
        else:
            stack.pop()
    return found


def count_capacity_restricted(target, allowed, initial, capacity: int) -> int:
    """Partitions of the target into e_i - e_j roots obeying the hand-capacity
    inequality: for every coordinate j, initial_j plus the number of parts
    with negative entry at j stays at most the capacity.
    """
    target = tuple(target)
    roots, pure = _root_set(tuple(allowed))
    ambient = len(target)
    _check_ambient(ambient, roots)
    if not pure:
        raise DomainError("capacity-restricted counting is defined only for e_i - e_j roots")
    if capacity < 1:
        raise DomainError("capacity must be a positive integer")
    initial = tuple(initial)[:ambient]
    if max(initial, default=0) > capacity:
        return 0
    spare = [capacity - x for x in initial] + [capacity] * (ambient - len(initial))
    # Copies land on j only before j's own group, so w[j] only grows until
    # the sweep reaches j: capping it there by target[j] plus the spare
    # capacity caps every landing.  A coordinate with no roots of its own
    # (the last one, for one) must be zero by then: its ceiling must be >= 0.
    ceiling = [x + s for x, s in zip(target, spare)]
    sources = {root.i for root in roots}
    if any(cap < 0 for j, cap in enumerate(ceiling, 1) if j not in sources):
        return 0
    return _sweep({target: 1}, roots, ceiling)
