"""Partitions of a weight into positive roots: enumeration and counting.

A partition is stored as a canonically sorted tuple of (root, multiplicity)
pairs.  Both engines take the allowed roots in canonical order and bound each
multiplicity by the coordinates the remaining roots can no longer raise, so
multisets are produced exactly once.  Enumeration is liveness-guided: a
per-call memo keeps, for each (root index, residual) node, its live entries,
one per positive part that can still reach zero, with the entries of the
part's own remainder below it; skipped roots are spliced out, so the walk
spends one frame per positive part and emits partitions canonically with no
sort.  Counting runs forward over a layer of {residual weight: ways},
one (kind, i) group of roots at a time, so equal residuals merge; there each
residual is packed into one int of fixed-width biased coordinate fields, so
a copy of a root is one subtraction and each prune one mask test.  The
capacity-restricted count is the same sweep with a ceiling per coordinate.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter

from .errors import DomainError
from .roots import DOUBLE, MINUS, PLUS, SINGLE, Root, root_to_weight

Partition = tuple  # tuple[tuple[Root, int], ...]


def canonical_roots(roots) -> tuple[Root, ...]:
    """Deduplicate and sort a root collection into canonical order."""
    unique = {root.key: root for root in roots}
    return tuple([unique[key] for key in sorted(unique)])


def partition_weight(partition: Partition, ambient: int) -> tuple[int, ...]:
    """Sum of the parts of a partition, as a coordinate vector."""
    total = [0] * ambient
    for root, mult in partition:
        for k, x in enumerate(root_to_weight(root, ambient)):
            total[k] += mult * x
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


def _max_mult(root: Root, w) -> int:
    """Largest multiplicity of `root` that can still lead to a zero residual.

    Later canonical roots never raise the coordinates consumed here, so the
    bound is exact: a negative bound means the branch is dead.
    """
    if root.kind == MINUS:
        return w[root.i - 1]
    if root.kind == PLUS:
        return min(w[root.i - 1], w[root.j - 1])
    if root.kind == SINGLE:
        return w[root.i - 1]
    return w[root.i - 1] // 2


def _subtract(w, root: Root, mult: int):
    out = list(w)
    if root.kind == MINUS:
        out[root.i - 1] -= mult
        out[root.j - 1] += mult
    elif root.kind == PLUS:
        out[root.i - 1] -= mult
        out[root.j - 1] -= mult
    elif root.kind == SINGLE:
        out[root.i - 1] -= mult
    else:
        out[root.i - 1] -= 2 * mult
    return tuple(out)


def _check_ambient(target, roots):
    ambient = len(target)
    for root in roots:
        top = root.j if root.kind in (MINUS, PLUS) else root.i
        if top > ambient:
            raise DomainError(f"root {root} does not fit in ambient dimension {ambient}")
    return ambient


def _sweep(targets, roots, ceiling=None) -> int:
    """The layer DP of count_weighted over a {weight: ways} mapping and
    canonical roots that fit every target, on packed residuals; `ceiling`,
    if given, caps each coordinate j that an e_i - e_j copy raises."""
    span = max((sum(map(abs, w)) for w in targets), default=0)
    half = 1 << span.bit_length()
    bits = span.bit_length() + 1
    mask = (half << 1) - 1
    bias = sum(half << bits * k for k in range(max(map(len, targets), default=0)))
    layer: dict = {}
    for target, ways in targets.items():
        w = bias + sum(x << bits * k for k, x in enumerate(target))
        layer[w] = layer.get(w, 0) + ways
    pure = not roots or roots[-1].kind == MINUS  # canonical order: e_i - e_j first
    for (kind, i), group in groupby(roots, key=attrgetter("kind", "i")):
        if not layer:
            return 0
        shift = bits * (i - 1)
        top = half << shift
        low = (1 << shift) - 1
        need = 2 if kind == DOUBLE else 1
        out: dict = {}
        levels: dict = {}
        # Prunes: past the e_i - e_j roots no root raises a coordinate; from
        # an e_i - e_j group on, nothing raises coordinate i, and a pure
        # e_i - e_j set never touches the coordinates below i again.
        for w, ways in layer.items():
            if kind != MINUS:
                if w & bias != bias:
                    continue
            elif not w & top or (pure and w & low != bias & low):
                continue
            c = (((w >> shift) & mask) - half) // need
            if c:
                levels.setdefault(c, {})[w] = ways
            else:
                out[w] = ways
        most = max(levels, default=0)  # each sweep keeps a bucket per level 1..most
        for root in group if most else ():  # most == 0: no weight pays for a copy
            # A copy is sent from w while lo <= w & sel < hi: always, but for
            # e_i + e_j only while w[j] > 0 (coordinates are nonnegative in a
            # mixed group) and under a ceiling only while w[j] < ceiling[j].
            sel, lo, hi = 0, 0, 1
            delta = 1 << shift
            if kind == MINUS:
                j = bits * (root.j - 1)
                delta -= 1 << j
                if ceiling is not None:
                    sel, hi = mask << j, (ceiling[root.j - 1] + half) << j
            elif kind == PLUS:
                j = bits * (root.j - 1)
                delta += 1 << j
                sel = mask << j
                lo, hi = (half + 1) << j, sel + 1
            elif kind == DOUBLE:
                delta <<= 1
            nxt: dict = {}
            above: dict = {}
            for c in range(most, -1, -1):
                cur = levels.get(c, {}) if c else out
                for w, ways in above.items():
                    if lo <= w & sel < hi:
                        r = w - delta
                        cur[r] = cur.get(r, 0) + ways
                if c:
                    nxt[c] = cur
                above = cur
            levels = nxt
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

    A residual is one int: coordinate k (zero past a target's length) plus
    half = 2^(bits-1) in the bits-wide field at bit bits * k.  Coordinates
    stay in [-P, P], P the largest sum(abs(target)), as an e_i - e_j copy is
    sent only while w[i] > 0 and any other only lowers nonnegative ones; so
    with half > P no field borrows from its neighbour, a copy is one
    subtraction, and a field's top bit is set iff its coordinate is >= 0.
    """
    roots = canonical_roots(allowed)
    for target in targets:
        _check_ambient(target, roots)
    return _sweep(targets, roots)


def count_partitions(target, allowed) -> int:
    """Number of multisets of allowed roots summing to the target weight.

    The empty weight has exactly one partition (the empty one).
    """
    return count_weighted({tuple(target): 1}, allowed)


def enumerate_partitions(target, allowed) -> list[Partition]:
    """All partitions of the target into allowed roots, canonically ordered;
    each memo node is expanded once, and the walk follows live entries only."""
    target = tuple(target)
    roots = canonical_roots(allowed)
    _check_ambient(target, roots)
    if not any(target):
        return [()]
    n = len(roots)
    first_mixed = next((k for k, r in enumerate(roots) if r.kind != MINUS), n)
    memo: dict = {}
    found: list[Partition] = []

    def live(idx, w) -> list:
        """The live entries of the nonzero residual w from root idx on: one
        ((root, mult), below) per positive part that can still lead to zero,
        below being the live entries of what remains after it (from the next
        root on), or None when nothing remains; empty if w is dead.  A root's
        own parts come first, mult ascending, then the entries of skipping it
        (the mult-0 child spliced in place), which is canonical order."""
        key = (idx, w)
        out = memo.get(key)
        if out is not None:
            return out
        out = []
        if idx < n:
            root = roots[idx]
            dead = (min(w) < 0 if idx >= first_mixed else
                    w[root.i - 1] < 0 or (first_mixed == n and any(w[:root.i - 1])))
            if not dead:
                for mult in range(1, _max_mult(root, w) + 1):
                    child = _subtract(w, root, mult)
                    if not any(child):
                        out.append(((root, mult), None))
                    else:
                        below = live(idx + 1, child)
                        if below:
                            out.append(((root, mult), below))
                out += live(idx + 1, w)
        memo[key] = out
        return out

    def rec(entries, chosen):
        for part, below in entries:
            if below is None:
                found.append(chosen + (part,))
            else:
                rec(below, chosen + (part,))

    rec(live(0, target), ())
    return found


def type_a_reachable(weight) -> bool:
    """Whether a weight is a nonnegative sum of e_i - e_j roots: all prefix
    sums nonnegative and total zero."""
    acc = 0
    for x in weight:
        acc += x
        if acc < 0:
            return False
    return acc == 0


def count_capacity_restricted(target, allowed, initial, capacity: int) -> int:
    """Partitions of the target into e_i - e_j roots obeying the hand-capacity
    inequality: for every coordinate j, initial_j plus the number of parts
    with negative entry at j stays at most the capacity.
    """
    target = tuple(target)
    roots = canonical_roots(allowed)
    ambient = _check_ambient(target, roots)
    if roots and roots[-1].kind != MINUS:  # canonical order lists e_i - e_j roots first
        raise DomainError("capacity-restricted counting is defined only for e_i - e_j roots")
    if capacity < 1:
        raise DomainError("capacity must be a positive integer")
    initial = tuple(initial)[:ambient]
    if max(initial, default=0) > capacity:
        return 0
    spare = [capacity - x for x in initial] + [capacity] * (ambient - len(initial))
    # Copies land on j only before j's own group, while w[j] is target[j]
    # plus the copies landed so far: the spare capacity caps w[j].
    return _sweep({target: 1}, roots, [x + s for x, s in zip(target, spare)])
