"""The graded poset on juggling sequences.

Two sequences are adjacent when merging a throw at time i to height j with a
throw at time i+j to height k into a single throw at time i to height j+k
turns one into the other; in root terms, chained parts e_a - e_b, e_b - e_c
fuse into e_a - e_c.  The poset is graded by throw count with the
fewest-throw sequence at the bottom (splitting a throw steps up); that
orientation is the one whose characteristic polynomial factors as a power of
q - 1 on binary start states.
"""

from __future__ import annotations

from math import comb

from .bijection import gamma_inverse, root_of_throw
from .errors import DomainError, InvariantViolation
from .juggling import enumerate_sequences
from .kostant import partition_parts


class JugglingPoset:
    """The sequences, the covers as (below, above) index pairs (above has one
    throw more), and each sequence's rank; its length is the element count."""

    __slots__ = ("sequences", "covers", "ranks")

    def __init__(self, sequences: tuple, covers: tuple, ranks: tuple):
        self.sequences, self.covers, self.ranks = sequences, covers, ranks

    def __len__(self):
        return len(self.sequences)

    @property
    def partitions(self) -> tuple:
        """The Kostant partition of each sequence, derived on each access."""
        return tuple(gamma_inverse(s) for s in self.sequences)

    @property
    def top_rank(self) -> int:
        return max(self.ranks)


def build_poset(a, b, n: int, capacity=None) -> JugglingPoset:
    """Construct the poset on all sequences from a to b of length n.

    Covers are found in throw space: throws (t, h1) and (t + h1, h2) merge
    into (t, h1 + h2), the image under gamma_inverse of fusing
    e_t - e_{t+h1} and e_{t+h1} - e_{t+h1+h2}.  A sequence is keyed by its
    throw multiset packed into one int, a count field per distinct throw
    wide enough for the longest throw tuple.  Each distinct throw's chained
    partners are listed once, with the key change of their merge, so a
    sequence tries only the pairs it holds and a merge is one mask test, one
    addition and one lookup.  Distinct pairs of one sequence merge into
    distinct sequences, so no cover is found twice.
    """
    seqs = enumerate_sequences(a, b, n, capacity)
    if not seqs:
        raise DomainError("no juggling sequences exist for these parameters")
    instance = f"build_poset(a={a}, b={b}, n={n}, capacity={capacity})"
    width = max(len(s.throws) for s in seqs).bit_length()
    slot: dict = {}  # throw -> one in its count field
    for s in seqs:
        for throw in s.throws:
            if throw not in slot:
                slot[throw] = 1 << width * len(slot)
    starting: dict = {}  # time -> the distinct throws made then
    for throw in slot:
        starting.setdefault(throw.time, []).append(throw)
    field = (1 << width) - 1
    partners = {}  # throw -> (second's count field, second, key change or None), chained
    for first, one in slot.items():
        time, height = first
        pairs = []
        for second in starting.get(time + height, ()):
            merged = slot.get((time, height + second.height))  # equal to its Throw
            delta = None if merged is None else merged - one - slot[second]
            pairs.append((slot[second] * field, second, delta))
        partners[first] = pairs
    keys = [sum(map(slot.__getitem__, s.throws)) for s in seqs]
    index = {key: k for k, key in enumerate(keys)}
    min_throws = min(len(s.throws) for s in seqs)
    ranks = tuple(len(s.throws) - min_throws for s in seqs)
    covers = []
    for k, seq in enumerate(seqs):
        key = keys[k]
        for first in dict.fromkeys(seq.throws):
            for held, second, delta in partners[first]:
                if key & held:
                    other = None if delta is None else index.get(key + delta)
                    if other is None:
                        raise InvariantViolation(
                            f"{instance}: merge of {root_of_throw(first)} and "
                            f"{root_of_throw(second)} left the sequence set")
                    covers.append((other, k))
    for lo, hi in covers:
        if ranks[hi] != ranks[lo] + 1:
            raise InvariantViolation(f"{instance}: cover does not raise rank by one")
    covers.sort()
    return JugglingPoset(tuple(seqs), tuple(covers), ranks)


def minimal_elements(poset: JugglingPoset) -> list[int]:
    uppers = {hi for _, hi in poset.covers}
    return [k for k in range(len(poset)) if k not in uppers]


def mobius_from_bottom(poset: JugglingPoset) -> list[int]:
    """Mobius values from the unique minimal element to every element.

    One pass in rank order builds each element's bitmask of everything
    strictly below it from its lower covers, and its value from that mask:
    minus the sum of the values already found below it.
    """
    minima = minimal_elements(poset)
    if len(minima) != 1:
        names = ", ".join(partition_label(gamma_inverse(poset.sequences[k]))
                          for k in sorted(minima))
        raise DomainError(f"poset has {len(minima)} minimal elements: {names}")
    covers_into: dict[int, list[int]] = {}
    for lo, hi in poset.covers:
        covers_into.setdefault(hi, []).append(lo)
    n = len(poset)
    below = [0] * n
    mobius = [0] * n
    having: dict[int, int] = {}  # Mobius value -> bitmask of the elements with it
    for x in sorted(range(n), key=poset.ranks.__getitem__):
        mask = 0
        for lo in covers_into.get(x, ()):
            mask |= below[lo] | 1 << lo
        below[x] = mask
        value = -sum(v * (mask & m).bit_count() for v, m in having.items()) if mask else 1
        mobius[x] = value
        having[value] = having.get(value, 0) | 1 << x
    return mobius


def characteristic_polynomial(poset: JugglingPoset) -> tuple[int, ...]:
    """Coefficients, ascending in q, of sum_x mu(bottom, x) q^(top - rank x)."""
    mobius = mobius_from_bottom(poset)
    top = poset.top_rank
    coeffs = [0] * (top + 1)
    for x, value in enumerate(mobius):
        coeffs[top - poset.ranks[x]] += value
    return tuple(coeffs)


def binomial_power_coefficients(k: int) -> tuple[int, ...]:
    """Coefficients of (q - 1)^k, ascending."""
    return tuple(comb(k, j) * (-1) ** (k - j) for j in range(k + 1))


def partition_label(partition) -> str:
    """A partition in root notation, one root per part: `1-3 2-4`."""
    return " ".join(map(str, partition_parts(partition))) or "(empty)"


def poset_dot(poset: JugglingPoset) -> str:
    """The cover graph in DOT format, bottom to top."""
    lines = ["digraph juggling_poset {", "  rankdir=BT;"]
    for k, part in enumerate(poset.partitions):
        lines.append(f'  n{k} [label="{partition_label(part)}"];')
    for lo, hi in poset.covers:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines)
