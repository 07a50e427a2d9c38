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

from bisect import insort
from dataclasses import dataclass
from math import comb

from .bijection import gamma_inverse, root_of_throw
from .errors import DomainError, InvariantViolation
from .juggling import Throw, enumerate_sequences
from .kostant import partition_parts


@dataclass(frozen=True)
class JugglingPoset:
    sequences: tuple
    covers: tuple  # (below, above) index pairs; above has one throw more
    ranks: tuple

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
    e_t - e_{t+h1} and e_{t+h1} - e_{t+h1+h2}.  Each sequence's distinct
    throws are indexed by start time, so only such chained pairs are tried,
    and the merged throw is inserted in place into the sorted throw tuple.
    """
    seqs = enumerate_sequences(a, b, n, capacity)
    if not seqs:
        raise DomainError("no juggling sequences exist for these parameters")
    instance = f"build_poset(a={a}, b={b}, n={n}, capacity={capacity})"
    index = {s.throws: k for k, s in enumerate(seqs)}
    min_throws = min(len(s.throws) for s in seqs)
    ranks = tuple(len(s.throws) - min_throws for s in seqs)
    covers = set()
    for k, seq in enumerate(seqs):
        distinct = dict.fromkeys(seq.throws)
        starting: dict = {}  # time -> the distinct throws made then
        for throw in distinct:
            starting.setdefault(throw.time, []).append(throw)
        for first in distinct:
            for second in starting.get(first.time + first.height, ()):
                merged = list(seq.throws)
                merged.remove(first)
                merged.remove(second)
                insort(merged, Throw(first.time, first.height + second.height))
                other = index.get(tuple(merged))
                if other is None:
                    raise InvariantViolation(
                        f"{instance}: merge of {root_of_throw(first)} and "
                        f"{root_of_throw(second)} left the sequence set")
                covers.add((other, k))
    for lo, hi in covers:
        if ranks[hi] != ranks[lo] + 1:
            raise InvariantViolation(f"{instance}: cover does not raise rank by one")
    return JugglingPoset(tuple(seqs), tuple(sorted(covers)), ranks)


def _strictly_below(poset: JugglingPoset):
    """Bitmask per element of everything strictly below it."""
    n = len(poset)
    below = [0] * n
    order = sorted(range(n), key=lambda k: poset.ranks[k])
    covers_into: dict[int, list[int]] = {}
    for lo, hi in poset.covers:
        covers_into.setdefault(hi, []).append(lo)
    for x in order:
        mask = 0
        for lo in covers_into.get(x, ()):
            mask |= below[lo] | (1 << lo)
        below[x] = mask
    return below


def minimal_elements(poset: JugglingPoset) -> list[int]:
    uppers = {hi for _, hi in poset.covers}
    return [k for k in range(len(poset)) if k not in uppers]


def mobius_from_bottom(poset: JugglingPoset) -> list[int]:
    """Mobius values from the unique minimal element to every element."""
    minima = minimal_elements(poset)
    if len(minima) != 1:
        names = ", ".join(str(gamma_inverse(poset.sequences[k])) for k in sorted(minima))
        raise DomainError(f"poset has {len(minima)} minimal elements: {names}")
    below = _strictly_below(poset)
    n = len(poset)
    mobius = [0] * n
    having: dict[int, int] = {}  # Mobius value -> bitmask of the elements with it
    for x in sorted(range(n), key=lambda k: poset.ranks[k]):
        mask = below[x]
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


def poset_dot(poset: JugglingPoset) -> str:
    """The cover graph in DOT format, bottom to top."""
    lines = ["digraph juggling_poset {", "  rankdir=BT;"]
    for k, part in enumerate(poset.partitions):
        label = " ".join(str(r) for r in partition_parts(part)) or "(empty)"
        lines.append(f'  n{k} [label="{label}"];')
    for lo, hi in poset.covers:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines)
