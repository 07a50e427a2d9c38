"""Positive roots of the classical Lie types A, B, C, D in standard coordinates.

Weights live in Z^d for the ambient dimension d of the type (r+1 for A_r,
r for B_r/C_r/D_r) and are represented as plain integer tuples.  A positive
root is one of four shapes: e_i - e_j, e_i + e_j, e_i, or 2e_i.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import DomainError

# Root kinds, in canonical sort order.
MINUS = "minus"    # e_i - e_j
PLUS = "plus"      # e_i + e_j
SINGLE = "single"  # e_i
DOUBLE = "double"  # 2e_i

_KIND_ORDER = {MINUS: 0, PLUS: 1, SINGLE: 2, DOUBLE: 3}

LIE_TYPES = ("A", "B", "C", "D")
MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4}


class Root:
    """A positive root; for SINGLE and DOUBLE kinds the second index is 0.

    Roots are interned: `Root(kind, i, j)` returns the one object of that
    root, so equality and hashing are identity, and copies and pickles come
    back as the same object.  Its canonical sort key, its compact text and
    its terms, the nonzero coordinates as (index, value) pairs in index
    order, are computed once, when the root is first made.
    """

    __slots__ = ("kind", "i", "j", "key", "text", "terms")

    def __new__(cls, kind: str, i: int, j: int = 0):
        root = _INTERNED.get((kind, i, j))
        if root is not None:
            return root
        if kind not in _KIND_ORDER:
            raise DomainError(f"unknown root kind {kind!r}")
        # The lookup above matches any index equal to an int (1.0, True), so
        # such an index gets the int root here too, and nothing else is stored.
        try:
            whole = int(i), int(j)
        except (TypeError, ValueError, OverflowError):
            whole = None
        if whole != (i, j):
            raise DomainError(f"root indices must be integers, got ({i!r}, {j!r})")
        i, j = whole
        if i < 1:
            raise DomainError(f"root index {i} must be >= 1")
        if kind in (MINUS, PLUS):
            if not i < j:
                raise DomainError(f"root indices must satisfy i < j, got ({i}, {j})")
        elif j != 0:
            raise DomainError(f"{kind} roots take a single index")
        # A digit token of two or more digits that starts with 2 could be
        # e_i or 2e_i, so such an e_i, and a 2e_i past one digit, print an e.
        text, terms = {MINUS: (f"{i}-{j}", ((i, 1), (j, -1))),
                       PLUS: (f"{i}+{j}", ((i, 1), (j, 1))),
                       SINGLE: (f"e{i}" if i >= 20 and str(i)[0] == "2" else f"{i}", ((i, 1),)),
                       DOUBLE: (f"2{i}" if i < 10 else f"2e{i}", ((i, 2),))}[kind]
        root = object.__new__(cls)
        for name, value in (("kind", kind), ("i", i), ("j", j), ("key", (_KIND_ORDER[kind], i, j)),
                            ("text", text), ("terms", terms)):
            object.__setattr__(root, name, value)
        _INTERNED[kind, i, j] = root
        return root

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Root")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a Root")

    def __reduce__(self):
        return Root, (self.kind, self.i, self.j)

    def __repr__(self):
        return f"Root(kind={self.kind!r}, i={self.i!r}, j={self.j!r})"

    def __lt__(self, other):
        return self.key < other.key

    def __str__(self):
        return self.text

    def __format__(self, spec):
        return format(self.text, spec)


_INTERNED: dict[tuple, Root] = {}  # (kind, i, j) -> its one Root


def eminus(i, j) -> Root:
    return Root(MINUS, i, j)


def eplus(i, j) -> Root:
    return Root(PLUS, i, j)


def esingle(i) -> Root:
    return Root(SINGLE, i)


def edouble(i) -> Root:
    return Root(DOUBLE, i)


_ROOT_RE = re.compile(r"^(\d+)([+-])(\d+)$")
_E_RE = re.compile(r"^(2?)e(\d+)$")


def parse_root(text: str) -> Root:
    """Parse a root from its compact form: i-j, i+j, e<i>, 2e<i>, or the
    digits-only i and 2i.

    A digits-only token is e_i unless it starts with 2 and is longer than
    one digit; "2" followed by one nonzero digit is 2e_i, and any longer
    token starting with 2 is rejected as ambiguous.
    """
    text = text.strip()
    m = _ROOT_RE.match(text)
    if m:
        i, op, j = int(m.group(1)), m.group(2), int(m.group(3))
        return eminus(i, j) if op == "-" else eplus(i, j)
    m = _E_RE.match(text)
    if m:
        return (edouble if m.group(1) else esingle)(int(m.group(2)))
    if text.isdigit():
        if len(text) == 1 or text[0] != "2":
            return esingle(int(text))
        if len(text) == 2 and text[1] != "0":
            return edouble(int(text[1]))
        raise DomainError(f"ambiguous root {text!r}: write e<i> for e_i or 2e<i> for 2e_i")
    raise DomainError(f"cannot parse root {text!r}")


def check_type_rank(lie_type: str, rank: int) -> None:
    if lie_type not in LIE_TYPES:
        raise DomainError(f"unknown Lie type {lie_type!r}")
    if rank < MIN_RANK[lie_type]:
        raise DomainError(f"type {lie_type} requires rank >= {MIN_RANK[lie_type]}, got {rank}")


def ambient_dim(lie_type: str, rank: int) -> int:
    """Dimension of the standard coordinate space: r+1 for A, r otherwise."""
    check_type_rank(lie_type, rank)
    return rank + 1 if lie_type == "A" else rank


@lru_cache(maxsize=None, typed=True)
def positive_roots(lie_type: str, rank: int) -> tuple[Root, ...]:
    """All positive roots of the type, in canonical order.

    Sizes: r(r+1)/2 for A_r, r^2 for B_r and C_r, r(r-1) for D_r.  The
    tuple of frozen roots is built once per (type, rank) and shared; a bad
    type or rank raises each time, as exceptions are not cached.
    """
    check_type_rank(lie_type, rank)
    n = ambient_dim(lie_type, rank)
    roots = [eminus(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    if lie_type in ("B", "C", "D"):
        roots += [eplus(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    if lie_type == "B":
        roots += [esingle(i) for i in range(1, n + 1)]
    elif lie_type == "C":
        roots += [edouble(i) for i in range(1, n + 1)]
    return tuple(roots)


def check_positive_roots(lie_type: str, rank: int, roots) -> None:
    """Raise a DomainError naming the first of roots that is not a positive
    root of the type."""
    allowed = set(positive_roots(lie_type, rank))
    for root in roots:
        if root not in allowed:
            raise DomainError(f"root {root} is not a positive root of {lie_type}_{rank}")


def root_to_weight(root: Root, ambient: int) -> tuple[int, ...]:
    """Expand a root into its coordinate vector of the given length."""
    if root.terms[-1][0] > ambient:
        raise DomainError(f"root {root} does not fit in ambient dimension {ambient}")
    w = [0] * ambient
    for k, x in root.terms:
        w[k - 1] = x
    return tuple(w)


def simple_root(lie_type: str, rank: int, i: int) -> tuple[int, ...]:
    """The i-th simple root (1-based) in standard coordinates."""
    check_type_rank(lie_type, rank)
    if not 1 <= i <= rank:
        raise DomainError(f"simple root index {i} out of range 1..{rank}")
    if lie_type == "A" or i < rank:
        root = eminus(i, i + 1)
    else:  # the last simple root of B, C or D
        root = {"B": esingle(rank), "C": edouble(rank), "D": eplus(rank - 1, rank)}[lie_type]
    return root_to_weight(root, ambient_dim(lie_type, rank))


def weight_from_simple(lie_type: str, rank: int, coeffs) -> tuple[int, ...]:
    """Expand an integer combination of simple roots into coordinates."""
    coeffs = tuple(coeffs)
    if len(coeffs) != rank:
        raise DomainError(f"expected {rank} coefficients, got {len(coeffs)}")
    w = [0] * ambient_dim(lie_type, rank)
    for i, c in enumerate(coeffs, start=1):
        if c:
            for k, x in enumerate(simple_root(lie_type, rank, i)):
                w[k] += c * x
    return tuple(w)


def simple_root_coefficients(lie_type: str, rank: int, weight) -> tuple[int, ...]:
    """Invert weight_from_simple; raises if the weight is not in the root lattice."""
    weight = tuple(weight)
    n = ambient_dim(lie_type, rank)
    if len(weight) != n:
        raise DomainError(f"weight has length {len(weight)}, ambient dimension is {n}")
    prefix = []
    acc = 0
    for x in weight:
        acc += x
        prefix.append(acc)
    if lie_type == "A":
        if acc != 0:
            raise DomainError("type A weight must have coordinate sum 0")
        return tuple(prefix[:rank])
    if lie_type == "B":
        return tuple(prefix)
    # C and D need an even tail sum (the last simple root has coordinate sum 2).
    if lie_type == "C":
        if acc % 2:
            raise DomainError("type C weight must have even coordinate sum")
        coeffs = list(prefix[: rank - 1])
        coeffs.append(acc // 2)
        return tuple(coeffs)
    # D: c_{r-1} + c_r = prefix_{r-1}, c_r - c_{r-1} = weight_r.
    if (prefix[rank - 2] + weight[rank - 1]) % 2:
        raise DomainError("weight is not in the type D root lattice")
    cr = (prefix[rank - 2] + weight[rank - 1]) // 2
    coeffs = list(prefix[: rank - 2])
    coeffs.append(prefix[rank - 2] - cr)
    coeffs.append(cr)
    return tuple(coeffs)


def highest_root(lie_type: str, rank: int) -> tuple[int, ...]:
    """The highest root: e1-e_{r+1} (A), e1+e2 (B, D), 2e1 (C)."""
    n = ambient_dim(lie_type, rank)
    root = eminus(1, n) if lie_type == "A" else edouble(1) if lie_type == "C" else eplus(1, 2)
    return root_to_weight(root, n)
