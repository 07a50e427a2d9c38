"""Every engine call frees its working state when it returns.

A nested function that calls itself refers to its own closure cell, so
unless the cycle is broken, its memo, scaffolding and intermediate lists
outlive the call as cyclic garbage that only the cycle collector frees.
Each entry point here is warmed once (so per-process caches are filled),
then called with automatic collection off; a collection afterwards must
find nothing unreachable.
"""

import gc

import pytest

from kjuggle.bcd import BcdState, enumerate_bcd_sequences, schmidt_bincer_count
from kjuggle.bijection import verify_correspondence
from kjuggle.closedforms import _lidskii_table, ehrhart_fit, lidskii_count
from kjuggle.juggling import count_sequences, enumerate_labeled_sequences, enumerate_sequences
from kjuggle.kostant import (count_capacity_restricted, count_partitions, count_weighted,
                             enumerate_partitions)
from kjuggle.poset import build_poset, characteristic_polynomial
from kjuggle.roots import positive_roots


def _cold_lidskii():
    _lidskii_table.cache_clear()  # the table's walk runs only on a cold cache
    return lidskii_count((2, 1, 1, 0, -4))


A4 = positive_roots("A", 4)

CALLS = {
    "count_partitions": lambda: count_partitions((2, 1, 0, -1, -2), A4),
    "count_weighted": lambda: count_weighted({(1, 0, -1, 0, 0): 2, (2, 0, 0, 0, -2): 1}, A4),
    "count_capacity_restricted": lambda: count_capacity_restricted((2, 1, 0, -1, -2), A4,
                                                                   (1, 1), 2),
    "enumerate_partitions": lambda: enumerate_partitions((2, 1, 0, -1, -2), A4),
    "enumerate_partitions_B": lambda: enumerate_partitions((2, 1, 0, 1), positive_roots("B", 4)),
    "count_sequences": lambda: count_sequences((2,), (2,), 5),
    "enumerate_sequences": lambda: enumerate_sequences((2,), (2,), 5),
    "enumerate_labeled_sequences": lambda: enumerate_labeled_sequences(
        ((1, 0), (0, 1)), ((1, 0), (0, 1)), 3),
    "verify_correspondence": lambda: verify_correspondence((2, 0, 1, -1, -2)),
    "schmidt_bincer_count": lambda: schmidt_bincer_count("B", 5, (2, 1, 1, 0, 0)),
    "enumerate_bcd_sequences": lambda: enumerate_bcd_sequences("C", BcdState((2, 1), ()), 4),
    "build_poset+characteristic_polynomial": lambda: characteristic_polynomial(
        build_poset((1,), (1,), 6, 1)),
    "lidskii_count_cold": _cold_lidskii,
    "ehrhart_fit": lambda: ehrhart_fit((1, 0, 0, -1)),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_call_leaves_no_cyclic_garbage(name):
    call = CALLS[name]
    call()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
