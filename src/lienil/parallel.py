"""The reduction behind the permutation double sums.

``dets._subset_sum`` builds the sdet on t >= 2 rows and columns as one such
sum: its t^2 items are the (row, column) choices of the last position, and
a term is a sum on one row fewer times an entry, or nothing when either is
zero.  Terms are added left to right in the order the items arrive, so the
result is the same on every run.  Zero terms are not added.
"""

from __future__ import annotations


def map_reduce_sum(items, term, zero):
    """sum(term(x) for x in items), added left to right starting from zero.
    A zero term is skipped; the nonzero ones are added in their order."""
    acc = zero
    for x in items:
        value = term(x)
        if value:
            acc = acc + value
    return acc
