"""The reduction behind the permutation double sums.

Terms are added left to right in the order the items arrive, so the result
is the same on every run.  Zero terms are not added.
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
