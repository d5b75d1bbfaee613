"""Split of a matching's requests by the side their server lies on.

A test helper: the package itself never needs the split.
"""

from __future__ import annotations

from dataclasses import dataclass

from matchline.model import Instance, Matching


@dataclass(frozen=True)
class LRPartition:
    """Requests matched at-or-left vs strictly-right of their position."""

    left_set: frozenset
    right_set: frozenset


def classify_lr(instance: Instance, matching: Matching) -> LRPartition:
    left, right = set(), set()
    for i, j in enumerate(matching.assignment):
        if instance.servers[j] <= instance.requests[i]:
            left.add(i)
        else:
            right.add(i)
    return LRPartition(frozenset(left), frozenset(right))
