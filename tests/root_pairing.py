"""Slow reference for ``all_root_values``: one dot product per root.

It pairs every positive root of ``build_root_system`` with the factor's
simple-root values, in the layout of ``all_root_values``: factor by factor,
each positive value followed by its negative.  The classical fast path and
the packed strata factor tables are both checked against it.
"""

import operator

from cohiggs import build_root_system
from cohiggs.lie import check_shapes


def per_root_values(group, hn):
    check_shapes(group, hn)
    out = []
    for ct, vec in zip(group.simple_factors, hn.simple_values):
        for root in build_root_system(ct):
            v = sum(map(operator.mul, root, vec))
            out += (v, -v)
    return out
