"""The plain crown-map search, the reference for `enumerate_crown_maps`.

This is `obstruction.enumerate_crown_maps` as it was before it searched
one map per rotation class: every value of range(2n) is a candidate at
position 0, and each map found is lifted from its own base point.
"""

from reedylab.errors import SizeBudget
from reedylab.obstruction import CrownMap, CrownPoset, _lift_values
from reedylab.semilattice import MonotoneAssignments


def enumerate_crown_maps(m: int, n: int) -> list[CrownMap]:
    """All monotone maps C_m -> C_n, lexicographic on values, each lifted
    from the base point values[0]; m and n are at most 6."""
    if m > 6 or n > 6:
        raise SizeBudget("crown enumeration capped at 6")
    Cm, Cn = CrownPoset(m), CrownPoset(n)
    leq = [[Cn.leq(a, b) for b in range(Cn.size)] for a in range(Cn.size)]
    below = [[j for j in range(k) if Cm.leq(j, k)] for k in range(Cm.size)]
    above = [[j for j in range(k) if Cm.leq(k, j)] for k in range(Cm.size)]
    search = MonotoneAssignments(leq, below, above, [range(Cn.size)] * Cm.size)
    return [CrownMap(m, n, vals, _lift_values(m, n, vals, vals[0])) for vals in search]
