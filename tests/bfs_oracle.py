"""Exhaustive breadth-first closure: the reference for the group-order oracle.

This is the group-order search the library used before orbit-stabiliser.
It enumerates every element of the generated group, with field tables
built from FFElement arithmetic, so it shares no code with
veechfib.covers.group_closure_order beyond the field and matrix specs.
It costs O(|G|) time and memory and only serves tests at small q.
"""

from collections import deque

from finitefield_reference import element_from_index

from veechfib.covers import DEFAULT_CLOSURE_CAP
from veechfib.errors import CapExceededError


def bfs_closure_order(spec, cap=DEFAULT_CLOSURE_CAP):
    """Exact order of the generated matrix group by exhaustive closure.

    Elements are packed into integers via base-q digit encoding and
    multiplied through precomputed field tables, so the search is a
    plain BFS over ints.  Raises CapExceededError when the closure
    outgrows cap, or up front when even the ambient group does: the
    oracle requires |SL(2, q)| = q(q^2 - 1) <= cap.
    """
    field = spec.field
    q = field.order
    if q * (q * q - 1) > cap:
        raise CapExceededError(
            f"|SL(2,{q})| = {q * (q * q - 1)} exceeds cap = {cap}; "
            "raise the cap to search this field"
        )
    mul, add = _field_tables(field)
    idx = field.element_index
    gens = [
        (idx(m[0][0]), idx(m[0][1]), idx(m[1][0]), idx(m[1][1])) for m in spec.generators
    ]
    one, zero = 1, 0  # indices: element_index maps 1 -> 1, 0 -> 0
    identity = (one, zero, zero, one)
    seen = {identity}
    queue = deque([identity])
    while queue:
        a, b, c, d = queue.popleft()
        for e, f, g, h in gens:
            nxt = (
                add[mul[a][e]][mul[b][g]],
                add[mul[a][f]][mul[b][h]],
                add[mul[c][e]][mul[d][g]],
                add[mul[c][f]][mul[d][h]],
            )
            if nxt not in seen:
                if len(seen) >= cap:
                    raise CapExceededError(f"group closure exceeded cap = {cap}")
                seen.add(nxt)
                queue.append(nxt)
    return len(seen)


def _field_tables(field):
    q = field.order
    elements = [element_from_index(field, i) for i in range(q)]
    mul = [[0] * q for _ in range(q)]
    add = [[0] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            m = field.element_index(elements[i] * elements[j])
            s = field.element_index(elements[i] + elements[j])
            mul[i][j] = mul[j][i] = m
            add[i][j] = add[j][i] = s
    return mul, add
