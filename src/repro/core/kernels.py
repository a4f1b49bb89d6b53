"""The frontier-building DP shared by the chain-frontier engine.

:func:`build_frontiers_scalar` computes both frontier tables of the vc
engine (``core/vc.py``) in one pass over a topological order: each
node's row is the element-wise ``max`` (``min``) of its parents'
(children's) already-final rows, plus its own chain position.  Both
tables are built projected: they carry only the columns the engine's
R6/R7 queries read (one per chain holding a non-root store), and the
dropped columns are never materialised.

:data:`HAVE_NUMPY` reports whether numpy is installed, for host
descriptors that must record it.  The library itself never imports
numpy: the flag is found with :func:`importlib.util.find_spec`.
"""

from __future__ import annotations

import importlib.util
from typing import List, Sequence, Tuple

HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


def build_frontiers_scalar(
    n: int,
    order: Sequence[int],
    pred: Sequence[Sequence[int]],
    succ: Sequence[Sequence[int]],
    chain_of: Sequence[int],
    pos_of: Sequence[int],
    to_col: Sequence[int],
) -> Tuple[List[List[int]], List[List[int]]]:
    """One-pass closure DP producing both frontier tables.

    Returns ``(rows_to, rows_from)`` as row-major lists.
    ``rows_to[v][to_col[c]]`` is the highest position in chain ``c``
    reaching ``v`` (-1: none) and ``rows_from[v][to_col[c]]`` the lowest
    position in chain ``c`` reachable from ``v`` (``n + 1``: none), for
    the chains with ``to_col[c] >= 0`` only.  Both include ``v`` itself.
    Nodes are visited in topological ``order``, so every parent/child
    row is final before it is merged.  Entries are independent per
    chain, so the projected columns equal the corresponding columns of
    the full tables.
    """
    inf = n + 1
    width = sum(col >= 0 for col in to_col)
    rows_to: List[List[int]] = [None] * n  # type: ignore[list-item]
    for node in order:
        rows = [rows_to[parent] for parent in pred[node]]
        if not rows:
            vec = [-1] * width
        elif len(rows) == 1:
            vec = list(rows[0])
        else:
            vec = list(map(max, *rows))
        col = to_col[chain_of[node]]
        if col >= 0 and pos_of[node] > vec[col]:
            vec[col] = pos_of[node]
        rows_to[node] = vec
    rows_from: List[List[int]] = [None] * n  # type: ignore[list-item]
    for node in reversed(order):
        rows = [rows_from[child] for child in succ[node]]
        if not rows:
            vec = [inf] * width
        elif len(rows) == 1:
            vec = list(rows[0])
        else:
            vec = list(map(min, *rows))
        col = to_col[chain_of[node]]
        if col >= 0 and pos_of[node] < vec[col]:
            vec[col] = pos_of[node]
        rows_from[node] = vec
    return rows_to, rows_from
