"""The frontier-building DP shared by the chain-frontier engine.

:func:`build_frontiers_scalar` computes both frontier tables of the vc
engine (``core/vc.py``) in one pass over a topological order: each
node's entries are the element-wise ``max`` (``min``) of its parents'
(children's) already-final entries, plus its own chain position.  Both
tables are column-major and projected: one list per chain the engine's
R6/R7 queries read (one per chain holding a non-root store), each with
one entry per node; the dropped columns are never materialised.

:data:`HAVE_NUMPY` reports whether numpy is installed, for host
descriptors that must record it.  The library itself never imports
numpy: the flag is found with :func:`importlib.util.find_spec`.
"""

from __future__ import annotations

import importlib.util
from typing import Callable, Dict, List, Sequence, Tuple

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

    Returns ``(cols_to, cols_from)``, one list per column chain, each
    indexed by node.  ``cols_to[to_col[c]][v]`` is the highest position
    in chain ``c`` reaching ``v`` (-1: none) and
    ``cols_from[to_col[c]][v]`` the lowest position in chain ``c``
    reachable from ``v`` (``n + 1``: none), for the chains with
    ``to_col[c] >= 0`` only.  Both include ``v`` itself.  Entries are
    independent per chain, so the projected columns equal the
    corresponding columns of the full tables.
    """
    width = sum(col >= 0 for col in to_col)
    cols_to = _sweep(order, pred, succ, chain_of, pos_of, to_col, width, -1, max)
    cols_from = _sweep(
        order[::-1], succ, pred, chain_of, pos_of, to_col, width, n + 1, min
    )
    return cols_to, cols_from


def _sweep(
    order: Sequence[int],
    sources: Sequence[Sequence[int]],
    readers: Sequence[Sequence[int]],
    chain_of: Sequence[int],
    pos_of: Sequence[int],
    to_col: Sequence[int],
    width: int,
    empty: int,
    better: Callable[[int, int], int],
) -> List[List[int]]:
    """One direction of the DP: each node in ``order`` merges the rows
    of its ``sources`` (all earlier in ``order``) with ``better``.

    A node's row is copied into the columns at once and kept only until
    its last reader (``readers[node]``) has merged it, so the sweep
    holds the rows of the nodes still to be read, never a full table.
    """
    columns = [[empty] * len(order) for _ in range(width)]
    rows: Dict[int, List[int]] = {}
    unread = [len(nodes) for nodes in readers]
    for node in order:
        merged = []
        for source in sources[node]:
            unread[source] -= 1
            merged.append(rows[source] if unread[source] else rows.pop(source))
        if not merged:
            vec = [empty] * width
        elif len(merged) == 1:
            vec = list(merged[0])
        else:
            vec = list(map(better, *merged))
        col = to_col[chain_of[node]]
        if col >= 0:
            vec[col] = better(vec[col], pos_of[node])
        for column, entry in zip(columns, vec):
            column[node] = entry
        if unread[node]:
            rows[node] = vec
    return columns
