"""The analysis constraint graph (Sec. 4).

Nodes are word-sized memory operations; a directed edge ``u -> v`` records
the inferred relation ``u <= v`` in the global memory order.  Since ``<=``
is transitive, any *path* implies the relation; a *cycle* implies the
relations cannot form a valid order — a memory-model violation.

Atomic groups are modelled exactly as the paper describes: "incoming edges
incident to any node in the set [are forced] to point to its first node;
outgoing edges from any node in the set similarly leave from its last
node."  :meth:`ConstraintGraph.add_edge` performs that redirection, except
for edges internal to a single group (the ``L <= S`` chain of a swap).

The adjacency lists are the graph's one edge index: :meth:`has_edge`
tests the shorter of ``succ[u]`` and ``pred[v]``.  Every explicit edge
also carries a reason (Sec. 3.4), but only a witness or a graph dump
reads one, so an edge is appended to one insertion-ordered columnar log
(``array('i')`` columns for its endpoints and up to three node ids, and
a small :mod:`repro.core.reasons` code) and its
:class:`~repro.core.result.EdgeReason` is built when it is read, by
:meth:`ConstraintGraph.edge_reasons`.  ``graph.reasons`` is a read-only
mapping over that log.
"""

from __future__ import annotations

from array import array
from collections.abc import ItemsView, Mapping, ValuesView
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.reasons import GIVEN, NODE_IDS, decode
from repro.core.result import EdgeReason
from repro.model.expansion import AnalysisProgram

Edge = Tuple[int, int]


class CycleDetected(Exception):
    """Raised internally when an added edge immediately closes a cycle.

    Carries the offending edge; the checker turns it into a
    :class:`~repro.core.result.Violation` with a full cycle witness.
    """

    def __init__(self, u: int, v: int) -> None:
        super().__init__(f"edge {u}->{v} closes a cycle")
        self.u = u
        self.v = v


class ConstraintGraph:
    """Adjacency-list constraint graph with atomic-group redirection and
    a columnar log of its edges."""

    def __init__(self, aprog: AnalysisProgram) -> None:
        self.aprog = aprog
        self.n = 0
        self.succ: List[List[int]] = []
        self.pred: List[List[int]] = []
        # Redirection tables: _group[i] is node i's atomic group (-1 if
        # none), _red_src[i]/_red_dst[i] its group-last/group-first.
        # redirect() is called once per prospective edge — several per
        # node per round — so three list reads beat the op/group dict
        # walk it would otherwise repeat millions of times.
        self._group: List[int] = []
        self._red_src: List[int] = []
        self._red_dst: List[int] = []
        # The edge log, one entry per edge in insertion order: its
        # endpoints and reason code, and in _log_ids the NODE_IDS[code]
        # node ids its reason reads (a scan of the log finds each
        # edge's ids by counting).  A GIVEN reason is kept in _given
        # under its index.
        self._log_u = array("i")
        self._log_v = array("i")
        self._log_code = array("b")
        self._log_ids = array("i")
        self._given: Dict[int, EdgeReason] = {}
        self.grow()

    def grow(self) -> None:
        """Extend adjacency storage to cover ops appended to the program.

        Fills the tables for every op not yet covered in one bulk pass:
        the constructor covers the whole program this way, which is all
        a batch engine needs.  The streaming checker feeds a *live*
        ``AnalysisProgram`` whose op list grows as the simulator emits
        records, and calls this after each append.  A newly appended op
        extends its atomic group, moving the group's last node — the
        redirection table is reset for every member of each group the
        new ops belong to.
        """
        aprog = self.aprog
        start, n = self.n, aprog.n
        if start >= n:
            return
        ops = aprog.ops
        succ, pred = self.succ, self.pred
        group_of, red_src, red_dst = self._group, self._red_src, self._red_dst
        touched = set()
        for i in range(start, n):
            succ.append([])
            pred.append([])
            red_src.append(i)
            red_dst.append(i)
            group = ops[i].group
            group_of.append(group)
            if group != -1:
                touched.add(group)
        for group in touched:
            members = aprog.groups[group]
            first, last = members[0], members[-1]
            for member in members:
                red_src[member] = last
                red_dst[member] = first
        self.n = n

    @property
    def edge_count(self) -> int:
        """Explicit edges in the graph."""
        return len(self._log_code)

    @property
    def reasons(self) -> "EdgeReasons":
        """Read-only ``(u, v) -> reason`` mapping over the edge log, in
        insertion order."""
        return EdgeReasons(self)

    def redirect(self, u: int, v: int) -> Tuple[int, int]:
        """Apply atomic-group redirection to a prospective edge ``u -> v``.

        Returns the effective ``(source, destination)`` pair: outgoing
        edges leave from the group's last node, incoming edges land on the
        group's first node.  Edges within one group are left untouched.
        """
        gu = self._group[u]
        if gu != -1 and gu == self._group[v]:
            return u, v
        return self._red_src[u], self._red_dst[v]

    def has_edge(self, u: int, v: int) -> bool:
        """True if the explicit (non-transitive) edge ``u -> v`` exists."""
        out = self.succ[u]
        into = self.pred[v]
        return v in out if len(out) <= len(into) else u in into

    def add_edge(
        self, u: int, v: int, reason: Union[int, EdgeReason],
        a: int = -1, b: int = -1, c: int = -1,
    ) -> bool:
        """Add ``u -> v`` (after redirection); return True if it is new.

        ``reason`` is a :mod:`repro.core.reasons` code with its node ids
        ``a, b, c``, or any :class:`EdgeReason`, which is kept as given.

        Raises:
            CycleDetected: if the redirected edge is a self-loop, which is
                an immediate one-node cycle.
        """
        # redirect(), inlined: this is the guaranteed phase's per-edge
        # path, and the call and its tuple would show up there.
        gu = self._group[u]
        if gu == -1 or gu != self._group[v]:
            u = self._red_src[u]
            v = self._red_dst[v]
        if u == v:
            raise CycleDetected(u, v)
        # has_edge(), inlined for the same reason.
        out = self.succ[u]
        into = self.pred[v]
        if v in out if len(out) <= len(into) else u in into:
            return False
        self.append(u, v, reason, a, b, c)
        return True

    def append(
        self, u: int, v: int, reason: Union[int, EdgeReason],
        a: int = -1, b: int = -1, c: int = -1,
    ) -> None:
        """Log the redirected edge ``u -> v``, which the caller knows is
        new (the incremental engines test :meth:`has_edge` first)."""
        if reason.__class__ is not int:
            self._given[len(self._log_code)] = reason
            reason = GIVEN
        self._log_u.append(u)
        self._log_v.append(v)
        self._log_code.append(reason)
        count = NODE_IDS[reason]
        if count:
            ids = self._log_ids
            ids.append(a)
            ids.append(b)
            if count == 3:
                ids.append(c)
        self.succ[u].append(v)
        self.pred[v].append(u)

    def edge_reasons(
        self, keep: Optional[Callable[[Edge], bool]] = None
    ) -> Iterator[Tuple[Edge, EdgeReason]]:
        """``((u, v), reason)`` for every logged edge in insertion order,
        or for the edges ``keep`` accepts, in one scan of the log.

        Every reader of reasons goes through here, and a reason is built
        only for an edge this yields: a witness asks for its cycle's
        edges in one scan rather than one lookup per edge.
        """
        aprog = self.aprog
        codes = self._log_code
        ids = self._log_ids
        given = self._given
        end = 0
        for i, edge in enumerate(zip(self._log_u, self._log_v)):
            code = codes[i]
            start = end
            end += NODE_IDS[code]
            if keep is not None and not keep(edge):
                continue
            if code == GIVEN:
                yield edge, given[i]
            else:
                yield edge, decode(aprog, code, *ids[start:end])

    def reason_of(self, u: int, v: int) -> EdgeReason:
        """The reason recorded for explicit edge ``u -> v``."""
        return self.reasons[(u, v)]

    # ------------------------------------------------------------------
    # Cycle detection / witness extraction
    # ------------------------------------------------------------------

    def find_cycle(self) -> Optional[List[int]]:
        """Find any cycle; return its node sequence or ``None`` if acyclic.

        Iterative three-colour DFS (white/grey/black); a back edge to a
        grey node closes a cycle, which is read off the DFS stack.
        """
        WHITE, GREY, BLACK = 0, 1, 2
        color = [WHITE] * self.n
        for start in range(self.n):
            if color[start] != WHITE:
                continue
            # stack holds (node, iterator position)
            stack: List[Tuple[int, int]] = [(start, 0)]
            color[start] = GREY
            path = [start]
            while stack:
                node, idx = stack[-1]
                if idx < len(self.succ[node]):
                    stack[-1] = (node, idx + 1)
                    child = self.succ[node][idx]
                    if color[child] == GREY:
                        at = path.index(child)
                        return path[at:]
                    if color[child] == WHITE:
                        color[child] = GREY
                        stack.append((child, 0))
                        path.append(child)
                else:
                    color[node] = BLACK
                    stack.pop()
                    path.pop()
        return None

    def shortest_path(self, src: int, dst: int) -> Optional[List[int]]:
        """BFS shortest path from ``src`` to ``dst`` over explicit edges."""
        if src == dst:
            return [src]
        parent = {src: -1}
        frontier = [src]
        while frontier:
            nxt = []
            for node in frontier:
                for child in self.succ[node]:
                    if child in parent:
                        continue
                    parent[child] = node
                    if child == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(parent[path[-1]])
                        path.reverse()
                        return path
                    nxt.append(child)
            frontier = nxt
        return None

    def cycle_through_edge(self, u: int, v: int) -> List[int]:
        """A cycle witness containing edge ``u -> v`` (which closes it).

        Used when an engine detects, while adding ``u -> v``, that ``u``
        was already reachable from ``v``: the witness is the explicit path
        ``v ~> u`` plus the new edge.
        """
        if u == v:
            return [u]
        path = self.shortest_path(v, u)
        if path is None:
            raise ValueError(f"no path {v} ~> {u}; edge {u}->{v} closes no cycle")
        return path

    def cycle_reasons(self, cycle: List[int]) -> List[EdgeReason]:
        """Per-edge reasons around a cycle (``cycle[i] -> cycle[i+1]``)."""
        edges = [
            (node, cycle[(i + 1) % len(cycle)]) for i, node in enumerate(cycle)
        ]
        found = dict(self.edge_reasons(set(edges).__contains__))
        missing = EdgeReason("?", "edge of cycle")
        return [found.get(edge, missing) for edge in edges]


class EdgeReasons(Mapping):
    """``graph.reasons``: a read-only ``(u, v) -> reason`` mapping over a
    graph's edge log, in insertion order.

    Membership is :meth:`ConstraintGraph.has_edge`; ``items()`` and
    ``values()`` are one scan of the log, and ``[]`` is one scan per
    lookup (copy a large graph with ``dict(reasons.items())``, not
    ``dict(reasons)``).  Reasons are built on read.
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: ConstraintGraph) -> None:
        self._graph = graph

    def __len__(self) -> int:
        return self._graph.edge_count

    def __iter__(self) -> Iterator[Edge]:
        graph = self._graph
        return zip(graph._log_u, graph._log_v)

    def __contains__(self, edge: object) -> bool:
        try:
            u, v = edge  # type: ignore[misc]
            return self._graph.has_edge(u, v)
        except (TypeError, ValueError, IndexError):
            return False

    def __getitem__(self, edge: Edge) -> EdgeReason:
        if edge in self:
            for _, reason in self._graph.edge_reasons({edge}.__contains__):
                return reason
        raise KeyError(edge)

    def items(self) -> ItemsView:
        return _LogItems(self)

    def values(self) -> ValuesView:
        return _LogValues(self)


class _LogItems(ItemsView):
    def __iter__(self):
        return self._mapping._graph.edge_reasons()


class _LogValues(ValuesView):
    def __iter__(self):
        return (reason for _, reason in self._mapping._graph.edge_reasons())


def topological_order(graph: ConstraintGraph) -> Optional[List[int]]:
    """Kahn's algorithm; ``None`` if the graph has a cycle."""
    indeg = [0] * graph.n
    for node in range(graph.n):
        for child in graph.succ[node]:
            indeg[child] += 1
    frontier = [node for node in range(graph.n) if indeg[node] == 0]
    order: List[int] = []
    while frontier:
        node = frontier.pop()
        order.append(node)
        for child in graph.succ[node]:
            indeg[child] -= 1
            if indeg[child] == 0:
                frontier.append(child)
    return order if len(order) == graph.n else None


def compute_closure(
    graph: ConstraintGraph, order: List[int]
) -> Tuple[List[int], List[int]]:
    """From-scratch transitive closure by dynamic programming over a
    topological ``order``: ``(reach_from, reach_to)``, one int bitset
    per node, both including the node itself."""
    n = graph.n
    reach_from = [0] * n
    reach_to = [0] * n
    for node in reversed(order):
        mask = 1 << node
        for child in graph.succ[node]:
            mask |= reach_from[child]
        reach_from[node] = mask
    for node in order:
        mask = 1 << node
        for parent in graph.pred[node]:
            mask |= reach_to[parent]
        reach_to[node] = mask
    return reach_from, reach_to
