"""Interactive HTML debug report (Sec. 3.4).

"When a TSO violation is detected, TSOtool emits a graphical
representation of the relevant area in the analysis graph.  The user can
click on each edge in the graph to understand the reason for its
existence, and hence follow the chain of reasoning used by TSOtool to
infer the edge."

:func:`render_html` produces a self-contained HTML page (no JavaScript,
no external assets) for a :class:`~repro.core.result.CheckResult`:

* the per-processor operation columns, with cycle members highlighted;
* the violation cycle as an ordered list of clickable edges — each
  ``<details>`` element expands to the rule that created the edge and
  its full justification;
* the surrounding edges of the relevant region, similarly expandable;
* the verdict header with the analysis statistics.

Pairs with :meth:`~repro.core.result.CheckResult.to_dot` (for Graphviz
users) and :meth:`~repro.core.result.CheckResult.dump_graph` (the plain
text form).
"""

from __future__ import annotations

import html
from typing import List, Set, Tuple

from repro.core.result import CheckResult, EdgeReason, ViolationKind

_STYLE = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       margin: 2rem; color: #1a1a1a; background: #fcfcfa; }
h1 { font-size: 1.2rem; }
h2 { font-size: 1.0rem; margin-top: 1.6rem; }
.verdict-pass { color: #0a6b2d; } .verdict-fail { color: #a31515; }
.columns { display: flex; gap: 1.5rem; flex-wrap: wrap; }
.proc { border: 1px solid #ddd; border-radius: 6px; padding: .6rem .9rem; }
.proc h3 { margin: 0 0 .4rem 0; font-size: .9rem; }
.op { padding: .05rem .3rem; white-space: nowrap; }
.cycle-node { background: #ffe3e3; border-radius: 4px; font-weight: 600; }
details { margin: .25rem 0; border-left: 3px solid #bbb; padding-left: .6rem; }
details.cycle-edge { border-left-color: #a31515; }
summary { cursor: pointer; }
.rule { display: inline-block; min-width: 3.2rem; font-weight: 700; }
.reason { margin: .3rem 0 .4rem .5rem; color: #444; }
.stats { color: #666; font-size: .85rem; }
"""


def _edge_details(
    src: str, dst: str, reason: EdgeReason, cycle: bool
) -> str:
    cls = ' class="cycle-edge"' if cycle else ""
    detail = html.escape(reason.detail or "program-order/static edge")
    return (
        f"<details{cls}><summary><span class=\"rule\">{html.escape(reason.rule)}"
        f"</span> {html.escape(src)} &le; {html.escape(dst)}</summary>"
        f"<div class=\"reason\">{detail}</div></details>"
    )


def render_html(result: CheckResult, title: str = "TSOtool analysis") -> str:
    """Render a check result as a self-contained HTML debug page.

    Passing runs get the verdict header and the operation columns;
    failing runs additionally get the clickable violation cycle and the
    relevant-region edges.

    Raises:
        ValueError: if the result carries no analysis program.
    """
    aprog = result.aprog
    if aprog is None:
        raise ValueError("result has no analysis program attached")

    cycle = list(result.violation.cycle) if result.violation else []
    cycle_set = set(cycle)
    cycle_edges: Set[Tuple[int, int]] = {
        (cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
    }

    parts: List[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
    ]
    verdict_cls = "verdict-pass" if result.ok else "verdict-fail"
    verdict = "PASS" if result.ok else "FAIL"
    parts.append(
        f"<p class='{verdict_cls}'><strong>{result.model_name} check: "
        f"{verdict}</strong></p>"
    )
    stats = result.stats
    parts.append(
        f"<p class='stats'>{stats.nodes} nodes, {stats.edges} explicit edges "
        f"({stats.static_edges} static / {stats.observed_edges} observed / "
        f"{stats.inferred_edges} inferred), {stats.iterations} fixed-point "
        f"iteration(s), engine {html.escape(result.engine)}</p>"
    )

    # Per-processor operation columns.
    parts.append("<h2>operations</h2><div class='columns'>")
    roots = [op for op in aprog.ops if op.is_root]
    if roots:
        parts.append("<div class='proc'><h3>initial values</h3>")
        for op in roots:
            parts.append(_op_div(aprog, op.id, cycle_set))
        parts.append("</div>")
    for pid, stream in enumerate(aprog.per_proc):
        parts.append(f"<div class='proc'><h3>P{pid}</h3>")
        for op_id in stream:
            parts.append(_op_div(aprog, op_id, cycle_set))
        parts.append("</div>")
    parts.append("</div>")

    if result.violation is not None:
        parts.append("<h2>violation</h2>")
        parts.append(
            f"<p>{html.escape(result.violation.message)}</p>"
        )
        if result.violation.kind == ViolationKind.CYCLE and cycle:
            parts.append(
                "<h2>the cycle — click an edge for its justification</h2>"
            )
            for i, node in enumerate(cycle):
                nxt = cycle[(i + 1) % len(cycle)]
                reason = (
                    result.violation.reasons[i]
                    if i < len(result.violation.reasons)
                    else EdgeReason("?")
                )
                parts.append(
                    _edge_details(
                        aprog.describe(node), aprog.describe(nxt), reason, True
                    )
                )

    # Relevant-region edges (the paper's "relevant area in the analysis
    # graph"): explicit edges touching a cycle node, or everything on a
    # pass (small graphs only, to keep the page readable).
    if result.graph is not None:
        graph = result.graph
        if cycle_set:
            region = dict(graph.edge_reasons(
                lambda edge: (edge[0] in cycle_set or edge[1] in cycle_set)
                and edge not in cycle_edges
            ))
            header = "other edges touching the cycle"
        elif aprog.n <= 64:
            region = dict(graph.edge_reasons())
            header = "all inferred edges"
        else:
            region, header = {}, ""
        if region:
            parts.append(f"<h2>{header}</h2>")
            for (u, v), reason in sorted(region.items()):
                parts.append(
                    _edge_details(
                        aprog.describe(u), aprog.describe(v), reason, False
                    )
                )

    parts.append("</body></html>")
    return "\n".join(parts)


def _op_div(aprog, op_id: int, cycle_set: Set[int]) -> str:
    cls = "op cycle-node" if op_id in cycle_set else "op"
    return f"<div class='{cls}'>{html.escape(aprog.describe(op_id))}</div>"
