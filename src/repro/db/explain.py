"""EXPLAIN for TRAIN queries: render a :class:`~repro.db.plan.PhysicalPlan`.

Mirrors PostgreSQL's ``EXPLAIN``: the text is the plan the executor runs —
the same object, not a second derivation — with the physical parameters
(block count, buffer tuples, double buffering, shards) resolved against the
actual table.  Above the operator tree come the decisions that shaped it:
the WHERE access-path cost table, and for ``strategy = auto`` the advisor's
evidence (measured ``h_D``, per-candidate costs, the chosen strategy), so an
EXPLAIN shows *why* the executor will run what it runs.
"""

from __future__ import annotations

from .plan import PhysicalPlan

__all__ = ["explain_train_plan"]


def _where_lines(d: dict) -> list[str]:
    """The costed access-path table and fetch decision of a WHERE plan."""
    lines = [f"WHERE {d['predicate']}"]
    for name in sorted(d["paths"], key=lambda n: (d["paths"][n]["est_s"], n != "scan")):
        p = d["paths"][name]
        marker = "=> " if name == d["access"] else "   "
        detail = f"{p['n_candidates']} candidate tuples"
        if "n_pages" in p:
            detail += f", {p['n_pages']} pages in {p['page_runs']} run(s)"
        lines.append(f"  {marker}{name:<16} est {p['est_s'] * 1e3:.2f}ms  ({detail})")
    if d["index"] is not None:
        iv = d["interval"]
        lo = "-inf" if iv["lo"] is None else f"{iv['lo']:g}"
        hi = "+inf" if iv["hi"] is None else f"{iv['hi']:g}"
        lob = "[" if iv["lo_inclusive"] else "("
        hib = "]" if iv["hi_inclusive"] else ")"
        lines.append(
            f"  index: {d['index']} on {d['index_column']}  (range {lob}{lo}, {hi}{hib})"
        )
    else:
        lines.append("  index: none (no usable range on an indexed column)")
    lines.append(
        f"  matched: {d['n_matching']} / {d['n_tuples']} tuples "
        f"({100 * d['selectivity']:.1f}% selectivity), "
        f"{d['n_qualifying_pages']} of {d['n_heap_pages']} pages "
        f"in {d['page_runs']} run(s)"
    )
    lines.append(
        f"  fetch path: index-ordered block fetch {d['est_index_s'] * 1e3:.2f}ms "
        f"vs full scan {d['est_scan_s'] * 1e3:.2f}ms per epoch "
        f"-> {d['fetch']}"
    )
    return lines


def explain_train_plan(plan: PhysicalPlan) -> str:
    """``plan`` as EXPLAIN text: decisions first, then the operator tree."""
    lines = _where_lines(plan.where) if plan.where is not None else []
    if plan.advisor is not None:
        lines += plan.advisor.render().split("\n")
        if plan.advisor_note:
            lines.append(f"  ({plan.advisor_note})")
    for depth, node in enumerate(plan.tree.chain()):
        indent = "  " * depth
        arrow = "-> " if depth else ""
        lines.append(f"{indent}{arrow}{node.op}" + (f"  ({node.detail})" if node.detail else ""))
        lines += [f"{indent}     {note}" for note in node.notes]
    if plan.setup_note:
        lines.append(f"  [setup: {plan.setup_note}]")
    return "\n".join(lines)
