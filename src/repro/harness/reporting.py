"""Paper-vs-measured report tables printed by every benchmark."""

from __future__ import annotations

from dataclasses import dataclass, field


def format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Render a plain-text table with aligned columns."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3g}"
    return str(value)


@dataclass
class Comparison:
    """Collects (label, paper value, measured value) rows for one figure."""

    title: str
    unit: str
    rows: list[tuple] = field(default_factory=list)

    def add(self, label: str, paper, measured, note: str = "") -> None:
        self.rows.append((label, paper, measured, note))

    def ratio_rows(self) -> list[list]:
        out = []
        for label, paper, measured, note in self.rows:
            if (
                isinstance(paper, (int, float))
                and isinstance(measured, (int, float))
                and paper
            ):
                ratio = measured / paper
                out.append([label, paper, measured, f"{ratio:.2f}x", note])
            else:
                out.append([label, paper, measured, "-", note])
        return out

    def render(self) -> str:
        return format_table(
            ["case", f"paper [{self.unit}]", f"measured [{self.unit}]",
             "measured/paper", "note"],
            self.ratio_rows(),
            title=self.title,
        )

    def max_abs_log_ratio(self) -> float:
        """max |log2(measured/paper)| over numeric rows — a shape metric."""
        import math

        worst = 0.0
        for _label, paper, measured, _note in self.rows:
            if (
                isinstance(paper, (int, float))
                and isinstance(measured, (int, float))
                and paper > 0
                and measured > 0
            ):
                worst = max(worst, abs(math.log2(measured / paper)))
        return worst

    def print(self) -> None:  # pragma: no cover - console convenience
        print()
        print(self.render())
        print()


def planner_summary(stats) -> str:
    """One-line supply-schedule plane summary for benchmark reports.

    Takes an aggregate :class:`~repro.simulation.stats.PlannerStats`
    (e.g. from ``collect_planner_stats``) and renders the planning,
    replication and fast-forward counters in one scannable line.
    """
    return (
        f"planner: hit {stats.hit_rate:.2f} "
        f"meanwin {stats.mean_window:.1f}cy "
        f"coplans {stats.coplans:,} | replication: "
        f"{stats.replications:,} trains x {stats.mean_train_rounds:.2f} "
        f"rounds (hit {stats.replication_hit_rate:.2f})"
        + (
            # A zero-attempt run explains itself: who was never asked.
            f" | planner stayed out: {stats.cks_off_route} of {stats.cks} "
            f"CKs off-route, live for {stats.live_spans} lane spans"
            if stats.cks and not stats.attempts else ""
        )
        + (
            f" | macro: {stats.ff_jumps:,} jumps x "
            f"{stats.mean_ff_chain_len:.1f} relay sessions over "
            f"{stats.ff_cycles:,}cy"
            if stats.ff_cycles else ""
        )
        + (
            # A plane that probes without arming is just as silent in
            # the ff counters: say which precondition kept failing.
            f" | macro: probing, {stats.ff_miss_reason} "
            f"({stats.ff_misses:,} trains)"
            if stats.ff_misses and not stats.ff_jumps else ""
        )
    )


def fabric_summary(transport, topology) -> str:
    """One-line summary of the hardware a (sequential) build instantiated:
    the reached ranks (:func:`repro.transport.builder.reached_ranks`),
    their transport processes (CKS / CKR / support kernels) and FIFOs
    (endpoints, inter-CK connections, collective streams, links)."""
    ranks = transport.ranks.values()
    processes = sum(len(rt.cks) + len(rt.ckr) + len(rt.support_kernels)
                    for rt in ranks)
    fifos = len(transport.fabric.links()) + sum(
        len(rt.send_endpoints) + len(rt.recv_endpoints)
        + 3 * len(rt.support_kernels)
        + sum(1 + len(ck.to_other_cks) for ck in rt.cks.values())
        + sum(1 + len(ck.to_other_ckr) for ck in rt.ckr.values())
        for rt in ranks)
    built = len(transport.ranks)
    return (f"built {built} of {topology.num_ranks} ranks — {processes} "
            f"processes, {fifos} FIFOs; {topology.num_ranks - built} ranks "
            "reached by no declared flow")
