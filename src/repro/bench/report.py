"""ASCII reporting: the tables and series the paper's figures show.

Benchmarks print these so a run of ``python -m repro.bench fig07`` produces
the same rows/columns as the paper's Figure 7 — message sizes down the
side, algorithms across the top, latency in microseconds in the cells.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

__all__ = ["format_bytes", "format_us", "sweep_summary", "Table", "Series"]


def format_bytes(n: int) -> str:
    """1024 -> '1K', 4194304 -> '4M' (the paper's x-axis labels)."""
    for unit, div in (("G", 1 << 30), ("M", 1 << 20), ("K", 1 << 10)):
        if n >= div and n % div == 0:
            return f"{n // div}{unit}"
        if n >= div:
            return f"{n / div:.1f}{unit}"
    return str(n)


def _format_count(n: int) -> str:
    """12_345_678 -> '12.3M' (compact event counts for the sweep line)."""
    if n >= 10_000_000:
        return f"{n / 1_000_000:.0f}M"
    if n >= 1_000_000:
        return f"{n / 1_000_000:.1f}M"
    if n >= 10_000:
        return f"{n / 1000:.0f}k"
    return str(n)


def sweep_summary(stats) -> str:
    """One-line execution summary for a sweep (duck-typed
    :class:`~repro.exec.context.SweepStats`): how many points actually ran
    vs. came from the cache, on how many workers, and what the run points
    cost in simulator events / compute wall time, and how many cache
    entries were published in how many group commits.  When the stats carry a
    per-kind breakdown (``by_kind``), each kind's run/hit counts are
    appended, so a table-compile run's cache misses can't hide inside a
    figure sweep's aggregate hit count."""
    line = (
        f"[sweep: {stats.points_total} points, {stats.points_run} run, "
        f"{stats.cache_hits} cache hits, {stats.workers} worker(s), "
        f"{stats.wall_s:.1f}s"
    )
    sim_events = getattr(stats, "sim_events", 0)
    if sim_events:
        line += (
            f"; {_format_count(sim_events)} sim events "
            f"in {stats.run_wall_s:.1f}s"
        )
    sched_chunks = getattr(stats, "sched_chunks", 0)
    if sched_chunks:
        sched_points = getattr(stats, "sched_points", 0) or 0
        mean = sched_points / sched_chunks
        line += f"; sched: {sched_chunks} chunks (mean {mean:.1f} pts)"
        fallbacks = getattr(stats, "sched_fallbacks", 0)
        if fallbacks:
            line += f", {fallbacks} fallback pts"
    flushes = getattr(stats, "cache_flushes", 0)
    if flushes:
        line += (
            f"; cache: {getattr(stats, 'cache_puts', 0)} puts "
            f"in {flushes} flushes"
        )
    quarantined = getattr(stats, "cache_quarantined", 0)
    if quarantined:
        line += f"; {quarantined} quarantined"
    resilience = []
    respawns = getattr(stats, "sched_respawns", 0)
    if respawns:
        resilience.append(f"{respawns} respawns")
    hung = getattr(stats, "sched_hung_kills", 0)
    if hung:
        resilience.append(f"{hung} hung-killed")
    broken = getattr(stats, "sched_broken", "")
    if broken:
        # later sweeps in the context run in a plain in-process loop
        resilience.append(f"pool broken ({broken})")
    if resilience:
        line += "; resilience: " + "/".join(resilience)
    by_kind = getattr(stats, "by_kind", None)
    if by_kind:
        parts = [
            f"{kind} {run} run/{hits} hit"
            for kind, (_total, run, hits) in sorted(by_kind.items())
        ]
        line += "; " + ", ".join(parts)
    return line + "]"


def format_us(t: float) -> str:
    if t >= 100_000:
        return f"{t / 1000:.0f}ms"
    if t >= 1000:
        return f"{t:.0f}"
    if t >= 10:
        return f"{t:.1f}"
    return f"{t:.2f}"


class Table:
    """A simple aligned table with a title."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add(self, *cells: Any) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class Series(Table):
    """A figure-like table: x values (message sizes) vs named series."""

    def __init__(self, title: str, xlabel: str, names: Sequence[str]):
        super().__init__(title, [xlabel, *names])
        self.names = list(names)

    def add_point(self, x: int, values: dict[str, float]) -> None:
        self.add(
            format_bytes(x),
            *(format_us(values[n]) if n in values else "-" for n in self.names),
        )

    def add_raw_point(self, xlabel: str, values: dict[str, float]) -> None:
        self.add(
            xlabel,
            *(format_us(values[n]) if n in values else "-" for n in self.names),
        )
