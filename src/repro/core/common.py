"""Shared helpers for the collective algorithms."""

from __future__ import annotations

import math
from typing import Callable, Generator, Optional, Sequence

__all__ = [
    "displacements",
    "Blocks",
    "blocks_of",
    "throttled_chain",
    "nonroot_order",
    "is_power_of_two",
    "chunk_partition",
    "rd_held_blocks",
    "knomial_parent_children",
]


def nonroot_order(size: int, root: int) -> list[int]:
    """Non-root ranks in the canonical order used by throttled chains."""
    return [r for r in range(size) if r != root]


def displacements(counts: Sequence[int]) -> list[int]:
    """Dense prefix-sum displacements for a counts vector."""
    out, pos = [], 0
    for c in counts:
        if c < 0:
            raise ValueError(f"negative count {c}")
        out.append(pos)
        pos += c
    return out


class Blocks:
    """Where each rank's block sits in a packed buffer.

    Uniform by default: rank r's block is ``eta`` bytes at ``r * eta``, and
    nothing is kept per rank.  ``counts`` gives the block sizes instead,
    packed densely: a vector (Scatterv/Gatherv) or a p x p matrix whose
    row s is what rank s sends (Alltoallv).  Their prefix sums are taken
    once, here: the runner builds one instance per point and hands it to
    every rank as ``ctx.extras["blocks"]``.
    """

    __slots__ = ("eta", "counts", "displs", "recv_displs")

    def __init__(self, eta: int, counts: Optional[Sequence] = None):
        self.eta = eta
        self.counts = counts
        self.displs = self.recv_displs = None
        if counts is None:
            return
        if isinstance(counts[0], (list, tuple)):
            self.displs = [displacements(row) for row in counts]
            self.recv_displs = [displacements(col) for col in zip(*counts)]
        else:
            self.displs = displacements(counts)

    @classmethod
    def of(cls, spec) -> "Blocks":
        """The layout of a :class:`~repro.core.runner.CollectiveSpec` (or of
        a stand-in without ``counts``: uniform)."""
        return cls(spec.eta, getattr(spec, "counts", None))

    def __call__(self, r: int) -> tuple[int, int]:
        """``(nbytes, offset)`` of rank r's block (vector layouts)."""
        if self.counts is None:
            return self.eta, r * self.eta
        return self.counts[r], self.displs[r]

    def pair(self, s: int, d: int) -> tuple[int, int, int]:
        """``(nbytes, offset in s's sendbuf, offset in d's recvbuf)`` of the
        block rank s sends rank d (matrix layouts)."""
        if self.counts is None:
            return self.eta, d * self.eta, s * self.eta
        return self.counts[s][d], self.displs[s][d], self.recv_displs[d][s]


def blocks_of(ctx) -> Blocks:
    """The block layout of the point ``ctx`` runs: the runner's, else (for
    ranks spawned without one) the uniform layout of ``ctx.eta``."""
    return ctx.extras.get("blocks") or Blocks(ctx.eta)


def throttled_chain(
    ctx, k: int, name: str, op, move: Callable[[int], Generator]
) -> Generator:
    """The k-wave token chain of Section IV-A3, from this rank's side.

    The non-roots, in :func:`nonroot_order`, move their blocks at most
    ``k`` at a time.  Position ``i`` waits for a token from position
    ``i - k`` (the first ``k`` start at once), runs ``move(i)``, passes the
    token on to position ``i + k`` and, if it is in the last wave, acks the
    root.  The root posts the ``min(k, p-1)`` receives from the last wave
    in position order: one ack from the last mover would not cover its
    k-1 concurrent peers.  So there are ceil((p-1)/k) waves, each with
    contention gamma(k), and no barrier.
    """
    nmove = ctx.size - 1
    fin = (name + "-fin", op)

    def rank_at(pos: int) -> int:  # nonroot_order(size, root)[pos]
        return pos + (pos >= ctx.root)

    if ctx.is_root:
        for pos in range(max(0, nmove - k), nmove):
            yield ctx.ctrl_recv(rank_at(pos), fin)
        return
    tok = (name + "-tok", op)
    pos = ctx.rank - (ctx.rank > ctx.root)
    if pos - k >= 0:
        yield ctx.ctrl_recv(rank_at(pos - k), tok)
    yield from move(pos)
    if pos + k < nmove:
        yield ctx.ctrl_send(rank_at(pos + k), tok)
    if pos >= nmove - k:
        yield ctx.ctrl_send(ctx.root, fin)


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def chunk_partition(nbytes: int, parts: int) -> list[tuple[int, int]]:
    """Split ``nbytes`` into ``parts`` (offset, length) chunks.

    The remainder spreads over the first chunks, so sizes differ by at most
    one byte — the scatter-allgather Bcast partition (which the paper notes
    is not page aligned for non-power-of-two p, costing a little extra).
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    base, rem = divmod(nbytes, parts)
    out = []
    off = 0
    for i in range(parts):
        ln = base + (1 if i < rem else 0)
        out.append((off, ln))
        off += ln
    return out


def rd_held_blocks(rank: int, step: int, m: int, rem: int) -> list[int]:
    """Blocks held by ``rank`` (< m) after ``step`` recursive-doubling steps.

    ``m`` is the largest power of two <= p and ``rem = p - m``.  Before step
    0, rank q holds {q} plus {q+m} if q < rem (folded in by the non-power-of-
    two pre-phase).  Each step unions a rank's set with its partner's, so
    after ``step`` steps rank q holds the sets of its aligned 2**step group.
    Deterministic on both sides — readers compute their partner's holdings
    locally, no metadata exchange needed.
    """
    group = rank & ~((1 << step) - 1)
    blocks = []
    for q in range(group, min(group + (1 << step), m)):
        blocks.append(q)
        if q < rem:
            blocks.append(q + m)
    return sorted(blocks)


def knomial_parent_children(
    relrank: int, size: int, k: int
) -> tuple[int | None, list[list[int]]]:
    """Parent and per-level children of ``relrank`` in a k-nomial tree.

    Returns ``(parent_relrank_or_None, levels)`` where ``levels`` is a list
    (top level first) of child groups; each group has at most ``k - 1``
    members — the bounded reader concurrency the k-nomial Bcast is built
    around.  Mirrors the classic MVAPICH knomial loop.
    """
    if k < 2:
        raise ValueError("k-nomial radix must be >= 2")
    parent = None
    mask = 1
    while mask < size:
        if relrank % (mask * k) != 0:
            parent = relrank - (relrank % (mask * k))
            break
        mask *= k
    if parent is None:
        # root of the tree: start from the top mask
        mask = k ** max(0, math.ceil(math.log(size, k)) - 1)
    else:
        mask //= k
    levels: list[list[int]] = []
    while mask >= 1:
        group = [
            relrank + j * mask
            for j in range(1, k)
            if relrank + j * mask < size
        ]
        if group:
            levels.append(group)
        mask //= k
    return parent, levels
