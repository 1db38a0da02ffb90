"""Correctness digest: every point's simulated outputs against a committed
reference.

A reference file ``refs/<artifact>.json`` holds, per point key, the
point's ``latency_us`` and a hash of all its simulated outputs, plus a
hash of the artifact's rendered tables (without the sweep-summary line).
``sim_events`` is left out on purpose: it counts engine work, which a
change may cut while every latency stays bit-identical.  Keys name the
point, not its position, so the digest does not depend on the order in
which points were submitted.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

#: CollectiveResult fields the digest covers (all but sim_events and the
#: tracing-only trace_by_phase)
OUTPUT_FIELDS = (
    "latency_us", "per_rank_us", "ctrl_messages", "cma_reads", "cma_writes",
    "fallbacks", "retries", "faults_injected", "xpmem_reads", "xpmem_writes",
    "xpmem_attaches", "xpmem_page_faults",
)


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def point_key(artifact: str, spec) -> str:
    """Name of one sweep point: its spec's fields plus a hash of the
    machine parameters (libraries and the calibrated tuner run the same
    preset under different parameters)."""
    params = ",".join(f"{k}={v!r}" for k, v in sorted(spec.params.items()))
    machine = _hash(repr(spec.arch.params))[:10]
    return (
        f"{artifact}|{spec.collective}|{spec.algorithm}|{spec.arch.name}"
        f"|p{spec.procs}|eta{spec.eta}|root{spec.root}|inplace{int(spec.in_place)}"
        f"|verify{int(spec.verify)}|{params}|counts={spec.counts!r}|m{machine}"
    )


def point_entry(result) -> dict:
    """The reference entry of one result: latency plus an outputs hash."""
    outputs = [repr(getattr(result, f)) for f in OUTPUT_FIELDS]
    return {"latency_us": result.latency_us, "digest": _hash("|".join(outputs))}


def tables_digest(text: str) -> str:
    return _hash(text)


def load_refs(artifacts) -> dict:
    """artifact -> reference dict, for every artifact of a workload."""
    return {a: json.loads((REFS / f"{a}.json").read_text()) for a in artifacts}


def write_ref(artifact: str, points: dict, tables) -> None:
    REFS.mkdir(exist_ok=True)
    body = {"artifact": artifact, "tables": tables, "points": points}
    (REFS / f"{artifact}.json").write_text(
        json.dumps(body, indent=0, sort_keys=True) + "\n"
    )


def compare(refs: dict, points: list, tables: dict, errors: list):
    """Check one regeneration against its references.

    ``points`` are ``(artifact, key, entry)`` triples as recorded;
    ``tables`` maps artifact -> rendered-tables digest.  Every reference
    point and table is one attempted item; it fails if it is missing (its
    sweep raised), differs, or was recorded with conflicting values.  A
    recorded point the reference lacks is one more attempted, failed item.
    Returns ``(attempted, failed, problems)``.
    """
    seen: dict = {}
    for artifact, key, entry in points:
        seen.setdefault((artifact, key), []).append(entry)
    problems = list(errors)
    attempted = failed = 0
    for artifact, ref in refs.items():
        for key, want in ref["points"].items():
            attempted += 1
            got = seen.pop((artifact, key), None)
            if got is None:
                failed += 1
                problems.append(f"missing point {key}")
            elif any(e != want for e in got):
                failed += 1
                problems.append(f"mismatch {key}: got {got[0]}, want {want}")
        if ref["tables"] is not None:
            attempted += 1
            if tables.get(artifact) != ref["tables"]:
                failed += 1
                problems.append(f"{artifact}: rendered tables differ")
    for artifact, key in seen:
        attempted += 1
        failed += 1
        problems.append(f"unexpected point {key}")
    return attempted, failed, problems
