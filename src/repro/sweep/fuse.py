"""Fused collapse of sweep members: grouping, collapse, per-member demux.

``repro sweep --fuse`` detects members that share every preprocessing
artifact *and* every result-determining spec field except the fusable
source axes -- the time function, the moment tensor, the force vector --
and collapses each such group into one fused ensemble run (one mesh read,
one operator application, one halo message per neighbour, all amortised
over the group width F).  The collapsed run's trailing fused axis carries
one member per slot; afterwards the demux step slices slot ``f`` back out
into member ``f``'s own artefact directory.

The collapse is only sound because of the slot-wise bit-identity contract
(see :mod:`repro.source.moment_tensor`): on the ``ref`` backend at
f64, slot ``f`` of the fused state is bit-identical to the
standalone run of slot ``f``'s source, and the demuxed seismogram CSVs are
routed through the scalar formatting path so they come out *byte*-identical
to the CSVs an unfused sweep would have written.  Manifest rows, resume
decisions and ``repro report`` all stay per-member; the grouping is
recorded on each row (``fused_group`` / ``fused_slot`` / ``fused_width``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

from ..scenarios.spec import FusedSourceSpec, ScenarioSpec
from .spec import SweepMember

__all__ = [
    "FUSABLE_SOURCE_FIELDS",
    "FusedGroup",
    "can_fuse",
    "fusable_signature",
    "collapse_members",
    "plan_fused_groups",
    "run_fused_group",
]

#: the source fields a fused slot can carry per-member; everything else in
#: the spec -- the location included, since one fused run injects at one
#: shared source element -- must match exactly for members to collapse
FUSABLE_SOURCE_FIELDS = ("time_function", "moment_tensor", "force")


def can_fuse(spec: ScenarioSpec) -> bool:
    """Whether a member spec is eligible for fused collapse.

    Eligible members are scalar (``solver.n_fused == 0``) point-source runs
    without a fused block of their own -- a member that already runs a
    replicated or distinct ensemble keeps its fused axis untouched.
    """
    return (
        spec.source is not None
        and not spec.source.fused
        and spec.solver.n_fused == 0
    )


def fusable_signature(spec: ScenarioSpec) -> str:
    """The grouping key: the spec's dict form minus the fusable source axes.

    Two members share a signature exactly when they differ *only* in fields
    a fused slot can express (:data:`FUSABLE_SOURCE_FIELDS`), so the
    collapsed run shares mesh, operators, clustering, schedule, receiver
    placement and source element with every member it absorbs.  The
    observability ``output`` block stays in the key: members with different
    trace/ledger settings cannot honour them from a single shared run.
    """
    data = spec.to_dict()
    source = data.get("source") or {}
    for field_name in FUSABLE_SOURCE_FIELDS:
        source.pop(field_name, None)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class FusedGroup:
    """One collapsed group: the fused spec plus its members in slot order."""

    group_id: str
    members: tuple[SweepMember, ...]  # slot f carries members[f]'s source
    spec: ScenarioSpec  # solver.n_fused == width, one slot per member

    @property
    def width(self) -> int:
        return len(self.members)


def collapse_members(members) -> ScenarioSpec:
    """Collapse members sharing a fusable signature into one fused spec.

    The result is the first member's spec with ``solver.n_fused`` set to
    the group width and one explicit :class:`FusedSourceSpec` slot per
    member carrying that member's time function and moment tensor / force.
    ``SourceSpec.slot(f)`` of the collapsed spec reconstructs member
    ``f``'s source field-for-field, which is what entitles the demuxed
    outputs to the slot-wise bit-identity guarantee.
    """
    members = tuple(members)
    base = members[0].spec
    slots = []
    for member in members:
        source = member.spec.source
        slots.append(
            FusedSourceSpec(
                time_function=source.time_function,
                moment_tensor=(
                    source.moment_tensor if source.kind == "moment_tensor" else None
                ),
                force=source.force if source.kind == "point_force" else None,
            )
        )
    return replace(
        base,
        source=replace(base.source, fused=tuple(slots)),
        solver=replace(base.solver, n_fused=len(slots)),
    )


def plan_fused_groups(members, *, min_width: int = 2):
    """Partition pending members into fused groups and leftover singles.

    Members are bucketed by :func:`fusable_signature`; buckets of at least
    ``min_width`` collapse into a :class:`FusedGroup` (slots in member
    index order, groups ordered by their first member), everything else
    stays standalone.  Re-planning a resumed sweep's *pending* subset is
    safe: slot-wise bit-identity holds at any width, so a member's results
    do not depend on which siblings remain in its group.
    """
    buckets: dict[str, list] = {}
    singles: list[SweepMember] = []
    for member in members:
        if not can_fuse(member.spec):
            singles.append(member)
            continue
        buckets.setdefault(fusable_signature(member.spec), []).append(member)
    groups = []
    for bucket in buckets.values():
        if len(bucket) < min_width:
            singles.extend(bucket)
            continue
        ordered = tuple(sorted(bucket, key=lambda m: m.index))
        groups.append(
            FusedGroup(
                group_id=f"fused-{ordered[0].member_id}",
                members=ordered,
                spec=collapse_members(ordered),
            )
        )
    groups.sort(key=lambda g: g.members[0].index)
    singles.sort(key=lambda m: m.index)
    return tuple(groups), tuple(singles)


def run_fused_group(spec: ScenarioSpec, group_dir, member_dirs, cache) -> dict:
    """Run one collapsed group end-to-end and demux per-member artefacts.

    The fused run's own artefacts (summary, fused multi-column seismograms,
    optional ledger/trace) land under ``group_dir``; every ``(member_id,
    directory)`` pair in ``member_dirs`` (slot order) then gets the demuxed
    scalar seismogram CSVs -- written through the byte-identical scalar
    formatting path -- plus a per-member run summary annotated with its
    slot.  Returns the manifest fields: the shared run figures plus a
    ``members`` map of per-member rows.
    """
    from ..preprocessing.cache import diff_stats
    from ..scenarios.outputs import (
        write_fused_slot_seismograms,
        write_outputs,
        write_run_summary,
    )
    from ..scenarios.runner import make_runner

    group_dir = Path(group_dir)
    member_dirs = [(member_id, Path(directory)) for member_id, directory in member_dirs]
    if spec.solver.n_fused != len(member_dirs):
        raise ValueError(
            f"fused spec has {spec.solver.n_fused} slots but the group maps "
            f"{len(member_dirs)} members"
        )
    before = cache.snapshot()
    start = time.perf_counter()
    runner = make_runner(spec, cache=cache)
    summary = runner.run()
    write_outputs(runner, group_dir, summary=summary)
    if spec.output.trace:
        runner.write_trace(group_dir / "trace.json")
    cache_delta = diff_stats(before, cache.snapshot())
    wall_s = float(summary["wall_s"])
    total_wall_s = time.perf_counter() - start
    slot_labels = summary.get("fused_sources") or [None] * len(member_dirs)

    rows = {}
    for slot, (member_id, member_dir) in enumerate(member_dirs):
        member_summary = dict(summary)
        member_summary.pop("fused_sources", None)
        member_summary["fused_demux"] = {
            "member": member_id,
            "group": group_dir.name,
            "slot": slot,
            "width": len(member_dirs),
            "source": slot_labels[slot],
            "group_summary": str(group_dir / "run_summary.json"),
        }
        write_run_summary(member_dir / "run_summary.json", member_summary)
        if runner.receivers is not None:
            write_fused_slot_seismograms(runner.receivers, member_dir, slot)
        rows[member_id] = {
            "summary_path": str(member_dir / "run_summary.json"),
            "wall_s": wall_s,
            "total_wall_s": total_wall_s,
            "n_elements": summary["n_elements"],
        }
    return {
        "group": group_dir.name,
        "wall_s": wall_s,
        "total_wall_s": total_wall_s,
        "n_elements": summary["n_elements"],
        "cache": cache_delta,
        "members": rows,
    }
