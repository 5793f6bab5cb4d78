"""Sweep specifications: a base scenario plus parameter axes.

A :class:`SweepSpec` names a base :class:`~repro.scenarios.spec.ScenarioSpec`
and a list of :class:`SweepAxis` entries -- each a dotted path into the
spec's nested-dict form plus the values to sweep it over.  Expansion takes
the cartesian product of the axes, applies each combination to the base
spec's dict and revalidates it through ``ScenarioSpec.from_dict``, so every
member is a first-class spec that could equally be run standalone (and the
sweep's bit-identity claim against standalone runs is meaningful).

Typical axes (the paper's ensemble arguments): ``source.location``,
``source.moment_tensor``, ``velocity_model.params.<k>`` (material contrast),
``clustering.lam``, ``solver.kernels`` / ``solver.precision``,
``mesh.characteristic_length`` (mesh h), ``solver.n_fused``.

Sweep specs round-trip losslessly through ``to_dict``/``from_dict`` and
JSON, the format the ``repro sweep --spec <file>`` CLI reads.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from ..scenarios.spec import ScenarioSpec, json_native, set_path

__all__ = ["SweepAxis", "SweepMember", "SweepSpec", "SWEEP_FORMAT_VERSION"]

SWEEP_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a dotted spec path and its values."""

    path: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.path or not all(self.path.split(".")):
            raise ValueError(f"axis path must be a dotted spec path, got {self.path!r}")
        values = tuple(json_native(v) for v in self.values)
        if not values:
            raise ValueError(f"axis {self.path!r} needs at least one value")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SweepMember:
    """One expanded member: its queue identity plus the runnable spec."""

    index: int
    member_id: str
    overrides: dict  # axis path -> value, JSON-native
    spec: ScenarioSpec


@dataclass(frozen=True)
class SweepSpec:
    """A validated, serialisable ensemble-sweep description."""

    base: ScenarioSpec
    axes: tuple[SweepAxis, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.base, dict):
            object.__setattr__(self, "base", ScenarioSpec.from_dict(self.base))
        object.__setattr__(
            self,
            "axes",
            tuple(a if isinstance(a, SweepAxis) else SweepAxis(**a) for a in self.axes),
        )
        if not self.axes:
            raise ValueError("a sweep needs at least one axis")
        paths = [axis.path for axis in self.axes]
        if len(set(paths)) != len(paths):
            raise ValueError(f"duplicate axis paths: {sorted(paths)}")
        if not self.name:
            object.__setattr__(self, "name", f"{self.base.name}-sweep")
        # expansion doubles as validation: every member must construct (axis
        # paths resolve, every combination passes the spec validators)
        self.expand()

    @property
    def n_members(self) -> int:
        n = 1
        for axis in self.axes:
            n *= len(axis.values)
        return n

    def expand(self) -> tuple[SweepMember, ...]:
        """The cartesian product of the axes as runnable members.

        Member ids are zero-padded indices in axis-major order (the last
        axis varies fastest), so the id <-> override mapping is stable
        across processes and resumed sweeps.
        """
        base_dict = self.base.to_dict()
        width = max(4, len(str(self.n_members - 1)))
        members = []
        for index, combo in enumerate(
            itertools.product(*(axis.values for axis in self.axes))
        ):
            data = json.loads(json.dumps(base_dict))  # deep copy
            overrides = {}
            for axis, value in zip(self.axes, combo):
                set_path(data, axis.path, value)
                overrides[axis.path] = value
            try:
                spec = ScenarioSpec.from_dict(data)
            except (TypeError, ValueError) as error:
                raise ValueError(
                    f"sweep member {index} ({overrides}) is not a valid spec: {error}"
                ) from error
            members.append(
                SweepMember(
                    index=index,
                    member_id=f"{index:0{width}d}",
                    overrides=overrides,
                    spec=spec,
                )
            )
        return tuple(members)

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format_version": SWEEP_FORMAT_VERSION,
            "name": self.name,
            "base": self.base.to_dict(),
            "axes": [{"path": a.path, "values": list(a.values)} for a in self.axes],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        version = data.get("format_version", SWEEP_FORMAT_VERSION)
        if version != SWEEP_FORMAT_VERSION:
            raise ValueError(f"unsupported sweep format {version}")
        return cls(
            base=ScenarioSpec.from_dict(data["base"]),
            axes=tuple(SweepAxis(**a) for a in data["axes"]),
            name=data.get("name", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_dict(json.loads(text))
