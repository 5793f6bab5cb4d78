"""Receivers (seismic stations) and synthetic seismograms.

A receiver samples the particle velocities at a fixed physical location every
time the element containing it completes a local time step -- which gives a
seismogram sampled at the element's local time step, exactly as EDGE's
receiver output behaves under local time stepping.  Seismograms can be
resampled to a common time axis and low-pass filtered for comparisons
(Figs. 2 and 9 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kernels.discretization import Discretization
from ..mesh.geometry import map_physical_to_reference
from .moment_tensor import locate_point

__all__ = ["Receiver", "ReceiverSet", "resample_seismogram", "lowpass_filter"]


@dataclass
class Receiver:
    """A single station recording the particle velocity vector."""

    name: str
    location: np.ndarray
    element: int = -1
    basis_values: np.ndarray | None = field(default=None, repr=False)
    times: list[float] = field(default_factory=list, repr=False)
    samples: list[np.ndarray] = field(default_factory=list, repr=False)

    def record(self, time: float, dofs: np.ndarray) -> None:
        """Sample the velocity at the receiver from the global DOF array.

        Sampling runs in the state's own precision: an f32 run records f32
        seismograms instead of silently upcasting through the f64 basis
        values.  The cast is memoized separately so the setup-precision
        basis values are never destructively overwritten (a receiver may be
        reused across runs of different precision).
        """
        coeffs = dofs[self.element, 6:9]  # (3, B[, n_fused])
        basis = self.basis_values
        if basis.dtype != coeffs.dtype:
            cast = getattr(self, "_basis_cast", None)
            if cast is None or cast.dtype != coeffs.dtype:
                cast = basis.astype(coeffs.dtype)
                self._basis_cast = cast
            basis = cast
        if coeffs.ndim == 3:
            # contract each fused slot through the scalar call on a
            # contiguous copy: the strided one-shot einsum accumulates in a
            # different order (a ~1-ulp drift), and demuxed fused seismograms
            # must stay bit-identical to the scalar runs they collapse
            value = np.stack(
                [
                    np.einsum(
                        "vb...,b->v...", np.ascontiguousarray(coeffs[:, :, f]), basis
                    )
                    for f in range(coeffs.shape[-1])
                ],
                axis=-1,
            )
        else:
            value = np.einsum("vb...,b->v...", coeffs, basis)
        self.times.append(time)
        self.samples.append(np.asarray(value))

    def seismogram(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(times, velocities)`` with velocities of shape ``(n, 3[, n_fused])``."""
        if not self.times:
            return np.zeros(0), np.zeros((0, 3))
        return np.asarray(self.times), np.stack(self.samples)

    def clear(self) -> None:
        self.times.clear()
        self.samples.clear()


class ReceiverSet:
    """A collection of receivers bound to a discretization."""

    def __init__(self, disc: Discretization, locations: dict[str, np.ndarray]):
        receivers = []
        mesh = disc.mesh
        for name, location in locations.items():
            location = np.asarray(location, dtype=np.float64)
            element = locate_point(mesh, location)
            xi = map_physical_to_reference(mesh.vertices, mesh.elements, element, location)[0]
            xi = np.clip(xi, 0.0, 1.0)
            basis_values = disc.ref.basis.evaluate(xi[None, :])[0]
            receivers.append(
                Receiver(name=name, location=location, element=element, basis_values=basis_values)
            )
        self._index(receivers)

    @classmethod
    def from_receivers(cls, receivers: list[Receiver]) -> ReceiverSet:
        """A set over already located receivers (e.g. one rank's local shims)."""
        receiver_set = cls.__new__(cls)
        receiver_set._index(receivers)
        return receiver_set

    def _index(self, receivers: list[Receiver]) -> None:
        self.receivers = list(receivers)
        self._by_element: dict[int, list[Receiver]] = {}
        for receiver in self.receivers:
            self._by_element.setdefault(receiver.element, []).append(receiver)

    def __len__(self) -> int:
        return len(self.receivers)

    def __getitem__(self, name: str) -> Receiver:
        for receiver in self.receivers:
            if receiver.name == name:
                return receiver
        raise KeyError(name)

    @property
    def elements(self) -> np.ndarray:
        """Element ids containing at least one receiver."""
        return np.array(sorted(self._by_element), dtype=np.int64)

    def record_elements(self, element_ids, time: float, dofs: np.ndarray) -> None:
        """Record all receivers whose element is in ``element_ids`` at ``time``.

        ``element_ids`` is any container of ids -- typically a cluster's
        ``range``, whose membership test is O(1).
        """
        for k in sorted(self._by_element):
            if k in element_ids:
                for receiver in self._by_element[k]:
                    receiver.record(time, dofs)

    def record_all(self, time: float, dofs: np.ndarray) -> None:
        for receiver in self.receivers:
            receiver.record(time, dofs)

    def clear(self) -> None:
        for receiver in self.receivers:
            receiver.clear()


def resample_seismogram(
    times: np.ndarray, values: np.ndarray, target_times: np.ndarray
) -> np.ndarray:
    """Linearly resample a seismogram onto a common time axis (per component)."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if len(times) < 2:
        raise ValueError("need at least two samples to resample")
    flat = values.reshape(len(times), -1)
    out = np.stack([np.interp(target_times, times, flat[:, c]) for c in range(flat.shape[1])], axis=1)
    return out.reshape((len(target_times),) + values.shape[1:])


def lowpass_filter(values: np.ndarray, dt: float, cutoff_hz: float, order: int = 4) -> np.ndarray:
    """Zero-phase Butterworth low-pass filter along the first axis."""
    from scipy.signal import butter, filtfilt

    nyquist = 0.5 / dt
    if cutoff_hz >= nyquist:
        return values
    b, a = butter(order, cutoff_hz / nyquist)
    return filtfilt(b, a, values, axis=0)
