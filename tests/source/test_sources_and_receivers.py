"""Unit tests for source time functions, point sources, receivers and misfits."""

import numpy as np
import pytest

from repro.equations.material import ElasticMaterial, MaterialTable
from repro.kernels.discretization import Discretization
from repro.mesh.generation import box_mesh
from repro.source.misfit import envelope_misfit, seismogram_misfit
from repro.source.moment_tensor import (
    DiscretePointSource,
    MomentTensorSource,
    PointForceSource,
    locate_point,
)
from repro.source.receivers import ReceiverSet, lowpass_filter, resample_seismogram
from repro.source.time_functions import GaussianDerivative, RickerWavelet, SmoothedStep


@pytest.fixture(scope="module")
def disc():
    coords = np.linspace(0.0, 2000.0, 3)
    mesh = box_mesh(coords, coords, coords, free_surface_top=False)
    table = MaterialTable.homogeneous(ElasticMaterial(2700.0, 6000.0, 3464.0), mesh.n_elements)
    return Discretization(mesh, table, order=3)


class TestTimeFunctions:
    def test_ricker_peak_at_delay(self):
        stf = RickerWavelet(f0=2.0, t0=1.0)
        t = np.linspace(0, 2, 2001)
        assert abs(t[np.argmax(stf(t))] - 1.0) < 1e-3

    def test_ricker_integral_matches_quadrature(self):
        stf = RickerWavelet(f0=1.5, t0=0.5)
        t = np.linspace(0.0, 0.8, 20001)
        reference = np.trapezoid(stf(t), t)
        assert stf.integral(0.0, 0.8) == pytest.approx(reference, rel=1e-6)

    def test_gaussian_derivative_closed_form_integral(self):
        stf = GaussianDerivative(sigma=0.1, t0=0.3)
        t = np.linspace(0.0, 1.0, 50001)
        reference = np.trapezoid(stf(t), t)
        assert stf.integral(0.0, 1.0) == pytest.approx(reference, abs=1e-6)

    def test_smoothed_step_reaches_amplitude(self):
        stf = SmoothedStep(rise_time=0.2, amplitude=3.0)
        assert stf(10.0) == pytest.approx(3.0, rel=1e-6)
        assert stf(-1.0) == pytest.approx(0.0, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            RickerWavelet(f0=-1.0, t0=0.0)
        with pytest.raises(ValueError):
            GaussianDerivative(sigma=0.0, t0=0.0)
        with pytest.raises(ValueError):
            SmoothedStep(rise_time=0.0)


class TestPointSources:
    def test_locate_point(self, disc):
        element = locate_point(disc.mesh, np.array([500.0, 500.0, 500.0]))
        assert 0 <= element < disc.mesh.n_elements
        verts = disc.mesh.vertices[disc.mesh.elements[element]]
        assert verts[:, 0].min() <= 500.0 <= verts[:, 0].max() + 1e-9

    @staticmethod
    def _locate_by_scan(mesh, point):
        """The element-at-a-time scan the stacked solve replaced."""
        from repro.mesh.geometry import map_physical_to_reference

        best_element, best_excess = -1, np.inf
        for k in range(mesh.n_elements):
            xi = map_physical_to_reference(mesh.vertices, mesh.elements, k, point)[0]
            excess = max(-xi.min(), xi.sum() - 1.0)
            if excess < best_excess:
                best_element, best_excess = k, excess
            if excess <= 1e-12:
                break
        return best_element

    def test_locate_point_matches_scan(self):
        coords = np.linspace(0.0, 3000.0, 4)
        mesh = box_mesh(coords, coords, coords, jitter=0.2, seed=7)
        rng = np.random.default_rng(8)
        interior = rng.uniform(50.0, 2950.0, size=(40, 3))
        shared = mesh.geometry.face_centroids[mesh.neighbors >= 0][::17]
        on_vertices = mesh.vertices[::9]
        outside = np.array([[-500.0, 1000.0, 1000.0], [4000.0, 4000.0, 4000.0], [1500.0, 1500.0, 3001.0]])
        for point in np.concatenate([interior, shared, on_vertices, outside]):
            assert locate_point(mesh, point) == self._locate_by_scan(mesh, point), point

    def test_locate_point_first_hit_on_shared_face(self):
        """A point on a shared face belongs to the lower-numbered element."""
        coords = np.linspace(0.0, 2000.0, 3)
        mesh = box_mesh(coords, coords, coords)
        k, i = np.argwhere(mesh.neighbors >= 0)[5]
        point = mesh.geometry.face_centroids[k, i]
        assert locate_point(mesh, point) == min(k, mesh.neighbors[k, i])

    def test_moment_tensor_validation(self):
        with pytest.raises(ValueError):
            MomentTensorSource(np.zeros(3), np.ones((3, 2)), RickerWavelet(1.0, 0.0))
        with pytest.raises(ValueError):
            MomentTensorSource(
                np.zeros(3), np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]), RickerWavelet(1.0, 0.0)
            )

    def test_injection_adds_to_source_element_only(self, disc):
        source = MomentTensorSource(
            location=np.array([500.0, 500.0, 500.0]),
            moment_tensor=1e9 * np.eye(3),
            time_function=RickerWavelet(f0=5.0, t0=0.1),
        )
        discrete = DiscretePointSource(disc, source)
        dofs = disc.allocate_dofs()
        discrete.inject(dofs, 0.0, 0.2)
        changed = np.where(np.any(dofs != 0.0, axis=(1, 2)))[0]
        np.testing.assert_array_equal(changed, [discrete.element])
        # explosive source: only normal stresses are excited
        np.testing.assert_allclose(dofs[discrete.element, 3:9], 0.0)

    def test_force_source_scales_with_density(self, disc):
        source = PointForceSource(
            location=np.array([500.0, 500.0, 500.0]),
            force=np.array([0.0, 0.0, 1e6]),
            time_function=RickerWavelet(f0=5.0, t0=0.1),
        )
        discrete = DiscretePointSource(disc, source)
        dofs = disc.allocate_dofs()
        discrete.inject(dofs, 0.0, 0.2)
        assert np.any(dofs[discrete.element, 8] != 0.0)
        np.testing.assert_allclose(dofs[discrete.element, 0:6], 0.0)

    def test_source_outside_mesh_raises(self, disc):
        source = MomentTensorSource(
            location=np.array([1e6, 1e6, 1e6]),
            moment_tensor=np.eye(3),
            time_function=RickerWavelet(f0=5.0, t0=0.1),
        )
        with pytest.raises(ValueError):
            DiscretePointSource(disc, source)

    def test_fused_injection(self, disc):
        source = MomentTensorSource(
            location=np.array([500.0, 500.0, 500.0]),
            moment_tensor=1e9 * np.eye(3),
            time_function=RickerWavelet(f0=5.0, t0=0.1),
        )
        discrete = DiscretePointSource(disc, source)
        dofs = disc.allocate_dofs(n_fused=3)
        discrete.inject(dofs, 0.0, 0.2)
        np.testing.assert_allclose(dofs[..., 0], dofs[..., 2])


class TestReceivers:
    def test_receiver_records_point_value(self, disc):
        receivers = ReceiverSet(disc, {"a": np.array([700.0, 600.0, 500.0])})
        dofs = disc.allocate_dofs()
        dofs[:, 6, 0] = 1.0 / np.sqrt(6.0)  # constant u = 1 everywhere
        receivers.record_all(0.25, dofs)
        times, values = receivers["a"].seismogram()
        np.testing.assert_allclose(times, [0.25])
        np.testing.assert_allclose(values[0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_record_elements_filters_by_element(self, disc):
        receivers = ReceiverSet(disc, {"a": np.array([700.0, 600.0, 500.0])})
        element = receivers["a"].element
        dofs = disc.allocate_dofs()
        receivers.record_elements(np.array([element + 1]), 0.1, dofs)
        assert len(receivers["a"].times) == 0
        receivers.record_elements(np.array([element]), 0.2, dofs)
        assert len(receivers["a"].times) == 1

    def test_missing_receiver_raises(self, disc):
        receivers = ReceiverSet(disc, {"a": np.array([700.0, 600.0, 500.0])})
        with pytest.raises(KeyError):
            receivers["nope"]

    def test_resample_and_filter(self):
        times = np.linspace(0, 1, 101)
        values = np.sin(2 * np.pi * 3 * times)[:, None] * np.ones((1, 3))
        resampled = resample_seismogram(times, values, np.linspace(0, 1, 51))
        assert resampled.shape == (51, 3)
        filtered = lowpass_filter(values, dt=0.01, cutoff_hz=1.0)
        assert np.max(np.abs(filtered)) < 0.3 * np.max(np.abs(values))
        # cutoff above Nyquist: unchanged
        np.testing.assert_array_equal(lowpass_filter(values, 0.01, 100.0), values)


class TestMisfit:
    def test_identical_signals_have_zero_misfit(self):
        sig = np.sin(np.linspace(0, 10, 100))
        assert seismogram_misfit(sig, sig) == 0.0

    def test_scaling_of_misfit(self):
        ref = np.sin(np.linspace(0, 10, 100))
        assert seismogram_misfit(1.1 * ref, ref) == pytest.approx(0.01, rel=1e-9)

    def test_zero_reference_raises(self):
        with pytest.raises(ValueError):
            seismogram_misfit(np.ones(5), np.zeros(5))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            seismogram_misfit(np.ones(5), np.ones(6))

    def test_envelope_misfit_tolerates_small_shift(self):
        t = np.linspace(0, 10, 1000)
        ref = np.exp(-((t - 5) ** 2)) * np.sin(20 * t)
        shifted = np.exp(-((t - 5.02) ** 2)) * np.sin(20 * (t - 0.02))
        assert envelope_misfit(shifted, ref) < seismogram_misfit(shifted, ref)
