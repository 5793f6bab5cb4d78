"""Named scenario registry.

Scenario factories are plain functions returning a :class:`ScenarioSpec`;
the :func:`register` decorator makes them addressable by name from the CLI
(``python -m repro run <name>``), from checkpoints and from user code.  Every
factory accepts keyword overrides so a registered scenario doubles as a
parameterised family (e.g. ``get_scenario("bimaterial_slab", contrast=3.0)``).

The LOH.3 and La Habra built-ins are the paper's workloads (Sec. VII-B/C)
in declarative form.  Four further canned scenarios grow the workload
diversity: a homogeneous halfspace, a bimaterial slab with tunable contrast,
a graded-velocity basin and a plane-wave convergence case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spec import (
    ClusteringSpec,
    DomainSpec,
    InitialConditionSpec,
    MaterialSpec,
    MeshSpec,
    PreprocessingSpec,
    RefinementSpec,
    RunSpec,
    ScenarioSpec,
    SolverSpec,
    SourceSpec,
    TimeFunctionSpec,
    VelocityModelSpec,
)

__all__ = [
    "register",
    "get_scenario",
    "scenario_names",
    "describe_scenario",
    "loh3_scenario",
    "la_habra_scenario",
    "homogeneous_halfspace_scenario",
    "bimaterial_slab_scenario",
    "graded_basin_scenario",
    "plane_wave_scenario",
]


@dataclass(frozen=True)
class _Entry:
    factory: object
    summary: str


_REGISTRY: dict[str, _Entry] = {}


def register(name: str, summary: str | None = None):
    """Register a scenario factory under ``name``.

    ``summary`` defaults to the first line of the factory's docstring.
    """

    def decorator(factory):
        text = summary or (factory.__doc__ or name).strip().splitlines()[0]
        _REGISTRY[name] = _Entry(factory=factory, summary=text)
        return factory

    return decorator


def scenario_names() -> list[str]:
    """Sorted names of all registered scenarios."""
    return sorted(_REGISTRY)


def get_scenario(name: str, **overrides) -> ScenarioSpec:
    """Build the named scenario's spec, passing ``overrides`` to its factory."""
    try:
        entry = _REGISTRY[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise KeyError(f"unknown scenario {name!r} (known: {known})") from None
    return entry.factory(**overrides)


def describe_scenario(name: str) -> str:
    """The registered summary plus the factory's full docstring."""
    entry = _REGISTRY[name] if name in _REGISTRY else None
    if entry is None:
        known = ", ".join(scenario_names())
        raise KeyError(f"unknown scenario {name!r} (known: {known})")
    doc = (entry.factory.__doc__ or "").strip()
    return f"{name}: {entry.summary}\n\n{doc}" if doc else f"{name}: {entry.summary}"


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------


@register("loh3")
def loh3_scenario(
    extent_m: float = 8000.0,
    characteristic_length: float = 2000.0,
    order: int = 4,
    n_mechanisms: int = 3,
    jitter: float = 0.2,
    flux: str = "rusanov",
    anelastic: bool = True,
    source_frequency: float = 1.0,
    seed: int = 0,
    n_clusters: int = 3,
    lam: float | None = None,
    n_fused: int = 0,
    solver: str = "lts",
    n_cycles: int = 4,
) -> ScenarioSpec:
    """Scaled LOH.3 layer-over-halfspace benchmark (Sec. VII-B).

    The published material contrast (and therefore the 1.732x refinement of
    the 1000 m layer), the bimodal time-step distribution, the strike-slip
    double couple below the layer and the free-surface receivers are kept;
    the *extent_m* / *characteristic_length* parameters scale the domain to
    laptop size.
    """
    source_depth = min(2000.0, 0.5 * extent_m)
    offset = min(0.3 * extent_m, 3000.0)
    return ScenarioSpec(
        name="loh3",
        description="Scaled LOH.3 layer over halfspace (strike-slip double couple)",
        domain=DomainSpec(extent=(0.0, extent_m, 0.0, extent_m, -extent_m, 0.0)),
        mesh=MeshSpec(
            mode="characteristic",
            characteristic_length=characteristic_length,
            refinements=(RefinementSpec(z_above=-1000.0, divide_by=1.732),),
            jitter=jitter,
            seed=seed,
        ),
        velocity_model=VelocityModelSpec(kind="loh3"),
        material=MaterialSpec(
            anelastic=anelastic,
            n_mechanisms=n_mechanisms,
            frequency_band=(0.1 * source_frequency, 10.0 * source_frequency),
        ),
        order=order,
        source=SourceSpec(
            kind="moment_tensor",
            location=(0.5 * extent_m, 0.5 * extent_m, -source_depth),
            moment_tensor=((0.0, 1e16, 0.0), (1e16, 0.0, 0.0), (0.0, 0.0, 0.0)),
            time_function=TimeFunctionSpec(
                kind="ricker", params={"f0": source_frequency, "t0": 1.2 / source_frequency}
            ),
        ),
        receivers=(
            ("receiver_9", (0.5 * extent_m + offset, 0.5 * extent_m + 0.66 * offset, -1.0)),
            ("epicentre", (0.5 * extent_m, 0.5 * extent_m, -1.0)),
        ),
        clustering=ClusteringSpec(n_clusters=n_clusters, lam=lam),
        solver=SolverSpec(kind=solver, n_fused=n_fused, flux=flux),
        run=RunSpec(n_cycles=n_cycles),
    )


@register("la_habra")
def la_habra_scenario(
    extent_m: float = 12000.0,
    depth_m: float = 8000.0,
    max_frequency: float = 0.5,
    order: int = 4,
    n_mechanisms: int = 3,
    with_topography: bool = True,
    min_vs: float = 500.0,
    seed: int = 0,
    n_clusters: int = 5,
    lam: float | None = None,
    n_fused: int = 0,
    solver: str = "lts",
    n_cycles: int = 2,
) -> ScenarioSpec:
    """Scaled 2014 Mw 5.1 La Habra basin setting (Sec. VII-C).

    A synthetic CVM stand-in (shallow low-velocity basin, velocity gradient,
    fast halfspace) with optional sinusoidal topography, meshed with the
    elements-per-wavelength rule, driven by an oblique-thrust-like double
    couple at mid depth and recorded at three station analogues.
    """
    return ScenarioSpec(
        name="la_habra",
        description="Scaled La-Habra-like basin (synthetic CVM + topography)",
        domain=DomainSpec(
            extent=(0.0, extent_m, 0.0, extent_m, -depth_m, 0.0),
            topography="sinusoidal" if with_topography else "none",
            topography_amplitude=300.0 if with_topography else 0.0,
        ),
        mesh=MeshSpec(
            mode="wavelength",
            max_frequency=max_frequency,
            elements_per_wavelength=2.0,
            horizontal_factor=2.0,
            jitter=0.15,
            seed=seed,
        ),
        velocity_model=VelocityModelSpec(
            kind="la_habra_basin",
            params={"min_vs": min_vs, "basin_max_depth": 0.3 * depth_m},
        ),
        material=MaterialSpec(
            anelastic=True,
            n_mechanisms=n_mechanisms,
            frequency_band=(max_frequency / 20.0, 2.0 * max_frequency),
        ),
        order=order,
        source=SourceSpec(
            kind="moment_tensor",
            location=(0.5 * extent_m, 0.5 * extent_m, -0.6 * depth_m),
            moment_tensor=((0.0, 0.0, 7.1e16), (0.0, 0.0, 0.0), (7.1e16, 0.0, 0.0)),
            time_function=TimeFunctionSpec(
                kind="gaussian_derivative",
                params={"sigma": 0.4 / max_frequency, "t0": 1.0 / max_frequency},
            ),
        ),
        receivers=(
            ("CE_14026", (0.62 * extent_m, 0.55 * extent_m, -1.0)),
            ("CI_Q0035", (0.35 * extent_m, 0.70 * extent_m, -1.0)),
            ("CI_Q0057", (0.75 * extent_m, 0.30 * extent_m, -1.0)),
        ),
        clustering=ClusteringSpec(n_clusters=n_clusters, lam=lam),
        solver=SolverSpec(kind=solver, n_fused=n_fused),
        run=RunSpec(n_cycles=n_cycles),
    )


@register("homogeneous_halfspace")
def homogeneous_halfspace_scenario(
    extent_m: float = 4000.0,
    characteristic_length: float = 1000.0,
    order: int = 3,
    rho: float = 2700.0,
    vp: float = 6000.0,
    vs: float = 3464.0,
    source_frequency: float = 2.0,
    seed: int = 0,
    n_clusters: int = 2,
    lam: float | None = None,
    n_fused: int = 0,
    solver: str = "lts",
    n_cycles: int = 4,
) -> ScenarioSpec:
    """Homogeneous elastic halfspace with an explosive point source.

    The simplest full-physics scenario: uniform material, free surface on
    top, an isotropic (explosion) moment tensor at mid depth and receivers at
    the epicentre and at an offset.  With vertex jitter the CFL time steps
    still spread, so small LTS configurations remain exercised.
    """
    return ScenarioSpec(
        name="homogeneous_halfspace",
        description="Homogeneous elastic halfspace, explosive point source",
        domain=DomainSpec(extent=(0.0, extent_m, 0.0, extent_m, -extent_m, 0.0)),
        mesh=MeshSpec(
            mode="characteristic",
            characteristic_length=characteristic_length,
            jitter=0.2,
            seed=seed,
        ),
        velocity_model=VelocityModelSpec(
            kind="homogeneous", params={"rho": rho, "vp": vp, "vs": vs}
        ),
        material=MaterialSpec(anelastic=False, n_mechanisms=0),
        order=order,
        source=SourceSpec(
            kind="moment_tensor",
            location=(0.5 * extent_m, 0.5 * extent_m, -0.5 * extent_m),
            moment_tensor=((1e15, 0.0, 0.0), (0.0, 1e15, 0.0), (0.0, 0.0, 1e15)),
            time_function=TimeFunctionSpec(
                kind="ricker", params={"f0": source_frequency, "t0": 1.2 / source_frequency}
            ),
        ),
        receivers=(
            ("epicentre", (0.5 * extent_m, 0.5 * extent_m, -1.0)),
            ("offset", (0.75 * extent_m, 0.6 * extent_m, -1.0)),
        ),
        clustering=ClusteringSpec(n_clusters=n_clusters, lam=lam),
        solver=SolverSpec(kind=solver, n_fused=n_fused),
        run=RunSpec(n_cycles=n_cycles),
    )


@register("bimaterial_slab")
def bimaterial_slab_scenario(
    extent_m: float = 6000.0,
    characteristic_length: float = 1500.0,
    slab_thickness_m: float = 1500.0,
    contrast: float = 2.0,
    order: int = 3,
    source_frequency: float = 1.5,
    seed: int = 0,
    n_clusters: int = 3,
    lam: float | None = None,
    n_fused: int = 0,
    solver: str = "lts",
    n_cycles: int = 3,
) -> ScenarioSpec:
    """Bimaterial slab: a slow surface slab over a fast halfspace.

    The velocity *contrast* is tunable; the slab is refined by exactly that
    factor, so the per-element time steps are bimodal like LOH.3's but with a
    configurable spread -- the knob to dial LTS speedups up or down.
    """
    if contrast <= 1.0:
        raise ValueError("contrast must exceed 1")
    vs_fast, vp_fast, rho_fast = 3200.0, 5500.0, 2700.0
    vs_slow = vs_fast / contrast
    vp_slow = vp_fast / contrast
    return ScenarioSpec(
        name="bimaterial_slab",
        description=f"Slow slab over fast halfspace (contrast {contrast:g}x)",
        domain=DomainSpec(extent=(0.0, extent_m, 0.0, extent_m, -extent_m, 0.0)),
        mesh=MeshSpec(
            mode="characteristic",
            characteristic_length=characteristic_length,
            refinements=(RefinementSpec(z_above=-slab_thickness_m, divide_by=contrast),),
            jitter=0.15,
            seed=seed,
        ),
        velocity_model=VelocityModelSpec(
            kind="layered",
            params={
                "layers": [
                    {
                        "z_top": 0.0,
                        "z_bottom": -slab_thickness_m,
                        "rho": 2400.0,
                        "vp": vp_slow,
                        "vs": vs_slow,
                    },
                    {
                        "z_top": -slab_thickness_m,
                        "z_bottom": -1e9,
                        "rho": rho_fast,
                        "vp": vp_fast,
                        "vs": vs_fast,
                    },
                ]
            },
        ),
        material=MaterialSpec(anelastic=False, n_mechanisms=0),
        order=order,
        source=SourceSpec(
            kind="moment_tensor",
            location=(0.5 * extent_m, 0.5 * extent_m, -0.5 * extent_m),
            moment_tensor=((0.0, 1e15, 0.0), (1e15, 0.0, 0.0), (0.0, 0.0, 0.0)),
            time_function=TimeFunctionSpec(
                kind="ricker", params={"f0": source_frequency, "t0": 1.2 / source_frequency}
            ),
        ),
        receivers=(("surface", (0.6 * extent_m, 0.6 * extent_m, -1.0)),),
        clustering=ClusteringSpec(n_clusters=n_clusters, lam=lam),
        solver=SolverSpec(kind=solver, n_fused=n_fused),
        run=RunSpec(n_cycles=n_cycles),
    )


@register("graded_basin")
def graded_basin_scenario(
    extent_m: float = 9000.0,
    depth_m: float = 6000.0,
    max_frequency: float = 0.4,
    min_vs: float = 600.0,
    order: int = 3,
    seed: int = 0,
    n_clusters: int = 4,
    lam: float | None = None,
    n_fused: int = 0,
    solver: str = "lts",
    n_cycles: int = 2,
) -> ScenarioSpec:
    """Graded-velocity sedimentary basin without topography.

    The synthetic basin model's continuous velocity gradient produces a broad
    (rather than bimodal) time-step distribution -- the regime where the
    lambda grid search of Sec. V-A pays off most.
    """
    return ScenarioSpec(
        name="graded_basin",
        description="Graded-velocity basin, thrust source, wavelength-ruled mesh",
        domain=DomainSpec(extent=(0.0, extent_m, 0.0, extent_m, -depth_m, 0.0)),
        mesh=MeshSpec(
            mode="wavelength",
            max_frequency=max_frequency,
            elements_per_wavelength=1.5,
            horizontal_factor=2.0,
            jitter=0.15,
            seed=seed,
        ),
        velocity_model=VelocityModelSpec(
            kind="la_habra_basin",
            params={"min_vs": min_vs, "basin_max_depth": 0.4 * depth_m, "basin_vs": 1100.0},
        ),
        material=MaterialSpec(
            anelastic=True,
            n_mechanisms=2,
            frequency_band=(max_frequency / 20.0, 2.0 * max_frequency),
        ),
        order=order,
        source=SourceSpec(
            kind="moment_tensor",
            location=(0.5 * extent_m, 0.5 * extent_m, -0.5 * depth_m),
            moment_tensor=((0.0, 0.0, 5e15), (0.0, 0.0, 0.0), (5e15, 0.0, 0.0)),
            time_function=TimeFunctionSpec(
                kind="gaussian_derivative",
                params={"sigma": 0.4 / max_frequency, "t0": 1.0 / max_frequency},
            ),
        ),
        receivers=(
            ("basin_centre", (0.5 * extent_m, 0.5 * extent_m, -1.0)),
            ("basin_edge", (0.15 * extent_m, 0.15 * extent_m, -1.0)),
        ),
        clustering=ClusteringSpec(n_clusters=n_clusters, lam=lam),
        solver=SolverSpec(kind=solver, n_fused=n_fused),
        run=RunSpec(n_cycles=n_cycles),
    )


@register("plane_wave")
def plane_wave_scenario(
    extent_m: float = 2000.0,
    characteristic_length: float = 500.0,
    order: int = 3,
    wavelength: float = 1000.0,
    amplitude: float = 1e-3,
    seed: int = 0,
    n_fused: int = 0,
    solver: str = "lts",
    n_cycles: int = 4,
) -> ScenarioSpec:
    """Plane-wave convergence case: an exact elastic P wave along x.

    A homogeneous cube is initialised with a sinusoidal plane P wave (exact
    velocity/stress relation), no source.  Sweeping *order* and
    *characteristic_length* via overrides turns this into the classic
    convergence study (the Fig. 2 analogue), and a single-cluster run is the
    canonical LTS == GTS bit-identity check.  All boundaries are absorbing
    (no free surface): the travelling wave carries non-zero normal stress,
    so a traction-free top would reflect it and break the comparison
    against the free-space analytic solution.
    """
    return ScenarioSpec(
        name="plane_wave",
        description="Homogeneous cube with an exact plane-P-wave initial condition",
        domain=DomainSpec(
            extent=(0.0, extent_m, 0.0, extent_m, -extent_m, 0.0), free_surface=False
        ),
        mesh=MeshSpec(
            mode="characteristic",
            characteristic_length=characteristic_length,
            jitter=0.1,
            seed=seed,
        ),
        velocity_model=VelocityModelSpec(
            kind="homogeneous", params={"rho": 2700.0, "vp": 6000.0, "vs": 3464.0}
        ),
        material=MaterialSpec(anelastic=False, n_mechanisms=0),
        order=order,
        initial_condition=InitialConditionSpec(
            kind="plane_wave", params={"amplitude": amplitude, "wavelength": wavelength}
        ),
        receivers=(("centre", (0.5 * extent_m, 0.5 * extent_m, -0.5 * extent_m)),),
        clustering=ClusteringSpec(n_clusters=1, lam=1.0),
        solver=SolverSpec(kind=solver, n_fused=n_fused),
        run=RunSpec(n_cycles=n_cycles),
    )
