"""Unit tests for the flop counting utilities."""

import pytest

from repro.equations.material import MaterialTable, ViscoelasticMaterial
from repro.kernels.discretization import Discretization
from repro.kernels.flops import count_flops_per_element_update, sparsity_report
from repro.scenarios import build_setup, get_scenario

from .conftest import small_mesh


class TestFlopCounts:
    def test_positive_and_ordered(self, viscoelastic_disc):
        dense = count_flops_per_element_update(viscoelastic_disc, sparse=False)
        sparse = count_flops_per_element_update(viscoelastic_disc, sparse=True)
        assert dense.total > 0
        assert sparse.total > 0
        assert sparse.total < dense.total

    def test_anelasticity_increases_cost(self, elastic_disc, viscoelastic_disc):
        elastic = count_flops_per_element_update(elastic_disc, sparse=False)
        visco = count_flops_per_element_update(viscoelastic_disc, sparse=False)
        # the paper reports a ~1.8x "cost of anelasticity" for three mechanisms
        ratio = visco.total / elastic.total
        assert 1.3 < ratio < 3.0

    def test_components_sum_to_total(self, viscoelastic_disc):
        count = count_flops_per_element_update(viscoelastic_disc)
        assert count.total == (
            count.time_kernel + count.volume_kernel + count.surface_local + count.surface_neighbor
        )

    def test_sparsity_report(self, viscoelastic_disc):
        report = sparsity_report(viscoelastic_disc)
        assert 0.0 < report["zero_operation_fraction"] < 1.0
        assert report["flops_sparse"] < report["flops_dense"]

    def test_counts_match_the_papers_magnitude(self):
        """Sec. IV-A: 529,110 dense flops per element update and 59.8 %
        zero-operations at O = 5; at O = 4 this operator set lands in the
        same order of magnitude."""
        mesh = small_mesh(n=1)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        disc = Discretization(mesh, table, order=4, n_mechanisms=3, frequency_band=(0.1, 10.0))
        assert 1e5 < count_flops_per_element_update(disc, sparse=False).total < 2e6
        assert 0.2 < sparsity_report(disc)["zero_operation_fraction"] < 0.9

    def test_counts_of_the_order4_anelastic_loh3_are_pinned(self):
        """The counts read the compact star and coupling operators and stay
        the exact figures of the dense stacks the discretization used to
        store (the benchmark compares ``kernels.flop_per_update`` exactly)."""
        disc = build_setup(get_scenario("loh3", characteristic_length=2000.0)).disc
        assert (disc.order, disc.n_mechanisms) == (4, 3)
        assert count_flops_per_element_update(disc, sparse=False).total == 290_100
        assert count_flops_per_element_update(disc, sparse=True).total == 141_040

    def test_counting_assembles_element_zero_alone(self, monkeypatch):
        """The run summary counts on a multi-rank parent too: the count
        assembles element 0's operators, never the whole-mesh set."""
        disc = build_setup(get_scenario("loh3", characteristic_length=2000.0)).disc
        assembled = []
        assemble = Discretization.element_operators
        monkeypatch.setattr(
            Discretization, "element_operators",
            lambda self, ids: assembled.append(list(ids)) or assemble(self, ids),
        )
        counts = [count_flops_per_element_update(disc, sparse=s).total for s in (False, True)]
        assert assembled == [[0], [0]]
        assert "flux_solvers" not in vars(disc)
        assert counts == [290_100, 141_040]
