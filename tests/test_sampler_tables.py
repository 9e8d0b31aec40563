"""Per-topology sampler tables and the float32 BLAS mask kernels.

The vectorized backend's hot path draws every trial's faults through
:class:`~repro.resilience.faults.SamplerTables` cached once per
topology (on the built network, or on the topology arrays behind the
array proxy) and scores the masks with exact float32 BLAS products
(``_count_matmul``).  Neither may move a single output byte:

* the table-backed samplers draw exactly what the original per-trial
  scans drew (a verbatim copy of those scans lives below as the
  reference);
* a long-lived session alternating topologies returns what fresh
  one-shot sweeps return, so cached tables never leak across specs;
* vectorized output stays byte-identical to ``batched`` at the
  benchmark's scale;
* float32 counts equal int64 counts wherever the helper accepts them.
"""

import random

import numpy as np
import pytest

import repro
from repro.core.session import Session
from repro.obs.metrics import REGISTRY
from repro.resilience import survivability_sweep
from repro.resilience.faults import (
    AdversarialFirstHopFaults,
    GroupBlockOutage,
    SamplerTables,
    UniformLinkFaults,
    coupler_endpoints,
    group_of,
    sampler_tables,
    trial_seed,
)
from repro.resilience.sweep import (
    _F32_EXACT_INNER,
    _ArrayNetworkProxy,
    _count_matmul,
    _TopologyArrays,
)

SPECS = ["sk(6,3,2)", "sk(2,2,2)", "pops(2,3)", "sops(6)", "sii(2,2,6)"]


# ----------------------------------------------------------------------
# Reference: the per-trial scans the tables replaced, copied verbatim.
# ----------------------------------------------------------------------
def _scan_link(model, net, rng):
    ends = coupler_endpoints(net)
    links = sorted({(min(u, v), max(u, v)) for u, v in ends if u != v})
    picked = set(rng.sample(links, min(model.faults, max(len(links) - 1, 0))))
    chosen = {
        idx
        for idx, (u, v) in enumerate(ends)
        if u != v and (min(u, v), max(u, v)) in picked
    }
    return chosen, set()


def _scan_adversarial(model, net, rng):
    ends = coupler_endpoints(net)
    victim = rng.randrange(net.num_groups)
    outgoing = sorted(
        idx for idx, (u, v) in enumerate(ends) if u == victim and u != v
    )
    if not outgoing:
        m = net.num_couplers
        return (
            set(rng.sample(range(m), min(model.faults, max(m - 1, 0)))),
            set(),
        )
    return set(outgoing[: model.faults]), set()


def _scan_group(model, net, rng):
    g = net.num_groups
    dead_groups = set(rng.sample(range(g), min(model.faults, max(g - 1, 0))))
    ends = coupler_endpoints(net)
    couplers = {
        idx
        for idx, (u, v) in enumerate(ends)
        if u in dead_groups or v in dead_groups
    }
    processors = {
        p for p in range(net.num_processors) if group_of(net, p) in dead_groups
    }
    return couplers, processors


def _scan_max_link(net):
    ends = coupler_endpoints(net)
    return max(len({(min(u, v), max(u, v)) for u, v in ends if u != v}) - 1, 0)


def _scan_max_adversarial(net):
    per_group = [0] * net.num_groups
    for u, v in coupler_endpoints(net):
        if u != v:
            per_group[u] += 1
    fallback = max(net.num_couplers - 1, 0)
    return min(c if c > 0 else fallback for c in per_group)


REFERENCE = [
    (UniformLinkFaults, _scan_link),
    (AdversarialFirstHopFaults, _scan_adversarial),
    (GroupBlockOutage, _scan_group),
]


def _targets(spec):
    """The same topology as a built network and as the array proxy."""
    net = repro.build(spec)
    proxy = _ArrayNetworkProxy(_TopologyArrays.from_network(net))
    return [("net", net), ("proxy", proxy)]


class TestTablesMatchPerTrialScans:
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("cls,scan", REFERENCE, ids=lambda x: x.__name__)
    def test_200_seeds_identical_on_net_and_proxy(self, spec, cls, scan):
        net = repro.build(spec)
        for faults in (1, 2, 3):
            model = cls(faults=faults)
            for kind, target in _targets(spec):
                for index in range(200):
                    seed = trial_seed(11, index)
                    expected = scan(model, net, random.Random(seed))
                    drawn = model.sample_faults(target, random.Random(seed))
                    assert drawn == expected, (kind, faults, index)

    @pytest.mark.parametrize("spec", SPECS)
    def test_capacities_match_scans(self, spec):
        for kind, target in _targets(spec):
            net = repro.build(spec)
            assert UniformLinkFaults().max_faults(target) == _scan_max_link(
                net
            ), kind
            assert AdversarialFirstHopFaults().max_faults(
                target
            ) == _scan_max_adversarial(net), kind

    @pytest.mark.parametrize("spec", SPECS)
    def test_array_tables_equal_network_tables(self, spec):
        net = repro.build(spec)
        arrays = _TopologyArrays.from_network(net)
        assert arrays.sampler_tables == SamplerTables.from_network(net)

    def test_tables_are_cached_per_object(self):
        net = repro.build("sk(2,2,2)")
        assert sampler_tables(net) is sampler_tables(net)
        arrays = _TopologyArrays.from_network(net)
        proxy = _ArrayNetworkProxy(arrays)
        assert sampler_tables(proxy) is arrays.sampler_tables
        # a fresh build of the same spec is a fresh object, fresh tables
        assert sampler_tables(repro.build("sk(2,2,2)")) == sampler_tables(net)

    def test_slotted_objects_fall_back_to_uncached_tables(self):
        net = repro.build("pops(2,3)")

        class Slotted:
            __slots__ = ()
            num_processors = net.num_processors
            num_groups = net.num_groups
            num_couplers = net.num_couplers

            def label_of(self, p):
                return net.label_of(p)

            def base_graph(self):
                return net.base_graph()

        stand_in = Slotted()
        assert sampler_tables(stand_in) == SamplerTables.from_network(net)
        seed = trial_seed(2, 5)
        assert GroupBlockOutage(faults=1).sample_faults(
            stand_in, random.Random(seed)
        ) == _scan_group(GroupBlockOutage(faults=1), net, random.Random(seed))


class TestSessionNeverLeaksTables:
    ORDER = [
        ("sk(6,3,2)", 2),
        ("sk(2,2,2)", 1),
        ("sk(6,3,2)", 1),
        ("sk(2,2,2)", 2),
    ] * 2

    @pytest.mark.parametrize("backend", ["vectorized", "batched"])
    def test_alternating_link_sweeps_equal_one_shot_calls(self, backend):
        args = dict(trials=12, seed=3, metrics="connectivity", backend=backend)
        with Session(workers=1) as session:
            for spec, faults in self.ORDER:
                warm = session.resilience_sweep(
                    spec, model="link", faults=faults, **args
                )
                fresh = survivability_sweep(spec, "link", faults=faults, **args)
                assert warm.to_json() == fresh.to_json(), (spec, faults)


class TestBenchmarkScaleByteIdentity:
    def test_sk632_link2_connectivity(self):
        args = dict(faults=2, trials=30, seed=4, metrics="connectivity")
        batched = survivability_sweep("sk(6,3,2)", "link", **args)
        vectorized = survivability_sweep(
            "sk(6,3,2)", "link", backend="vectorized", **args
        )
        assert vectorized.to_json() == batched.to_json()

    def test_sii4460_coupler2_paths(self):
        args = dict(faults=2, trials=30, seed=4, metrics="paths")
        batched = survivability_sweep("sii(4,4,60)", "coupler", **args)
        vectorized = survivability_sweep(
            "sii(4,4,60)", "coupler", backend="vectorized", **args
        )
        assert vectorized.backend == "vectorized"
        assert vectorized.to_json() == batched.to_json()


class TestCountMatmul:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_stacks_equal_int64(self, seed):
        gen = np.random.default_rng(seed)
        a = gen.random((6, 23, 17)) < 0.4
        b = gen.random((6, 17, 29)) < 0.6
        counts = _count_matmul(a, b)
        assert counts.dtype == np.float32
        expected = a.astype(np.int64) @ b.astype(np.int64)
        assert np.array_equal(counts.astype(np.int64), expected)
        assert np.array_equal(counts > 0, expected > 0)

    def test_all_ones_counts_are_the_inner_dimension(self):
        for inner in (1, 60, 4097, 1 << 20):
            a = np.ones((2, inner), dtype=bool)
            b = np.ones((inner, 3), dtype=bool)
            counts = _count_matmul(a, b)
            assert np.array_equal(
                counts.astype(np.int64), np.full((2, 3), inner)
            )

    def test_matrix_times_stack_broadcasts_like_matmul(self):
        gen = np.random.default_rng(9)
        a = gen.random((5, 8)) < 0.5
        b = gen.random((8, 4)) < 0.5
        assert np.array_equal(
            _count_matmul(a, b).astype(np.int64),
            a.astype(np.int64) @ b.astype(np.int64),
        )

    def test_rejects_inner_dimension_above_the_exact_bound(self):
        assert _F32_EXACT_INNER == 2**24
        inner = _F32_EXACT_INNER + 1
        # zero-strided views: the check runs before any allocation
        a = np.broadcast_to(np.zeros((), dtype=bool), (1, inner))
        b = np.broadcast_to(np.zeros((), dtype=bool), (inner, 1))
        with pytest.raises(ValueError, match="float32"):
            _count_matmul(a, b)


class TestChunkTimingHistograms:
    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        REGISTRY.reset()
        yield
        REGISTRY.reset()

    @staticmethod
    def _series(name, kind="histogram"):
        family = REGISTRY.snapshot().get(name)
        assert family is not None, name
        assert family["kind"] == kind
        return {
            tuple(sorted(dict(labels).items())): payload
            for labels, payload in family["series"]
        }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sample_and_kernel_seconds_per_chunk(self, workers):
        for metrics, spec in (("connectivity", "sk(2,2,2)"), ("paths", "pops(2,3)")):
            survivability_sweep(
                spec,
                "coupler",
                trials=16,
                seed=1,
                metrics=metrics,
                backend="vectorized",
                workers=workers,
            )
        chunks = self._series("repro_sweep_chunks_total", "counter")
        for name in ("repro_sweep_sample_seconds", "repro_sweep_kernel_seconds"):
            series = self._series(name)
            assert set(series) == {
                (("backend", "vectorized"), ("metrics", "connectivity")),
                (("backend", "vectorized"), ("metrics", "paths")),
            }
            observed = sum(payload[2] for payload in series.values())
            # one observation per chunk of either sweep
            assert observed == chunks[(("backend", "vectorized"),)]
            assert all(payload[1] >= 0.0 for payload in series.values())
