"""Temporal replay on the vectorized kernel and the persistent executor.

The replay scores each trace's distinct fault states as one mask batch
on the vectorized sweep kernel instead of building a
``DegradedNetwork`` and a Python BFS per segment, and runs its trials
on the session's :class:`~repro.resilience.sweep.PersistentSweepExecutor`.
These tests pin that both are byte-identical to the per-segment path
they replace: every segment's kernel ``alive_connectivity`` equals
``connectivity_metrics`` on the segment's degraded view, the kernel's
``paths`` rows equal ``path_survival`` on generic-router families, and
no temporal call builds a pool of its own.  The full-mode satellites
ride along: the candidate-route memo hands out fresh lists, and one
hypergraph model serves every view of a built network.
"""

import copy
import json
import multiprocessing
import pathlib

import pytest

import repro.temporal.replay as replay
from repro.core import build
from repro.core.session import Session
from repro.obs.metrics import REGISTRY
from repro.resilience.degrade import DegradedNetwork
from repro.resilience.faults import (
    FaultScenario,
    group_of,
    processor_groups,
)
from repro.resilience.metrics import connectivity_metrics, path_survival
from repro.resilience.sweep import _TopologyArrays
from repro.routing.fault_tolerant import (
    FaultSet,
    _build_candidates,
    candidate_paths,
    fault_tolerant_route,
)
import repro
from repro.temporal import TrafficMatrix, prepare_temporal_sweep
from repro.temporal.replay import _TemporalContext

SPECS = ["pops(2,3)", "sk(2,2,2)", "sii(2,2,6)"]
PROCESSES = ["coupler-renewal", "processor-renewal", "cascade"]


@pytest.fixture(autouse=True)
def _clean_registry():
    REGISTRY.reset()
    yield
    REGISTRY.reset()


def _context(spec, process, metrics="connectivity", **kw):
    prepared = prepare_temporal_sweep(
        spec, process, faults=3, mtbf=30, mttr=12, horizon=240, trials=4,
        metrics=metrics, **kw,
    )
    return _TemporalContext(prepared.plan, net=prepared.net), prepared


def _segment_states(ctx, seeds=range(4)):
    """Every segment's fault state over a few compiled traces."""
    plan = ctx.plan
    for seed in seeds:
        trace = plan.process.trace(plan.canonical, ctx.net, seed, plan.horizon)
        for _start, _stop, dead_c, dead_p in trace.segments():
            yield trace, dead_c, dead_p


class TestKernelOracle:
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("process", PROCESSES)
    def test_every_segment_matches_connectivity_metrics(self, spec, process):
        ctx, _prepared = _context(spec, process)
        segments = list(_segment_states(ctx))
        assert len(segments) > 8  # the traces really churn
        rows = ctx.scorer.score_states([(c, p) for _t, c, p in segments])
        for (trace, dead_c, dead_p), row in zip(segments, rows):
            view = DegradedNetwork(ctx.net, trace.scenario_for(dead_c, dead_p))
            expected = connectivity_metrics(view, with_reachable=False)
            assert row["alive_connectivity"] == expected["alive_connectivity"]
            assert row["connectivity"] == expected["connectivity"]

    def test_batch_split_is_invisible(self):
        ctx, _prepared = _context("sk(2,2,2)", "cascade")
        states = [(c, p) for _t, c, p in _segment_states(ctx)]
        whole = ctx.scorer.score_states(states)
        ctx.scorer.batch = 3
        assert ctx.scorer.score_states(states) == whole

    def test_single_processor_machine_is_degenerate(self):
        ctx, _prepared = _context("pops(1,1)", "processor-renewal")
        rows = ctx.scorer.score_states([(frozenset(), frozenset({0}))])
        assert rows[0]["alive_connectivity"] == 1.0


#: Summaries captured from the per-segment replay (one DegradedNetwork
#: plus Python BFS per segment) this kernel path replaced.
GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "temporal_replay.json")
    .read_text()
)


class TestGolden:
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_summary_matches_per_segment_replay(self, case):
        spec, process, metrics, traffic = case.split("|")
        matrix = (
            TrafficMatrix.uniform(build(spec).num_groups)
            if traffic != "-"
            else None
        )
        summary = repro.temporal_sweep(
            spec, process=process, faults=3, mtbf=40, mttr=15, horizon=300,
            trials=5, seed=11, metrics=metrics, messages=12, traffic=matrix,
            curve_points=8, workers=2 if metrics == "full" else 1,
        )
        assert json.loads(summary.to_json()) == GOLDEN[case]


class TestPathsRows:
    @pytest.mark.parametrize("spec", ["pops(2,3)", "sii(2,2,6)", "sops(4)"])
    def test_kernel_paths_rows_equal_path_survival(self, spec):
        ctx, prepared = _context(spec, "coupler-renewal", metrics="paths")
        assert ctx.kernel_paths and not ctx.needs_views
        segments = list(_segment_states(ctx))
        rows = ctx.scorer.score_states([(c, p) for _t, c, p in segments])
        for (trace, dead_c, dead_p), row in zip(segments, rows):
            view = DegradedNetwork(ctx.net, trace.scenario_for(dead_c, dead_p))
            _reach, _max, stretch, within = path_survival(
                view, prepared.plan.bound
            )
            assert (row["mean_stretch"], row["within_bound"]) == (
                stretch,
                within,
            )

    def test_structured_router_builds_views(self):
        ctx, _prepared = _context("sk(2,2,2)", "coupler-renewal", "paths")
        assert not ctx.kernel_paths and ctx.needs_views
        ctx, _prepared = _context("sk(2,2,2)", "coupler-renewal")
        assert not ctx.needs_views

    def test_full_and_traffic_build_views(self):
        ctx, _prepared = _context("pops(2,3)", "coupler-renewal", "full")
        assert ctx.kernel_paths and ctx.needs_views
        ctx, _prepared = _context(
            "pops(2,3)", "coupler-renewal", traffic=TrafficMatrix.uniform(3)
        )
        assert ctx.needs_views


class TestPersistentExecutor:
    def test_temporal_reuses_the_session_pool(self, monkeypatch):
        built = []
        real_pool = multiprocessing.Pool

        def counting_pool(*args, **kwargs):
            built.append(args)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
        kwargs = dict(faults=2, mtbf=40, mttr=15, horizon=150, trials=6,
                      seed=3)
        with Session(workers=2) as session:
            session.resilience_sweep(
                "sk(2,2,2)", trials=8, metrics="connectivity"
            )
            pooled = session.temporal_sweep("sk(2,2,2)", **kwargs)
            session.temporal_sweep("pops(2,3)", **kwargs)
            assert session.pools_started == 1
        assert len(built) == 1
        with Session() as session:
            inline = session.temporal_sweep("sk(2,2,2)", **kwargs)
        assert pooled.to_json() == inline.to_json()

    def test_replay_module_owns_no_pool(self):
        assert not hasattr(replay, "multiprocessing")
        for name in ("_init_temporal_worker", "_run_temporal_chunk",
                     "_WORKER_CTX"):
            assert not hasattr(replay, name)

    def test_worker_chunks_are_observed_as_temporal(self):
        with Session(workers=2) as session:
            session.temporal_sweep("sk(2,2,2)", trials=8, horizon=100)
        trials = REGISTRY.series("repro_sweep_trials_total")
        by_backend = {
            dict(key).get("backend"): counter.value
            for key, counter in trials.items()
        }
        assert by_backend == {"temporal": 8}
        waits = REGISTRY.series("repro_sweep_queue_wait_seconds")
        assert any(dict(key).get("backend") == "temporal" for key in waits)

    def test_inline_runs_reuse_cached_arrays(self, monkeypatch):
        exports = []
        real = _TopologyArrays.from_network.__func__

        def counting(cls, net):
            exports.append(net)
            return real(cls, net)

        monkeypatch.setattr(
            _TopologyArrays, "from_network", classmethod(counting)
        )
        with Session() as session:
            for seed in range(3):
                session.temporal_sweep("pops(2,3)", trials=2, horizon=80,
                                       seed=seed)
        assert len(exports) == 1  # the SpecCache entry's one export

    def test_summarize_histogram_per_verb(self):
        with Session() as session:
            session.resilience_sweep("pops(2,2)", trials=3,
                                     metrics="connectivity")
            session.temporal_sweep("pops(2,2)", trials=2, horizon=60)
            session.experiment(["pops(2,2)"], models=["coupler-renewal:1"],
                               trials=2)
        series = REGISTRY.series("repro_sweep_summarize_seconds")
        counts = {
            dict(key)["verb"]: hist.summary()["count"]
            for key, hist in series.items()
        }
        assert counts == {"sweep": 1, "temporal": 1, "experiment": 1}


class TestCandidateMemo:
    def test_mutating_results_never_corrupts_the_cache(self):
        x, y = (0, 1, 2), (2, 1, 0)
        expected = [list(p) for p in _build_candidates(x, y, 2)]
        first = candidate_paths(x, y, 2)
        assert first == expected
        first[0].append((9, 9, 9))
        first.pop()
        first.append([x])
        second = candidate_paths(x, y, 2)
        assert second == expected
        assert second is not first and second[0] is not first[0]

    def test_routes_are_fresh_lists(self):
        x, y = (0, 1), (2, 0)
        route = fault_tolerant_route(x, y, 2, FaultSet())
        snapshot = copy.deepcopy(route)
        route.append((1, 2))
        assert fault_tolerant_route(x, y, 2, FaultSet()) == snapshot

    def test_invalid_words_still_raise(self):
        with pytest.raises(ValueError, match="Kautz word"):
            candidate_paths((0, 0), (1, 2), 2)
        with pytest.raises(ValueError, match="equal length"):
            candidate_paths((0, 1), (1, 2, 0), 2)


class TestTopologyTables:
    @pytest.mark.parametrize(
        "spec", ["pops(2,3)", "sk(2,2,2)", "sii(2,2,6)", "sops(4)"]
    )
    def test_one_model_per_built_network(self, spec):
        net = build(spec)
        model = net.hypergraph_model()
        assert net.hypergraph_model() is model
        view = DegradedNetwork(
            net, FaultScenario(spec=spec, model="none", seed=0)
        )
        assert view._model is model

    @pytest.mark.parametrize("spec", ["pops(2,3)", "sk(2,2,2)", "sops(4)"])
    def test_processor_groups_match_label_of(self, spec):
        net = build(spec)
        groups = processor_groups(net)
        assert groups == tuple(
            group_of(net, p) for p in range(net.num_processors)
        )
        assert processor_groups(net) is groups
        view = DegradedNetwork(
            net, FaultScenario(spec=spec, model="none", seed=0)
        )
        with pytest.raises(IndexError):
            view._group_of(net.num_processors)
        with pytest.raises(IndexError):
            view._group_of(-1)
