"""The live-message engine and the per-view routing tables, against the
code they replaced.

The slotted engine now walks only unsettled messages, and a
``DegradedNetwork`` answers ``next_coupler``/``relay`` from tables
built once per view from one shared distance matrix.  The oracles
below are verbatim copies of the previous implementations: the
per-slot scan over every message and the per-call routing through a
reverse-BFS routing table.  Random traffic (drops, ``src == dst``,
staggered injection) and random fault states -- including the
temporal replay's slot-dependent router, which swaps views between
slots -- must give identical message histories, slot logs and busy
counts.  The remaining tests pin the caches (intact distances,
coupler endpoints, Kautz word tables, the distance matrix) as
per-network and unmodifiable
through anything they hand out, and the overlap-only curve binning
against the scan of every segment per bin.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build
from repro.core.families import _kautz_word_tables
from repro.core.registry import family_for_network
from repro.resilience.degrade import DegradedNetwork
from repro.resilience.faults import FaultScenario, coupler_endpoints
from repro.resilience.metrics import (
    _connectivity_counts,
    _intact_distances,
    path_survival,
)
from repro.routing.tables import build_routing_table
from repro.simulation.engine import Message, SlotStats, SlottedSimulator
from repro.simulation.protocol import (
    FurthestFirst,
    OldestFirst,
    RandomChoice,
    RoundRobin,
)
from repro.temporal.replay import _bin_curve

SPECS = ("pops(2,3)", "sk(2,2,2)", "sii(2,2,6)", "sii(2,3,5)", "sops(4)")
NETS = {spec: build(spec) for spec in SPECS}
POLICIES = {
    "oldest": OldestFirst,
    "round-robin": RoundRobin,
    "random": lambda: RandomChoice(seed=2),
    "furthest": FurthestFirst,
}


# ----------------------------------------------------------------------
# Oracles: the replaced code, verbatim
# ----------------------------------------------------------------------
class OracleSimulator(SlottedSimulator):
    """The engine as it was: every message re-scanned on every slot."""

    def run(self, max_slots: int = 100_000) -> None:
        while not self.all_settled():
            if self._now >= max_slots:
                stuck = [m.ident for m in self.messages if not m.settled]
                raise RuntimeError(
                    f"slot cap {max_slots} reached with messages stuck: {stuck[:10]}"
                )
            self.step()

    def all_settled(self) -> bool:
        return all(m.settled for m in self.messages)

    def step(self) -> SlotStats:
        now = self._now
        # Messages delivered at injection (src == dst) cost zero slots.
        for m in self.messages:
            if not m.settled and m.inject_slot <= now and m.current == m.dst:
                m.deliver_slot = max(m.inject_slot, now)

        # Gather requests: active messages ask for their next coupler.
        requests: dict[int, list[Message]] = {}
        dropped = 0
        for m in self.messages:
            if m.settled or m.inject_slot > now:
                continue
            coupler = self.next_coupler(m.current, m)
            if coupler < 0 or coupler in self.disabled_couplers:
                if not self._allow_drops:
                    # intact engine: a bad coupler is a routing bug
                    raise RuntimeError(
                        f"routing returned invalid coupler {coupler} "
                        f"for message {m.ident} at {m.current}"
                    )
                m.drop_slot = now
                dropped += 1
                continue
            ha = self.network.hyperarc(coupler)
            if m.current not in ha.sources:
                raise RuntimeError(
                    f"routing returned coupler {coupler} not sourced at {m.current}"
                )
            requests.setdefault(coupler, []).append(m)

        transmissions = 0
        contended = 0
        delivered = 0
        for coupler, msgs in requests.items():
            # One transmitter per (processor, coupler): a processor
            # holding several messages for one coupler still sends one.
            winner = self.policy.pick(msgs, now)
            if len(msgs) > 1:
                contended += 1
            transmissions += 1
            self.coupler_busy[coupler] += 1
            relay = self.relay_of(coupler, winner)
            ha = self.network.hyperarc(coupler)
            if relay not in ha.targets:
                raise RuntimeError(
                    f"relay {relay} is not a target of coupler {coupler}"
                )
            winner.current = relay
            winner.hops += 1
            winner.trace.append(coupler)
            if relay == winner.dst:
                winner.deliver_slot = now
                delivered += 1

        stats = SlotStats(now, transmissions, contended, delivered, dropped)
        self.slot_log.append(stats)
        self._now += 1
        return stats


class OracleRouting:
    """A degraded view's per-call routing as it was (reverse-BFS table,
    arc->coupler dict, sibling closed-walk search per group)."""

    def __init__(self, view: DegradedNetwork) -> None:
        self.view = view
        self._table = None
        self._arc_coupler = None
        self._sibling_hop: dict[int, int] = {}

    def _routing(self):
        if self._table is None or self._arc_coupler is None:
            base = self.view.surviving_base()
            self._table = build_routing_table(base.without_loops())
            arc_coupler: dict[tuple[int, int], int] = {}
            for c, (u, v) in enumerate(self.view._endpoints):
                if c in self.view.dead_couplers:
                    continue
                arc_coupler.setdefault((u, v), c)
            self._arc_coupler = arc_coupler
        return self._table, self._arc_coupler

    def _sibling_first_hop(self, group: int) -> int:
        if group in self._sibling_hop:
            return self._sibling_hop[group]
        table, arc_coupler = self._routing()
        if (group, group) in arc_coupler:
            return group
        best, best_len = -1, -1
        for u, v in sorted(arc_coupler):
            if u != group or v == group:
                continue
            back = table.distance(v, group)
            if back < 0:
                continue
            if best_len < 0 or 1 + back < best_len:
                best, best_len = v, 1 + back
        self._sibling_hop[group] = best
        return best

    def next_coupler(self, holder: int, msg: Message) -> int:
        view = self.view
        if msg.src in view.dead_processors or msg.dst in view.dead_processors:
            return -1
        table, arc_coupler = self._routing()
        gu = view._group_of(holder)
        gv = view._group_of(msg.dst)
        if gu == gv:
            nxt = self._sibling_first_hop(gu)
        else:
            nxt = table.next_hop(gu, gv)
        if nxt < 0:
            return -1
        return arc_coupler.get((gu, nxt), -1)

    def relay(self, coupler: int, msg: Message) -> int:
        view = self.view
        targets = [
            t
            for t in view._model.hyperarc(coupler).targets
            if t not in view.dead_processors
        ]
        if msg.dst in targets:
            return msg.dst
        if not targets:
            raise RuntimeError(f"coupler {coupler} has no surviving targets")
        return targets[msg.dst % len(targets)]


def _old_bin_curve(segvals, horizon: int, points: int) -> list[float]:
    curve = []
    for b in range(points):
        lo = horizon * b / points
        hi = horizon * (b + 1) / points
        acc = math.fsum(
            max(0.0, min(stop, hi) - max(start, lo)) * value
            for start, stop, value in segvals
        )
        curve.append(acc / (hi - lo))
    return curve


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _view(spec, couplers=(), processors=()) -> DegradedNetwork:
    scenario = FaultScenario(
        spec, "custom", 0, frozenset(couplers), frozenset(processors)
    )
    return DegradedNetwork(NETS[spec], scenario)


def _outcome(sim: SlottedSimulator):
    return (
        [
            (m.ident, m.current, m.hops, m.deliver_slot, m.drop_slot, m.trace)
            for m in sim.messages
        ],
        [dataclasses.astuple(s) for s in sim.slot_log],
        list(sim.coupler_busy),
        sim.now,
    )


def _loop_couplers(view: DegradedNetwork) -> list[int]:
    return [c for c, (u, v) in enumerate(view._endpoints) if u == v]


@st.composite
def _faults(draw, spec):
    net = NETS[spec]
    m = net.hypergraph_model().num_hyperarcs
    couplers = draw(st.frozensets(st.integers(0, m - 1), max_size=4))
    processors = draw(
        st.frozensets(st.integers(0, net.num_processors - 1), max_size=2)
    )
    return couplers, processors


@st.composite
def _traffic(draw, spec):
    n = NETS[spec].num_processors
    return draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),  # src == dst allowed
                st.integers(0, n - 1),
                st.integers(0, 4),  # staggered injection
            ),
            min_size=1,
            max_size=30,
        )
    )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class TestEngineAgainstOracle:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_degraded_runs_match(self, data):
        spec = data.draw(st.sampled_from(SPECS))
        couplers, processors = data.draw(_faults(spec))
        traffic = data.draw(_traffic(spec))
        policy = data.draw(st.sampled_from(sorted(POLICIES)))
        view = _view(spec, couplers, processors)
        new = view.simulator(POLICIES[policy]())
        old_view = _view(spec, couplers, processors)
        routing = OracleRouting(old_view)
        old = OracleSimulator(
            old_view._model,
            routing.next_coupler,
            relay_of=routing.relay,
            policy=POLICIES[policy](),
            disabled_couplers=old_view.dead_couplers,
        )
        for sim in (new, old):
            sim.inject(traffic)
            sim.run()
        assert _outcome(new) == _outcome(old)
        assert new.all_settled() and new.verify_conservation()

    @settings(max_examples=40)
    @given(data=st.data())
    def test_intact_runs_match(self, data):
        spec = data.draw(st.sampled_from(SPECS))
        traffic = data.draw(_traffic(spec))
        policy = data.draw(st.sampled_from(sorted(POLICIES)))
        net = NETS[spec]
        new = family_for_network(net).simulator(net, POLICIES[policy]())
        twin = family_for_network(net).simulator(net, POLICIES[policy]())
        old = OracleSimulator(
            twin.network,
            twin.next_coupler,
            relay_of=twin.relay_of,
            policy=twin.policy,
        )
        for sim in (new, old):
            sim.inject(traffic)
            sim.run()
        assert _outcome(new) == _outcome(old)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_slot_dependent_router_matches(self, data):
        """The temporal replay's router: the view swaps at segment
        starts, and a dead holder loses its message."""
        spec = data.draw(st.sampled_from(SPECS))
        states = data.draw(st.lists(_faults(spec), min_size=1, max_size=3))
        starts = [0] + sorted(
            data.draw(
                st.lists(
                    st.integers(1, 12),
                    min_size=len(states) - 1,
                    max_size=len(states) - 1,
                )
            )
        )
        traffic = data.draw(_traffic(spec))
        policy = data.draw(st.sampled_from(sorted(POLICIES)))

        def churned(make_router, engine):
            routers = [make_router(_view(spec, c, p)) for c, p in states]
            views = [_view(spec, c, p) for c, p in states]
            cursor = {"segment": 0}

            def next_coupler(holder, msg):
                if holder in views[cursor["segment"]].dead_processors:
                    return -1
                return routers[cursor["segment"]].next_coupler(holder, msg)

            def relay(coupler, msg):
                return routers[cursor["segment"]].relay(coupler, msg)

            sim = engine(
                NETS[spec].hypergraph_model(),
                next_coupler,
                relay_of=relay,
                policy=POLICIES[policy](),
                disabled_couplers=frozenset(),
            )
            sim.inject(traffic)
            while not sim.all_settled() and sim.now < 40:
                while (
                    cursor["segment"] + 1 < len(starts)
                    and sim.now >= starts[cursor["segment"] + 1]
                ):
                    cursor["segment"] += 1
                sim.step()
            return _outcome(sim)

        assert churned(lambda v: v, SlottedSimulator) == churned(
            OracleRouting, OracleSimulator
        )

    def test_all_settled_tracks_late_injection(self):
        view = _view("sk(2,2,2)")
        sim = view.simulator()
        assert sim.all_settled()
        sim.inject([(0, 5, 0)])
        assert not sim.all_settled()
        sim.run()
        sim.inject([(3, 3, sim.now), (1, 6, sim.now + 2)])
        assert not sim.all_settled()
        sim.run()
        assert sim.all_settled() and sim.all_delivered()
        assert [m.ident for m in sim.messages] == [0, 1, 2]

    def test_slot_cap_names_the_stuck_messages(self):
        net = NETS["sk(2,2,2)"]
        traffic = [(0, 11, 0), (2, 2, 0), (4, 9, 0), (1, 10, 0), (3, 7, 2)]
        errors = []
        for engine in (SlottedSimulator, OracleSimulator):
            twin = family_for_network(net).simulator(net)
            sim = engine(twin.network, twin.next_coupler)
            sim.inject(traffic)
            with pytest.raises(RuntimeError, match="stuck") as caught:
                sim.run(max_slots=2)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]


# ----------------------------------------------------------------------
# The per-view tables
# ----------------------------------------------------------------------
def _table_cases():
    for spec in SPECS:
        view = _view(spec)
        loops = _loop_couplers(view)
        n = NETS[spec].num_processors
        yield spec, (), ()
        yield spec, tuple(loops), ()  # every loop coupler dead
        yield spec, tuple(loops[:1]), (0, n - 1)
        yield spec, (1, 2), (n // 2,)


class TestNextCouplerTable:
    @pytest.mark.parametrize("spec,couplers,processors", list(_table_cases()))
    def test_every_pair_matches_per_call_routing(
        self, spec, couplers, processors
    ):
        view = _view(spec, couplers, processors)
        oracle = OracleRouting(_view(spec, couplers, processors))
        n = NETS[spec].num_processors
        for holder in range(n):
            for dst in range(n):
                if holder == dst:
                    continue  # the engine delivers these, never routes them
                for src in {holder, (holder + 1) % n}:
                    msg = Message(0, src, dst, 0, current=holder)
                    assert view.next_coupler(holder, msg) == oracle.next_coupler(
                        holder, msg
                    ), (holder, src, dst)

    @pytest.mark.parametrize("spec,couplers,processors", list(_table_cases()))
    def test_relay_matches_per_call_filter(self, spec, couplers, processors):
        view = _view(spec, couplers, processors)
        oracle = OracleRouting(view)
        for coupler in range(view._model.num_hyperarcs):
            if coupler in view.dead_couplers:
                continue
            for dst in range(NETS[spec].num_processors):
                msg = Message(0, 0, dst, 0)
                assert view.relay(coupler, msg) == oracle.relay(coupler, msg)

    def test_out_of_range_processor_is_the_networks_error(self):
        view = _view("sk(2,2,2)")
        with pytest.raises((IndexError, ValueError)):
            view.next_coupler(99, Message(0, 0, 1, 0))
        with pytest.raises((IndexError, ValueError)):
            view.next_coupler(0, Message(0, 0, -3, 0))

    def test_one_distance_pass_per_view(self, monkeypatch):
        from repro.graphs.digraph import DiGraph

        calls = []
        real = DiGraph.bfs_distances
        monkeypatch.setattr(
            DiGraph,
            "bfs_distances",
            lambda self, u: calls.append(u) or real(self, u),
        )
        view = _view("sk(2,2,2)", (0, 5), (3,))
        view.next_coupler(0, Message(0, 0, 9, 0))
        _connectivity_counts(view)
        assert len(calls) == NETS["sk(2,2,2)"].num_groups


# ----------------------------------------------------------------------
# The caches
# ----------------------------------------------------------------------
class TestCaches:
    def test_distance_matrix_is_read_only(self):
        view = _view("sk(2,2,2)", (0,), ())
        dist = view.group_distances()
        with pytest.raises(ValueError):
            dist[0, 1] = 7
        reach = _connectivity_counts(view)[3]
        reach[0][1] = 99  # a caller's copy: the view does not see it
        assert view.group_distances()[0, 1] != 99
        assert _connectivity_counts(view)[:3] == _connectivity_counts(
            _view("sk(2,2,2)", (0,), ())
        )[:3]

    def test_intact_distances_are_per_network_and_immutable(self):
        small, large = build("sk(2,2,2)"), build("sk(1,2,3)")
        rows = _intact_distances(small)
        assert rows is _intact_distances(small)
        assert len(rows) == small.num_groups
        assert len(_intact_distances(large)) == large.num_groups
        with pytest.raises(TypeError):
            rows[0][1] = 5
        intact = small.base_graph().without_loops()
        assert rows == tuple(
            tuple(int(d) for d in intact.bfs_distances(u))
            for u in range(small.num_groups)
        )
        assert _intact_distances(build("sops(4)")) is None

    def test_coupler_endpoints_are_per_network_and_immutable(self):
        small, large = build("pops(2,3)"), build("pops(3,4)")
        ends = coupler_endpoints(small)
        assert ends is coupler_endpoints(small)
        assert len(ends) == small.num_couplers
        assert len(coupler_endpoints(large)) == large.num_couplers
        assert ends == tuple(
            (int(u), int(v)) for u, v in small.base_graph().arc_array().tolist()
        )
        with pytest.raises(TypeError):
            ends[0] = (1, 1)

    def test_word_tables_are_per_network(self):
        for spec in ("sk(2,2,2)", "sk(1,3,2)", "sk(2,2,1)"):
            net = build(spec)
            words, group_of_word = _kautz_word_tables(net)
            assert words == tuple(
                net.group_word(g) for g in range(net.num_groups)
            )
            assert all(group_of_word[w] == g for g, w in enumerate(words))
            assert _kautz_word_tables(net)[0] is words

    def test_fault_routes_are_fresh_lists(self):
        view = _view("sk(2,2,2)", (1,), ())
        first = view.fault_route(0, 4)
        first.append(99)
        again = view.fault_route(0, 4)
        assert again is not first and 99 not in again
        assert path_survival(view) == path_survival(_view("sk(2,2,2)", (1,), ()))

    def test_structured_route_range_errors_unchanged(self):
        net = build("sk(2,2,2)")
        family = family_for_network(net)
        view = _view("sk(2,2,2)")
        with pytest.raises(IndexError, match="out of range"):
            family.fault_route(net, 0, net.num_groups, view)
        with pytest.raises(IndexError, match="out of range"):
            family.fault_route(net, -1, 2, view)


# ----------------------------------------------------------------------
# The curve binning
# ----------------------------------------------------------------------
@st.composite
def _signal(draw):
    horizon = draw(st.integers(1, 400))
    cuts = sorted(draw(st.sets(st.integers(1, horizon - 1), max_size=12))) if horizon > 1 else []
    bounds = [0, *cuts, horizon]
    values = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 0.5]),
                st.floats(0.0, 1.0, allow_nan=False),
            ),
            min_size=len(bounds) - 1,
            max_size=len(bounds) - 1,
        )
    )
    segs = [(a, b, v) for a, b, v in zip(bounds, bounds[1:], values)]
    return segs, horizon, draw(st.integers(1, 64))


class TestBinCurve:
    @settings(max_examples=150)
    @given(_signal())
    def test_matches_scan_of_every_segment(self, case):
        segs, horizon, points = case
        assert _bin_curve(segs, horizon, points) == _old_bin_curve(
            segs, horizon, points
        )
