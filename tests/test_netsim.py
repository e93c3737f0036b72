import hashlib
import math
from collections import Counter
from random import Random

import pytest

from rawasim.core import Block, Message, MessageType, derive_cid
from rawasim.netsim import LinkSpec, Observer, Simulator, link_delay
from rawasim.rawa import RaWaConfig
from rawasim.runner import ExperimentConfig, build_run

from conftest import ZERO_JITTER, leg_ms


class Recorder:
    """Minimal engine that remembers everything delivered to it."""

    def __init__(self):
        self.messages = []

    def handle_message(self, frm, msg, tag=None):
        self.messages.append((frm, msg, tag))


def two_node_sim(link=ZERO_JITTER, seed=1):
    sim = Simulator(link, Random(seed), Observer(keep_trace=True))
    recorders = {}
    for node in (0, 1):
        sim.add_node(node)
        recorders[node] = Recorder()
        sim.attach(node, recorders[node])
    sim.add_edge(0, 1)
    return sim, recorders


def msg(cid_tag=b"m"):
    return Message(MessageType.WANT_HAVE, derive_cid(Block(cid_tag, len(cid_tag))))


def test_link_delay_formula_small_message():
    delay = link_delay(ZERO_JITTER, 44, Random(1))
    assert delay == pytest.approx(100.042, abs=5e-4)


def test_link_delay_formula_large_block():
    delay = link_delay(ZERO_JITTER, 153_644, Random(1))
    assert delay == pytest.approx(246.526, abs=5e-3)


def test_link_delay_jitter_bounds():
    link = LinkSpec(100.0, 10.0, ZERO_JITTER.bandwidth_bytes_per_s)
    rng = Random(7)
    ser = leg_ms(44) - 100.0
    for _ in range(2000):
        delay = link_delay(link, 44, rng)
        assert 90.0 + ser <= delay <= 110.0 + ser


def test_link_spec_validation():
    with pytest.raises(ValueError):
        LinkSpec(latency_ms=5.0, jitter_ms=10.0)
    with pytest.raises(ValueError):
        LinkSpec(bandwidth_bytes_per_s=0)
    for bad in (dict(latency_ms=math.inf), dict(latency_ms=math.nan),
                dict(jitter_ms=math.nan), dict(bandwidth_bytes_per_s=math.nan),
                dict(bandwidth_bytes_per_s=-math.inf)):
        with pytest.raises(ValueError):
            LinkSpec(**bad)


def test_send_delivers_once():
    sim, recorders = two_node_sim()
    assert sim.send(0, 1, msg())
    sim.run()
    assert len(recorders[1].messages) == 1
    assert sim.now == pytest.approx(leg_ms(44))


def test_send_requires_link():
    sim, recorders = two_node_sim()
    sim.add_node(2)
    sim.attach(2, Recorder())
    assert not sim.send(0, 2, msg())
    assert sim.observer.drops and sim.observer.drops[0][-1] == "send-no-link"


def test_departure_drops_in_flight():
    sim, recorders = two_node_sim()
    sim.send(0, 1, msg())
    sim.schedule_departure(1, at=50.0)
    sim.run()
    assert recorders[1].messages == []
    assert any(reason == "in-flight-loss" for *_, reason in sim.observer.drops)


def test_departure_removes_edges():
    sim, _ = two_node_sim()
    sim.schedule_departure(1, at=10.0)
    sim.run()
    assert not sim.reachable(0, 1)
    assert not sim.is_alive(1)


def test_fifo_per_directed_link_under_jitter():
    # second send races the first with adverse jitter; delivery keeps order
    link = LinkSpec(100.0, 30.0, ZERO_JITTER.bandwidth_bytes_per_s)
    for seed in range(30):
        sim = Simulator(link, Random(seed), Observer(keep_trace=True))
        rec = Recorder()
        for node in (0, 1):
            sim.add_node(node)
        sim.attach(1, rec)
        sim.attach(0, Recorder())
        sim.add_edge(0, 1)
        first = Message(MessageType.WANT_HAVE, derive_cid(Block(b"a", 1)))
        second = Message(MessageType.WANT_HAVE, derive_cid(Block(b"b", 1)))
        sim.send(0, 1, first)
        sim.schedule(1.0, "later", lambda s=sim, m=second: s.send(0, 1, m))
        sim.run()
        assert [m.cid for _, m, _ in rec.messages] == [first.cid, second.cid]


def test_dial_costs_one_round_trip():
    sim, _ = two_node_sim()
    sim.add_node(2)
    sim.attach(2, Recorder())
    dials = []
    sim.dial(0, 2, dials.append)
    sim.run()
    assert dials == [True]
    assert sim.reachable(0, 2)
    assert sim.now == pytest.approx(200.0)


def test_dial_to_departed_peer_fails():
    sim, _ = two_node_sim()
    sim.add_node(2)
    sim.attach(2, Recorder())
    sim.schedule_departure(2, at=0.0)
    dials = []
    sim.schedule(1.0, "dial", lambda: sim.dial(0, 2, dials.append))
    sim.run()
    assert dials == [False]
    assert not sim.reachable(0, 2)


def test_dial_existing_neighbor_is_immediate_noop():
    sim, _ = two_node_sim()
    dials = []
    sim.dial(0, 1, dials.append)
    sim.run()
    assert dials == [True]
    assert sim.now == 0.0


def test_dial_cost_disabled_by_multiplier():
    sim = Simulator(ZERO_JITTER, Random(1), Observer(), dial_rtt_multiplier=0.0)
    rec = Recorder()
    for node in (0, 1):
        sim.add_node(node)
    sim.attach(0, rec)
    dials = []
    sim.dial(0, 1, dials.append)
    sim.run()
    assert dials == [True]
    assert sim.now == 0.0 and sim.reachable(0, 1)


def test_dial_and_departure_are_timers_of_their_node():
    sim, _ = two_node_sim()
    sim.add_node(2)
    sim.attach(2, Recorder())
    dials = []
    sim.dial(1, 2, dials.append)
    sim.dial(0, 2, dials.append)
    sim.schedule_departure(0, at=50.0)
    sim.run()
    # the departed dialler's dial dies with it; the other one completes
    assert dials == [True]
    assert sim.reachable(1, 2) and not sim.reachable(0, 2)
    timers = [(t, node, label) for t, _, kind, node, _, label, _, _
              in sim.observer.trace if kind == "timer"]
    assert timers == [(50.0, 0, "depart"), (200.0, 1, "dial:P2")]


def test_trace_export_line_format():
    sim, _ = two_node_sim()
    sim.send(0, 1, msg())
    sim.run()
    lines = list(sim.observer.trace_lines())
    assert len(lines) == 2  # one send, one deliver
    time_ms, seq, kind, frm, to, variant, cid8, size = lines[0].split(",")
    assert kind == "send" and frm == "P0" and to == "P1"
    assert variant == "WANT-HAVE" and size == "44" and len(cid8) == 8
    assert float(time_ms) == 0.0


def test_run_empty_queue():
    sim, _ = two_node_sim()
    assert sim.run() == 0
    assert sim.now == 0.0


def test_run_single_timer_advances_clock():
    sim, _ = two_node_sim()
    fired = []
    sim.schedule(5.0, "t", lambda: fired.append(sim.now))
    assert sim.run() == 1
    assert fired == [5.0]
    assert sim.now == 5.0


def test_run_until_bound_leaves_later_events():
    sim, _ = two_node_sim()
    fired = []
    sim.schedule(5.0, "a", lambda: fired.append("a"))
    sim.schedule(50.0, "b", lambda: fired.append("b"))
    sim.run(until=10.0)
    assert fired == ["a"]
    sim.run()
    assert fired == ["a", "b"]


def test_cancelled_timer_does_not_fire():
    """A cancelled handle is an ordinary timer that calls nothing: it still
    counts as an executed event and writes its own trace row."""
    sim, _ = two_node_sim()
    fired = []
    timer = sim.schedule(5.0, "t", lambda: fired.append(1))
    sim.schedule(7.0, "u", lambda: fired.append(2), node=1)
    timer.cancel()
    assert sim.run() == 2
    assert fired == [2]
    assert [row[:6] for row in sim.observer.trace] == [
        (5.0, 1, "timer", -1, -1, "t"), (7.0, 2, "timer", 1, 1, "u")]


def test_clock_monotone_and_trace_deterministic():
    def run_once():
        link = LinkSpec(100.0, 10.0, ZERO_JITTER.bandwidth_bytes_per_s)
        sim = Simulator(link, Random(99), Observer(keep_trace=True))
        for node in range(4):
            sim.add_node(node)
            sim.attach(node, Recorder())
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            sim.add_edge(a, b)
        for i in range(4):
            sim.schedule(float(i), f"burst{i}",
                         lambda i=i: sim.send(i, (i + 1) % 4, msg(bytes([i]))))
        sim.run()
        times = [rec[0] for rec in sim.observer.trace]
        assert times == sorted(times)
        return hashlib.sha256("\n".join(sim.observer.trace_lines()).encode()).hexdigest()

    digests = {run_once() for _ in range(5)}
    assert len(digests) == 1


def test_livelock_cap():
    sim, _ = two_node_sim()
    sim.livelock_cap = 10

    def rearm():
        sim.schedule(1.0, "loop", rearm)

    rearm()
    with pytest.raises(RuntimeError, match="livelock"):
        sim.run()


def test_observer_counters_read_absent_as_zero_and_keep_first_send_order():
    """Reading an absent variant gives 0 and adds no key; after a run both
    counters equal a `Counter` rebuilt from the send rows, key order
    included (the order of each variant's first send)."""
    observer = Observer()
    for counter in (observer.msg_counts, observer.bytes_by_variant):
        assert counter["WANT-HAVE"] == 0
        assert counter.get("BLOCK") is None and "WANT-HAVE" not in counter
        assert list(counter) == []
    config = ExperimentConfig(protocol="rawa", adversary="fse", n_peers=16,
                              runs=1, base_seed=5, keep_trace=True,
                              rawa=RaWaConfig(p=0.5, eta=2))
    handles = build_run(config, 0)
    handles.sim.run()
    observer = handles.sim.observer
    counts, sizes = Counter(), Counter()
    for rec in observer.trace:
        if rec[2] == "send":
            counts[rec[5]] += 1
            sizes[rec[5]] += rec[7]
    assert len(counts) >= 5
    assert list(observer.msg_counts.items()) == list(counts.items())
    assert list(observer.bytes_by_variant.items()) == list(sizes.items())
    assert observer.msg_counts["no-such-variant"] == 0
    assert list(observer.msg_counts) == list(counts)
