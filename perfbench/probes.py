"""Native floors and micro-probes: the numbers that bracket the layers
from below.

Run as ``python probes.py <out_dir>`` in a pinned child of ``run.py``;
prints one JSON object ``{metric: value}``.  Every probe times public
functions only, makes at least 10,000 calls and reports the median of
``BATCHES`` batches.

* ``native.*`` are what the host gives with no Converse at all: a TCP
  loopback ping-pong between pinned processes, directly and through a
  relay process (the topology of the ``mp`` hub), a two-thread
  ``queue.Queue`` ping-pong (the thread switch under the simulator).
  The loop that calibrates the host, ``native.pyloop_ns``, runs in
  ``child.py`` around every repetition.
* ``core.*``, ``tracing.*`` and ``metrics.*`` time one public operation
  of a layer in isolation.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import queue
import socket
import statistics
import struct
import sys
import threading
import time
from typing import Any, Callable, Dict, List

BATCHES = 5
CALLS = 4000          # per batch
ROUND_TRIPS = 2000    # per batch, for the ping-pong floors
QUEUE_DEPTH = 1024
LARGE_BYTES = 64 * 1024


def per_call_ns(fn: Callable[[], Any], calls: int = CALLS) -> float:
    """Median over the batches of (batch wall time / calls), in ns."""
    batches = []
    for _ in range(BATCHES):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        batches.append((time.perf_counter_ns() - t0) / calls)
    return statistics.median(batches)


# ----------------------------------------------------------------------
# native floors
# ----------------------------------------------------------------------

def queue_rtt_us() -> float:
    """Two threads, two ``queue.Queue``s, one token."""
    ping: "queue.Queue[Any]" = queue.Queue()
    pong: "queue.Queue[Any]" = queue.Queue()

    def echo() -> None:
        while True:
            item = ping.get()
            if item is None:
                return
            pong.put(item)

    thread = threading.Thread(target=echo, name="probe-echo")
    thread.start()
    try:
        medians = []
        for _ in range(BATCHES):
            samples = []
            for i in range(ROUND_TRIPS):
                t0 = time.perf_counter_ns()
                ping.put(i)
                pong.get()
                samples.append(time.perf_counter_ns() - t0)
            medians.append(statistics.median(samples))
    finally:
        ping.put(None)
        thread.join()
    return statistics.median(medians) / 1e3


_FRAME = struct.Struct("!I")


def _send(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(_FRAME.pack(len(payload)) + payload)


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise EOFError
        buf += chunk
    return buf


def _recv(sock: socket.socket) -> bytes:
    (n,) = _FRAME.unpack(_recv_exactly(sock, _FRAME.size))
    return _recv_exactly(sock, n)


def _listen() -> socket.socket:
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    return srv


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _accept(srv: socket.socket) -> socket.socket:
    conn, _addr = srv.accept()
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def echo_process(port_pipe: Any) -> None:
    """Accept one connection and echo frames until it closes."""
    with _listen() as srv:
        port_pipe.send(srv.getsockname()[1])
        with _accept(srv) as conn:
            try:
                while True:
                    _send(conn, _recv(conn))
            except EOFError:
                pass


def relay_process(port_pipe: Any, echo_port: int) -> None:
    """Forward frames between one client and the echo process: the hop
    the ``mp`` hub adds to every message."""
    with _listen() as srv, _connect(echo_port) as upstream:
        port_pipe.send(srv.getsockname()[1])
        with _accept(srv) as conn:
            try:
                while True:
                    _send(upstream, _recv(conn))
                    _send(conn, _recv(upstream))
            except EOFError:
                pass


def socket_rtt_us(relay: bool) -> float:
    """8-byte length-prefixed TCP loopback ping-pong between this process
    and an echo process (both on the one pinned CPU), optionally through
    a relay process."""
    ctx = multiprocessing.get_context("spawn")
    procs: List[Any] = []

    def start(target: Callable[..., None], *args: Any) -> int:
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=target, args=(child,) + args)
        proc.start()
        procs.append(proc)
        if not parent.poll(30):
            raise RuntimeError(f"{target.__name__} did not come up")
        return parent.recv()

    try:
        port = start(echo_process)
        if relay:
            port = start(relay_process, port)
        medians = []
        with _connect(port) as sock:
            payload = b"8 bytes!"
            for _ in range(200):  # warm the path
                _send(sock, payload)
                _recv(sock)
            for _ in range(BATCHES):
                samples = []
                for _ in range(ROUND_TRIPS):
                    t0 = time.perf_counter_ns()
                    _send(sock, payload)
                    _recv(sock)
                    samples.append(time.perf_counter_ns() - t0)
                medians.append(statistics.median(samples))
    finally:
        for proc in reversed(procs):
            proc.join(10)
            if proc.is_alive():
                proc.kill()
                proc.join()
    return statistics.median(medians) / 1e3


# ----------------------------------------------------------------------
# one public operation of one layer
# ----------------------------------------------------------------------

def layer_probes(out_dir: str) -> Dict[str, float]:
    from repro import BitVector, Message
    from repro.core.pool import MessagePool
    from repro.core.queueing import make_queue
    from repro.metrics.registry import MetricsRegistry
    from repro.tracing.tracer import JsonlTracer

    out: Dict[str, float] = {}
    small, large = b"8 bytes!", bytes(LARGE_BYTES)
    msg = Message(3, small, size=8)
    wire = msg.pack()
    big = Message(3, large, size=LARGE_BYTES)
    out["core.message.construct_ns"] = per_call_ns(lambda: Message(3, small, size=8))
    out["core.message.pack_ns"] = per_call_ns(msg.pack)
    out["core.message.unpack_ns"] = per_call_ns(lambda: Message.unpack(wire))
    out["core.message.pickle_ns"] = per_call_ns(
        lambda: pickle.loads(pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)))
    out["core.message.pickle_large_us"] = per_call_ns(
        lambda: pickle.loads(pickle.dumps(big, pickle.HIGHEST_PROTOCOL))) / 1e3

    pool = MessagePool()

    def pool_cycle() -> None:
        buf = pool.acquire(3, small, 8, None, 0)
        buf.mark_cmi_owned()
        buf.recycle()
        pool.release(buf)

    out["core.pool.acquire_release_ns"] = per_call_ns(pool_cycle)

    prios: Dict[str, List[Any]] = {
        "fifo": [None] * QUEUE_DEPTH,
        "int": [(i * 2654435761) % 4096 for i in range(QUEUE_DEPTH)],
        "bitvector": [BitVector(format((i * 2654435761) % 4096, "012b"))
                      for i in range(QUEUE_DEPTH)],
    }
    for strategy, table in prios.items():
        q = make_queue(strategy)
        for i, prio in enumerate(table):
            q.push(i, prio)
        state = {"i": 0}

        def push_pop(q: Any = q, table: List[Any] = table, state: Dict[str, int] = state) -> None:
            i = state["i"] = (state["i"] + 1) % QUEUE_DEPTH
            q.push(i, table[i])
            q.pop()

        out[f"core.queueing.{strategy}_ns_per_op"] = per_call_ns(push_pop)

    path = os.path.join(out_dir, "probe-trace.jsonl")
    tracer = JsonlTracer(path)
    try:
        fields = {"handler": 3, "size": 8, "src": 0, "msg": 17}
        out["tracing.jsonl_record_ns"] = per_call_ns(
            lambda: tracer.record(0, 1.25e-3, "receive", fields))
    finally:
        tracer.close()
        os.unlink(path)
    counter = MetricsRegistry().counter("probe.count")
    out["metrics.registry.counter_inc_ns"] = per_call_ns(lambda: counter.inc(0))
    return out


def run_all(out_dir: str) -> Dict[str, float]:
    # The socket floors start processes with spawn, before this process
    # has any thread of its own.
    out = {
        "native.socket_direct_rtt_us_p50": socket_rtt_us(relay=False),
        "native.socket_relay_rtt_us_p50": socket_rtt_us(relay=True),
        "native.queue_rtt_us_p50": queue_rtt_us(),
    }
    out.update(layer_probes(out_dir))
    return out


if __name__ == "__main__":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(json.dumps(run_all(sys.argv[1])))
