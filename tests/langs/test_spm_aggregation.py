"""SPM receives under ``aggregation=``: a batch wrapper's handler is the
aggregator's, never the one a blocking receive waits for, so every SPM
drain opens batches into the side buffer before it matches, and every
blocking wait flushes this PE's own batches before it parks."""

from __future__ import annotations

import pytest

from repro.langs.mpi import MPI
from repro.langs.nx import NX
from repro.langs.pvm import PVM
from repro.langs.sm import SM
from repro.sim.machine import Machine

ROUNDS = 50


def pvm_pingpong():
    p = PVM.get()
    got = []
    for i in range(ROUNDS):
        if p.mytid() == 0:
            p.send(1, 1, i)
            got.append(p.recv(1, 2).data)
        else:
            got.append(p.recv(0, 1).data)
            p.send(0, 2, -i)
    return got


def nx_pingpong():
    x = NX.get()
    got = []
    for i in range(ROUNDS):
        if x.mynode() == 0:
            x.csend(1, i, 1)
            got.append(x.msgwait(x.irecv(2)))
        else:
            got.append(x.crecv(1))
            x.csend(2, -i, 0)
    return got


def sm_pingpong():
    s = SM.get()
    got = []
    for i in range(ROUNDS):
        if s.my_pe == 0:
            s.send(1, 1, i)
            got.append(s.recv(tag=2)[2])
        else:
            got.append(s.recv(tag=1)[2])
            s.send(0, 2, -i)
    return got


def mpi_pingpong():
    comm = MPI.get().COMM_WORLD
    got = []
    for i in range(ROUNDS):
        if comm.rank == 0:
            comm.send(i, 1, tag=1)
            got.append(comm.irecv(1, tag=2).wait())
        else:
            got.append(comm.recv(0, tag=1))
            comm.send(-i, 0, tag=2)
    return got


def _run(lang, main, **kwargs):
    with Machine(2, **kwargs) as m:
        lang.attach(m)
        m.launch(main)
        assert m.run() == "quiescent"
        return m.results()


@pytest.mark.parametrize("lang, main", [
    (PVM, pvm_pingpong), (NX, nx_pingpong), (SM, sm_pingpong), (MPI, mpi_pingpong),
], ids=["pvm", "nx", "sm", "mpi"])
def test_pingpong_under_aggregation_returns_the_plain_results(lang, main):
    plain = _run(lang, main)
    assert plain == [[-i for i in range(ROUNDS)], list(range(ROUNDS))]
    assert _run(lang, main, aggregation=True) == plain


def test_a_batch_is_opened_in_order_before_matching():
    """Three SM messages ride one batch; the receive for the last tag
    claims it and leaves the other two side-buffered in send order."""

    def main():
        s = SM.get()
        if s.my_pe == 0:
            for tag in (1, 2, 3):
                s.send(1, tag, f"t{tag}")
            return None
        last = s.recv(tag=3)[2]
        return [last, s.recv()[2], s.recv()[2]]

    assert _run(SM, main, aggregation=True) == [None, ["t3", "t1", "t2"]]
