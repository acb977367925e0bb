"""Stateful test of the work-conserving scheduler.

A hypothesis state machine interleaves ``submit``, ``poll``, ``drain``
and client-side ``retire`` against one :class:`QueryScheduler`, over
block caps 1-8, both block orders and the v2 optimizer forced to one
partition (``share_bound=inf``).  Whatever the interleaving:

* every ticket completes exactly once, with the answers of a direct
  ``Database.similarity_query``;
* whatever a call completes is a FIFO prefix of the queue, at most one
  cap long, and ``poll()`` on a non-empty queue always completes the
  oldest ticket;
* a finished block leaves nothing buffered in the session.
"""

import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import Database, knn_query, range_query

VECTORS = np.random.default_rng(17).random((150, 3))
QTYPES = (knn_query(1), knn_query(4), range_query(0.0), range_query(0.15))
MODES = (("fifo", "v1"), ("affinity", "v1"), ("fifo", "v2"), ("affinity", "v2"))


def make_db():
    return Database(VECTORS, access="xtree", block_size=512)


REFERENCE = make_db()
_expected: dict[tuple[int, int], list[tuple[int, float]]] = {}


def expected(index, qtype_id):
    key = (index, qtype_id)
    if key not in _expected:
        answers = REFERENCE.similarity_query(VECTORS[index], QTYPES[qtype_id])
        _expected[key] = [(a.index, a.distance) for a in answers]
    return _expected[key]


class SchedulerMachine(RuleBasedStateMachine):
    @initialize(
        cap=st.integers(1, 8),
        max_queue=st.integers(1, 16),
        mode=st.sampled_from(MODES),
    )
    def open(self, cap, max_queue, mode):
        order, optimizer = mode
        options = {"share_bound": math.inf} if optimizer == "v2" else {}
        self.cap = cap
        self.scheduler = make_db().serve(
            max_block=cap,
            max_queue=max_queue,
            order=order,
            optimizer=optimizer,
            **options,
        )
        #: (ticket, dataset index, qtype id) in submission order.
        self.submitted = []
        #: id(ticket) -> (completed_tick, completed_at) when first seen done.
        self.stamps = {}

    def queued(self):
        return [ticket for ticket, _, _ in self.submitted if not ticket.done]

    def check_completed(self, before):
        """The tickets a call completed are a FIFO prefix, <= one cap per
        block, and answer exactly."""
        done = [ticket for ticket in before if ticket.done]
        assert done == before[: len(done)]
        for ticket, index, qtype_id in self.submitted:
            if ticket.done and id(ticket) not in self.stamps:
                assert 1 <= ticket.batch_size <= self.cap
                answers = [(a.index, a.distance) for a in ticket.answers]
                assert answers == expected(index, qtype_id)
                self.stamps[id(ticket)] = (ticket.completed_tick, ticket.completed_at)
        return done

    @rule(
        index=st.integers(0, len(VECTORS) - 1),
        qtype_id=st.integers(0, len(QTYPES) - 1),
        with_index=st.booleans(),
    )
    def submit(self, index, qtype_id, with_index):
        before = self.queued()
        ticket = self.scheduler.submit(
            VECTORS[index],
            QTYPES[qtype_id],
            client_id=index % 3,
            db_index=index if with_index else None,
        )
        self.submitted.append((ticket, index, qtype_id))
        assert not ticket.done
        self.check_completed(before)

    @rule()
    def poll(self):
        before = self.queued()
        self.scheduler.poll()
        done = self.check_completed(before)
        if before:
            assert before[0].done
            assert len(done) <= self.cap
        else:
            assert not done

    @rule()
    def drain(self):
        before = self.queued()
        self.scheduler.drain()
        assert self.check_completed(before) == before
        assert self.scheduler.queue_depth == 0

    @precondition(lambda self: self.submitted)
    @rule(data=st.data())
    def retire(self, data):
        """A client abandons a ticket: the session forgets its key, and
        the ticket still completes (the server just drops the result)."""
        ticket, _, _ = data.draw(st.sampled_from(self.submitted))
        self.scheduler.session.retire(ticket.key)

    @invariant()
    def completes_once_and_leaves_nothing_buffered(self):
        for ticket, _, _ in self.submitted:
            if id(ticket) in self.stamps:
                assert self.stamps[id(ticket)] == (
                    ticket.completed_tick,
                    ticket.completed_at,
                )
                processor = self.scheduler.session.processor
                assert processor.lookup(ticket.key) is None

    def teardown(self):
        if not hasattr(self, "scheduler"):
            return
        before = self.queued()
        self.scheduler.drain()
        assert self.check_completed(before) == before
        assert len(self.stamps) == len(self.submitted)


SchedulerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestSchedulerMachine = SchedulerMachine.TestCase
