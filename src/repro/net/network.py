"""Message-passing network with AZ latencies, partitions and RPC.

Messages between hosts are delayed by the Table I latency for the AZ pair
(see :mod:`repro.net.topology`) and dropped when the destination is down or
partitioned away.  Delivery is FIFO per (src, dst) route: a message never
arrives before one sent earlier on its route, whatever the link's latency
did in between.  A one-way message dropped on delivery is reported to the
``on_lost`` callback of its kind, if any (a subscriber noticing its stream
broke).  Each delivery is counted on its (src, dst) route, and
each read of ``Network.traffic`` sums the routes into a new
:class:`~repro.net.traffic.TrafficMatrix`.  A request is delivered by
calling the handler its destination registered; one sent to an address
with no handler (a client host, a server not yet started) is dropped.  A
reply completes its RPC in the delivery itself.  RPCs fail fast with
:class:`HostUnreachableError` when their peer dies or is cut off —
modelling the TCP connection reset a real client would observe.  An RPC
whose caller dies is dropped: nothing is left to hear its reply.
"""

from __future__ import annotations

import itertools
from heapq import heappush
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Optional

from ..errors import HostUnreachableError, NetworkError, RpcTimeoutError
from ..sim import Environment, Event
from ..sim.kernel import PRIORITY_NORMAL, _PENDING, _Deferred  # hot paths inline kernel scheduling
from ..types import AzId, NodeAddress
from .topology import Topology
from .traffic import TrafficMatrix

__all__ = ["Message", "Network", "DEFAULT_MESSAGE_BYTES"]

DEFAULT_MESSAGE_BYTES = 256


# What ``Message.extra`` is until somebody has something to put there: one
# shared, read-only empty mapping, so a message costs no dict of its own.
_NO_EXTRA: Mapping = MappingProxyType({})


class Message:
    """One network message.  ``rpc_id`` links requests to replies.

    ``extra`` carries out-of-band request metadata (deadline, retry id,
    span ids).  Readers use ``msg.extra.get(...)``; a writer must first
    install a dict of its own (``msg.extra = {...}``), because the default
    is shared by every message and rejects writes.  ``route`` is filled by
    :meth:`Network.send` for :meth:`Network._deliver`.
    """

    __slots__ = (
        "src", "dst", "kind", "payload", "size", "rpc_id", "is_reply", "ok",
        "extra", "route",
    )

    def __init__(
        self,
        src: NodeAddress,
        dst: NodeAddress,
        kind: str,
        payload: Any = None,
        size: int = DEFAULT_MESSAGE_BYTES,
        rpc_id: Optional[int] = None,
        is_reply: bool = False,
        ok: bool = True,
        extra: Mapping = _NO_EXTRA,
    ):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size = size
        self.rpc_id = rpc_id
        self.is_reply = is_reply
        self.ok = ok
        self.extra = extra
        self.route = None

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name != "route"
        )
        return f"Message({fields})"


class _Route:
    """Everything ``send``/``_deliver`` need to know about one (src, dst),
    and the pair's delivered traffic.

    Resolved once per pair from the two hosts' placement, which is fixed
    when a host is added (``Topology.add_host`` only ever adds hosts), so a
    record never goes stale.  ``bytes``/``messages`` count what
    ``_deliver`` delivered on the pair; ``Network.traffic`` reads them.
    ``last`` is the latest arrival scheduled on the pair: the FIFO floor.
    """

    __slots__ = ("src", "dst", "latency", "cross_az", "az_pair", "bytes", "messages",
                 "last")

    def __init__(self, src: NodeAddress, dst: NodeAddress, latency: float,
                 src_az: AzId, dst_az: AzId):
        self.src = src
        self.dst = dst
        self.latency = latency  # Table I base delay: no degradation
        self.cross_az = src_az != dst_az
        self.az_pair = (src_az, dst_az)
        self.bytes = 0
        self.messages = 0
        self.last = 0.0


class _Rpc(Event):
    """Completion event of one RPC, carrying its own endpoints.

    One object per call in the pending table instead of an event plus a
    ``(done, src, dst)`` tuple.  Built by :meth:`Network.call`.
    """

    __slots__ = ("src", "dst")


class Network:
    """The simulated region network."""

    def __init__(
        self,
        env: Environment,
        topology: Topology,
        az_link_bandwidth_bytes_per_ms: Optional[float] = None,
    ):
        self.env = env
        self.topology = topology
        # Routes in the order of their first delivery: the traffic matrix's
        # order, which is the order ``TrafficMatrix.record`` would keep.
        self._delivered: list[_Route] = []
        # Finite inter-AZ fabric capacity: every cross-AZ message queues on
        # the shared regional interconnect.  Intra-AZ traffic is uncapped —
        # the paper's Section III-C2 asymmetry (inter-AZ bandwidth is the
        # scarce, billed resource; "network I/O becomes a bottleneck" at
        # scale, Section V-B1).  None disables the cap.
        self.az_link_bandwidth = az_link_bandwidth_bytes_per_ms
        self._fabric_drain_at = 0.0
        self._handlers: dict[NodeAddress, Callable[[Message], None]] = {}
        self._down: set[NodeAddress] = set()
        # Each partition entry is a pair of AZ-id frozensets that cannot talk.
        self._partitions: list[tuple[frozenset[AzId], frozenset[AzId]]] = []
        self._rpc_ids = itertools.count(1)
        self._pending: dict[int, _Rpc] = {}
        self.dropped_messages = 0
        # kind -> callback(message) for a one-way message of that kind that
        # is dropped on delivery.
        self.on_lost: dict[str, Callable[[Message], None]] = {}
        # Replies that arrived after their RPC already timed out / failed.
        self.late_replies = 0
        # Fault injection: extra one-way latency per (src AZ, dst AZ) pair.
        # ``None`` (the default) keeps the hot path to a single attribute
        # load + identity check in ``_latency``.
        self._degraded: Optional[dict[tuple[AzId, AzId], float]] = None
        self._routes: dict[tuple[NodeAddress, NodeAddress], _Route] = {}
        # Same-instant delivery coalescing (see send()): the deferred heap
        # entry of the most recent delivery, the (time, seq) at which it
        # was scheduled, and whether it already carries a message list.
        self._batch_time = -1.0
        self._batch_seq = -1
        self._batch_entry = None
        self._batch_is_list = False
        # One bound method for the network's lifetime, not one per message.
        self._deliver_cb = self._deliver

    @property
    def traffic(self) -> TrafficMatrix:
        """What has been delivered so far, summed from the routes."""
        return TrafficMatrix.of_routes(self._delivered)

    # -- membership ---------------------------------------------------------
    def register(self, address: NodeAddress, handler: Callable[[Message], None]) -> None:
        """Deliver every request to ``address`` by calling ``handler(message)``.

        One handler per address: registering again replaces it.  The handler
        runs inside the delivery, so it must not block — it starts a task or
        acts inline.
        """
        self.topology.host(address)  # validates placement
        self._handlers[address] = handler

    def is_up(self, address: NodeAddress) -> bool:
        return address not in self._down

    def set_down(self, address: NodeAddress) -> None:
        """Crash a host: drop mail delivered to it, fail RPCs awaiting it.

        The RPCs it issued die with it: they leave the pending table
        without firing, so no reply, even one that arrives after a restart,
        resumes work of the life that issued them."""
        if address in self._down:
            return
        self._down.add(address)
        pending = self._pending
        for rpc_id in [rpc_id for rpc_id, rpc in pending.items() if rpc.src == address]:
            # Its waiters go with it: a condition observing an event that
            # never fires would be a reference cycle.
            rpc = pending.pop(rpc_id)
            rpc._cb1 = None
            rpc._cbs = None
        self._fail_pending(lambda src, dst: dst == address)

    def set_up(self, address: NodeAddress) -> None:
        self._down.discard(address)

    # -- partitions -----------------------------------------------------------
    def partition_azs(self, group_a: Iterable[AzId], group_b: Iterable[AzId]) -> None:
        """Cut connectivity between two groups of AZs (split brain)."""
        pair = (frozenset(group_a), frozenset(group_b))
        if pair[0] & pair[1]:
            raise NetworkError("partition groups overlap")
        self._partitions.append(pair)
        # In-flight RPCs across the cut observe a connection reset.
        self._fail_pending(lambda src, dst: not self.reachable(src, dst))

    def heal_partitions(self) -> None:
        self._partitions.clear()

    # -- link degradation -------------------------------------------------------
    def degrade_link(self, az_a: AzId, az_b: AzId, extra_ms: float) -> None:
        """Add ``extra_ms`` of one-way latency between two AZs (both ways).

        Models a degraded inter-AZ link (congestion, a flapping peering
        session) without cutting connectivity.  Replaces any previous
        degradation for the pair.
        """
        if extra_ms < 0:
            raise NetworkError(f"negative link degradation {extra_ms!r}")
        if self._degraded is None:
            self._degraded = {}
        self._degraded[(az_a, az_b)] = extra_ms
        self._degraded[(az_b, az_a)] = extra_ms

    def restore_links(self) -> None:
        """Remove all link degradations."""
        self._degraded = None

    def reachable(self, src: NodeAddress, dst: NodeAddress) -> bool:
        if src in self._down or dst in self._down:
            return False
        if not self._partitions:
            return True
        az_src, az_dst = self.topology.az_of(src), self.topology.az_of(dst)
        for group_a, group_b in self._partitions:
            if (az_src in group_a and az_dst in group_b) or (
                az_src in group_b and az_dst in group_a
            ):
                return False
        return True

    # -- messaging ------------------------------------------------------------
    def _latency(self, route: _Route) -> float:
        """The route's base delay under link degradation."""
        base = route.latency
        if self._degraded is not None:
            extra = self._degraded.get(route.az_pair)
            if extra:
                base += extra
        return base

    def _route(self, src: NodeAddress, dst: NodeAddress) -> _Route:
        """The pair's record, resolved and stored on first use."""
        route = self._routes.get((src, dst))
        if route is None:
            topology = self.topology
            route = self._routes[(src, dst)] = _Route(
                src, dst, topology.latency(src, dst), topology.az_of(src), topology.az_of(dst))
        return route

    # send() hand-inlines the route hit, the fabric queue and the deferred
    # delivery entry (Environment.schedule_at): it runs once per message.
    # Keep in sync with kernel internals, as CorePool.submit does.
    def send(
        self,
        message: Message,
        _dnew=_Deferred.__new__,
        _deferred=_Deferred,
        _push=heappush,
        _normal=PRIORITY_NORMAL,
    ) -> None:
        """Fire-and-forget delivery after the AZ-pair latency.

        Consecutive sends resolving to the *same* delivery instant with no
        other scheduling in between are coalesced onto one deferred heap
        entry, so a fan-out RPC round costs O(1) kernel events instead of
        O(messages).  This cannot reorder anything: coalescing requires the
        batched entry's sequence numbers to be consecutive (no entry can
        sort between them), latencies are strictly positive (the entry has
        not been dispatched yet), and messages fire in append order.  A
        sequence number is still consumed per message so traces line up
        with the unbatched schedule; with ``env.trace`` active, batching is
        disabled outright so every delivery is individually recorded.

        The fault-free path reads the pair's :class:`_Route` and nothing
        else; ``_latency`` runs only while a link is degraded, and yields
        the same float either way.  The arrival is never earlier than the
        route's last one, so a link whose latency falls (``restore_links``,
        a smaller ``degrade_link``) cannot let a message overtake one sent
        before it; a tie keeps send order by sequence number.
        """
        env = self.env
        now = env.now
        src = message.src
        if self._down and src in self._down:
            self.dropped_messages += 1
            return
        dst = message.dst
        route = self._routes.get((src, dst))
        if route is None:
            route = self._route(src, dst)
        message.route = route
        if self._degraded is None:
            delay = route.latency
        else:
            delay = self._latency(route)
        if route.cross_az and self.az_link_bandwidth is not None:
            # Queueing delay on the finite-bandwidth inter-AZ fabric.
            duration = message.size / self.az_link_bandwidth
            start = self._fabric_drain_at
            if start < now:  # max(now, drain_at) without the call
                start = now
            self._fabric_drain_at = start + duration
            delay += self._fabric_drain_at - now
        when = now + delay
        if when < route.last:
            when = route.last
        route.last = when
        if when == self._batch_time and env._seq == self._batch_seq and env.trace is None:
            entry = self._batch_entry
            if self._batch_is_list:
                entry.arg.append(message)
            else:
                entry.arg = [entry.arg, message]
                entry.fn = self._deliver_batch
                self._batch_is_list = True
            env._seq += 1  # parity with one-entry-per-message scheduling
            self._batch_seq = env._seq
        else:
            entry = self._batch_entry = _dnew(_deferred)
            entry.fn = self._deliver_cb
            entry.arg = message
            env._seq += 1
            _push(env._queue, (when, _normal, env._seq, entry))
            self._batch_time = when
            self._batch_seq = env._seq
            self._batch_is_list = False

    def _deliver_batch(self, messages: list) -> None:
        deliver = self._deliver
        for message in messages:
            deliver(message)

    def _deliver(self, message: Message, _unset=_PENDING, _normal=PRIORITY_NORMAL) -> None:
        src = message.src
        dst = message.dst
        if (self._down or self._partitions) and not self.reachable(src, dst):
            self._drop(message)
            return
        # Count the delivery on its route; ``traffic`` reads the routes.
        route = message.route  # None if the message never went through send()
        if route is None:
            route = self._route(src, dst)
        route.bytes += message.size
        if route.messages:
            route.messages += 1
        else:
            route.messages = 1
            self._delivered.append(route)
        if message.is_reply:
            # Complete the caller's RPC here.  Success is done.succeed()
            # inlined: the event is call()'s own and pending, so its value
            # and one ready entry are all there is to it.
            done = self._pending.pop(message.rpc_id, None)
            if done is None:
                # Caller gave up (timeout) / already failed: deterministic discard.
                self.late_replies += 1
            elif done._value is _unset:
                if message.ok:
                    done._value = message.payload
                    env = self.env
                    env._seq += 1
                    env._ready.append((env.now, _normal, env._seq, done))
                else:
                    exc = message.payload
                    if not isinstance(exc, BaseException):
                        exc = NetworkError(f"remote error: {exc!r}")
                    done.fail(exc)
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self._drop(message)
            return
        handler(message)

    def _drop(self, message: Message) -> None:
        """A message that cannot be delivered: a request fails its RPC, a
        one-way message is reported to its kind's ``on_lost``."""
        self.dropped_messages += 1
        if message.rpc_id is None:
            lost = self.on_lost.get(message.kind)
            if lost is not None:
                lost(message)
        elif not message.is_reply:
            self._fail_rpc(message.rpc_id)

    # -- RPC --------------------------------------------------------------------
    def call(
        self,
        src: NodeAddress,
        dst: NodeAddress,
        kind: str,
        payload: Any = None,
        size: int = DEFAULT_MESSAGE_BYTES,
        parent_span=None,
        timeout_ms: Optional[float] = None,
        extra: Optional[dict] = None,
        _new=_Rpc.__new__,
        _cls=_Rpc,
        _unset=_PENDING,
    ) -> Event:
        """Send a request; the returned event triggers with the reply payload.

        Fails with :class:`HostUnreachableError` if the peer is (or becomes)
        unreachable, or with the remote exception if the handler replied
        with ``ok=False``.

        ``timeout_ms`` arms a DES timer that fails the call with
        :class:`RpcTimeoutError` if no reply arrived in time; a reply that
        shows up later finds the RPC gone from the pending table and is
        discarded deterministically (counted in ``late_replies``).  The
        timer always consumes exactly one sequence number at schedule time
        and fires as a no-op when the call already completed, so traced
        and untraced runs replay the same schedule.

        ``extra`` entries are copied into ``Message.extra`` (deadlines,
        retry ids).  ``parent_span`` links the RPC into an active trace;
        the request carries the span id in ``Message.extra`` so the remote
        handler can parent its own spans under this call.
        """
        env = self.env
        rpc_id = next(self._rpc_ids)
        # Hand-inlined Event construction, as Environment.event() does.
        done = _new(_cls)
        done.env = env
        done._cb1 = None
        done._cbs = None
        done._value = _unset
        done._ok = True
        done._defused = False
        done.src = src
        done.dst = dst
        if src not in self._down:  # else it died with its caller (set_down)
            self._pending[rpc_id] = done
        message = Message(src, dst, kind, payload, size, rpc_id)
        if extra:
            message.extra = dict(extra)
        obs = env.obs
        if obs is not None:
            self._trace_call(obs, message, done, parent_span)
        self.send(message)
        if timeout_ms is not None:
            env.schedule_after(timeout_ms, self._rpc_timeout, rpc_id)
        return done

    def _rpc_timeout(self, rpc_id: int) -> None:
        done = self._pending.pop(rpc_id, None)
        if done is None:
            return  # reply already arrived (timer fires as a no-op)
        if not done.triggered:
            done.fail(RpcTimeoutError(f"rpc to {done.dst} timed out"))

    def _trace_call(self, obs, message: Message, done: Event, parent_span) -> None:
        """Open an ``rpc.<kind>`` span closed when the reply event fires.

        Recording only: no kernel events are scheduled and no sequence
        numbers or RNG draws are consumed, so traced and untraced runs
        replay the same schedule (the finish callback rides the reply
        event's existing trigger).
        """
        src_az = self.topology.az_of(message.src)
        dst_az = self.topology.az_of(message.dst)
        span = obs.tracer.start(
            f"rpc.{message.kind}",
            parent=parent_span,
            host=str(message.src),
            dst=str(message.dst),
            src_az=src_az,
            dst_az=dst_az,
            cross_az=src_az != dst_az,
            size=message.size,
        )
        message.extra = {**message.extra, "span_id": span.span_id}
        link = "cross_az" if src_az != dst_az else "intra_az"
        obs.registry.counter(f"net.rpc.{link}").inc()
        obs.registry.counter(f"net.rpc.{link}_bytes").inc(message.size)
        tracer = obs.tracer

        def _finish(event, _tracer=tracer, _span=span):
            _tracer.finish(_span, ok=event._ok)

        done.add_callback(_finish)

    @staticmethod
    def reply_message(
        request: Message,
        payload: Any = None,
        ok: bool = True,
        size: int = DEFAULT_MESSAGE_BYTES,
    ) -> Message:
        """The reply to ``request``, addressed back to its caller, unsent."""
        if request.rpc_id is None:
            raise NetworkError(f"message {request.kind!r} is not an RPC request")
        return Message(request.dst, request.src, request.kind, payload, size,
                       request.rpc_id, True, ok)

    def reply(
        self,
        request: Message,
        payload: Any = None,
        ok: bool = True,
        size: int = DEFAULT_MESSAGE_BYTES,
    ) -> None:
        """Send the reply for ``request`` back to its caller."""
        self.send(self.reply_message(request, payload, ok, size))

    def _fail_rpc(self, rpc_id: int) -> None:
        done = self._pending.pop(rpc_id, None)
        if done is None:
            return
        if not done.triggered:
            done.fail(HostUnreachableError(f"{done.dst} unreachable"))

    def _fail_pending(self, severed) -> None:
        doomed = [
            rpc_id
            for rpc_id, rpc in self._pending.items()
            if severed(rpc.src, rpc.dst)
        ]
        for rpc_id in doomed:
            self._fail_rpc(rpc_id)
