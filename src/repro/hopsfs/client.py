"""The HopsFS DFS client.

Clients pick one metadata server and stick with it until it fails
(Section II-A2).  In HopsFS-CL the selection is AZ-local: the client asks
the leader-maintained membership list for servers sharing its
``locationDomainId`` and falls back to a random live server (Section
IV-B3, ``locationDomainId`` 0 disables the affinity).

One request loop serves every op, bounded by one part built from the
config: :class:`~repro.hopsfs.robust.RobustBounds` with ``robust`` on
(deadline, RPC timeouts, back-off, breakers, hedged reads, retry ids for
exactly-once replay) or :class:`~repro.hopsfs.robust.FailStopBounds`
without it — the fail-stop client, at most ``client_max_failovers``
retries.  The elastic tier's part refreshes the server list from the
leader-maintained view; a fixed pool's does nothing.
"""

from __future__ import annotations

import math
from typing import Optional

from ..errors import (
    DeadlineExceededError,
    FsError,
    HostUnreachableError,
    NoNamenodeError,
    RpcTimeoutError,
    ServerBusyError,
    ServerDrainingError,
)
from ..fsclient import FsClient
from ..net.network import Network
from ..obs.metrics import count
from ..sim import Environment, RngRegistry
from ..types import ANY_AZ, AzId, NodeAddress, OpType
from .config import HopsFsConfig
from .datanode import ReadBlockReq, WriteBlockReq
from .elastic import membership_refresh
from .groupcommit import GroupAck
from .metadata import BLOCK_SIZE_BYTES, SMALL_FILE_MAX_BYTES
from .robust import request_bounds

__all__ = ["HopsFsClient"]


class HopsFsClient(FsClient):
    """A file-system client bound to one simulated host.

    Its streams come from ``rngs`` by its address: ``client:<index>`` for
    server selection and, with ``robust`` on, ``client:<index>:retry`` for
    back-off jitter — its own, so enabling retries never perturbs the
    selection draws (determinism contract).
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        addr: NodeAddress,
        namenode_addrs,
        rngs: RngRegistry,
        config: HopsFsConfig = HopsFsConfig(),
        location_domain_id: AzId = ANY_AZ,
    ):
        self.env = env
        self.network = network
        self.addr = addr
        self.namenode_addrs = list(namenode_addrs)
        # ``az`` is what spans and time series file this client under.
        self.az = self.location_domain_id = location_domain_id
        self.rng = rngs.stream(f"client:{addr.index}")
        self.request_bytes = config.client_request_bytes
        self.bounds = request_bounds(config, env, addr, rngs)
        self.current_nn: Optional[NodeAddress] = None
        self.failovers = 0
        self.timeouts = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.busy_rejections = 0
        self.bootstrap_exhaustions = 0
        # (op, deadline_expires_ms, finished_ms) for ops that outlived their
        # deadline by more than the one-hop slack — the chaos deadline
        # invariant reads this.
        self.deadline_overruns: list[tuple] = []
        # Async group commit: highest durability horizon acked to this
        # client, and the horizons not yet confirmed by an fsync barrier.
        self.durability_horizon = 0
        self._pending_horizons: set[int] = set()
        # Servers that bounced us with ServerDrainingError: skipped by
        # selection and membership refresh until they leave the advertised
        # view for good (the view still lists them while they drain).
        self._draining_nns: set[NodeAddress] = set()
        self.membership_refreshes = 0
        # The elastic tier's client part: its refresh period (None on a
        # fixed pool, which starts no loop).
        self.membership_refresh_ms = membership_refresh(self, config.elastic)

    # ------------------------------------------------------- NN selection
    def refresh_membership(self):
        """Generator: one membership-refresh round against any live NN.

        On success the active view *replaces* the bootstrap list, and all
        per-NN client state keyed by address — circuit breakers, the sticky
        current NN, and thereby the hedge-candidate set (which is drawn
        from ``namenode_addrs``) — is dropped for NNs no longer in the
        view, so a decommissioned NN can never be picked as a hedge target
        or leak breaker entries.
        """
        candidates = [] if self.current_nn is None else [self.current_nn]
        candidates += [nn for nn in self.namenode_addrs if nn not in candidates]
        # Breakers are consulted lazily, as each candidate comes up.
        active = yield from self._probe_membership(
            nn for nn in candidates if not self.bounds.is_open(nn)
        )
        if active:  # empty ⇒ election not converged: keep the old view
            self._apply_membership(active)
        # None ⇒ every candidate unreachable this round: retry next period.

    def _probe_membership(self, candidates, deadline: float = math.inf):
        """Generator: the active-NN view from the first candidate to answer.

        Returns None when none did.  Every probe is bounded as the bounds
        part says (robust: by the RPC timeout and by what is left of the
        op's ``deadline``).
        """
        bounds = self.bounds
        for nn in candidates:
            try:
                active = yield self.network.call(
                    self.addr, nn, "get_active_nns", size=self.request_bytes,
                    timeout_ms=bounds.probe_timeout_ms(deadline),
                )
                return active
            except HostUnreachableError:
                continue
            except RpcTimeoutError:
                self.timeouts += 1
                bounds.failed(nn)
        return None

    def _discard_namenode(self, nn: Optional[NodeAddress]) -> None:
        """Drop one server from the local view (it told us it is leaving).

        The drop is sticky: the draining server stays in the advertised
        membership view until its drain finishes, so without the tombstone
        the next refresh or discovery round would re-add it and we would
        bounce off it again.
        """
        if nn is None:
            return
        self._draining_nns.add(nn)
        self.namenode_addrs = [a for a in self.namenode_addrs if a != nn]
        self.bounds.forget(nn)
        if self.current_nn == nn:
            self.current_nn = None

    def _apply_membership(self, active) -> None:
        view = [entry[1] for entry in active]
        # Draining servers gone from the view are gone for good (handles
        # are never reused); the ones still advertised stay tombstoned.
        self._draining_nns.intersection_update(view)
        addrs = [a for a in view if a not in self._draining_nns]
        self.namenode_addrs = addrs
        current = set(addrs)
        self.bounds.retain(current)
        if self.current_nn is not None and self.current_nn not in current:
            self.current_nn = None
        self.membership_refreshes += 1

    def _pick_namenode(self, deadline: float):
        """Fetch the active-NN list from any live NN, then apply the policy.

        NNs behind an open circuit breaker are skipped — unless every
        breaker is open, in which case the client fails open and tries
        them all rather than giving up without a single packet.  The
        fail-stop bounds keep no breakers, so the filters keep everything.
        """
        bounds = self.bounds
        bootstrap = list(self.namenode_addrs)
        self.rng.shuffle(bootstrap)
        closed = [nn for nn in bootstrap if not bounds.is_open(nn)]
        if closed:
            bootstrap = closed
        active = yield from self._probe_membership(bootstrap, deadline)
        if active is None:
            # Bootstrap exhausted every candidate: that is a failover event
            # too — count it so trace/metric breakdowns see these ops.
            self.failovers += 1
            self.bootstrap_exhaustions += 1
            # With a deadline, an empty view is exhausted without one probe:
            # a failing op must cost simulated time, or a closed loop spins
            # at one instant.
            yield from bounds.backoff(1, deadline, None)
            raise NoNamenodeError("no metadata server reachable")
        if not active:
            # Election has not yet converged; fall back to the static list.
            active = [(i, nn, 0) for i, nn in enumerate(bootstrap)]
        if self._draining_nns:
            undrained = [a for a in active if a[1] not in self._draining_nns]
            if undrained:
                active = undrained
        closed = [a for a in active if not bounds.is_open(a[1])]
        if closed:
            active = closed
        if self.location_domain_id != ANY_AZ:
            local = [a for a in active if a[2] == self.location_domain_id]
            if local:
                self.current_nn = self.rng.choice(local)[1]
                return self.current_nn
        self.current_nn = self.rng.choice(active)[1]
        return self.current_nn

    # ------------------------------------------------------------ operations
    def _request_loop(self, op: OpType, kwargs, span):
        """The one request loop: stick to an NN, fail over when it fails.

        The bounds part sets the deadline, the RPC timeouts, the back-off,
        the breakers, hedging and the retry id; the fail-stop bounds have
        none of them, a budget of ``client_max_failovers`` and a fail-over
        that costs no simulated time.  The loop stores its failure count in
        ``last_op_failures`` as it exits; whoever resumes next (driver,
        traced wrapper) reads it before anything else can run, so ops
        overlapping on one stub each see their own count.  Caught errors
        are kept without their traceback and no failed call's event sits
        in a local, so a finished op closes no reference cycle (DESIGN §4
        rule 1).
        """
        env = self.env
        bounds = self.bounds
        deadline, extra, hedged = bounds.start(op)
        attempt = failures = 0
        last_error = None
        try:
            while True:
                if env.now >= deadline:
                    count(env, "client.deadline_exceeded")
                    raise DeadlineExceededError(
                        f"{op.value}: client deadline expired"
                    ) from last_error
                if self.current_nn is None:
                    yield from self._pick_namenode(deadline)
                try:
                    if hedged:
                        result = yield from self._hedged(op, kwargs, span, deadline, extra)
                    else:
                        result = yield self.network.call(
                            self.addr, self.current_nn, "fs_op", (op, kwargs),
                            size=self.request_bytes, parent_span=span,
                            timeout_ms=bounds.rpc_timeout_ms(deadline), extra=extra,
                        )
                    bounds.succeeded(self.current_nn)
                    if type(result) is GroupAck:
                        result = self._early_ack(result)
                    return result
                except (RpcTimeoutError, HostUnreachableError) as exc:
                    # The NN is dead, or (a timeout: gray failure) alive but
                    # slow; either way route elsewhere.
                    last_error = exc.with_traceback(None)
                    if isinstance(exc, RpcTimeoutError):
                        self.timeouts += 1
                    bounds.failed(self.current_nn)
                    self.current_nn = None
                    self.failovers += 1
                    failures += 1
                except ServerDrainingError as exc:
                    # Operator-ordered drain, not overload: the server will
                    # never take this op, so drop it from the local view at
                    # once (membership refresh would do it ~a period later)
                    # and go straight at a peer without backing off.
                    last_error = exc.with_traceback(None)
                    count(env, "client.drain_redirects")
                    self._discard_namenode(self.current_nn)
                except ServerBusyError as exc:
                    # Shed by admission control: honor it with backoff and
                    # spread the retry over the other servers.
                    last_error = exc.with_traceback(None)
                    self.busy_rejections += 1
                    self.current_nn = None
                attempt += 1
                if attempt > bounds.budget:
                    raise NoNamenodeError(
                        f"{op.value}: retry budget exhausted ({bounds.budget} retries)"
                    ) from last_error
                if type(last_error) is not ServerDrainingError:
                    yield from bounds.backoff(attempt, deadline, last_error)
        finally:
            # Drivers read this into OpResult.retries for per-op breakdowns.
            self.last_op_failures = failures
            if env.now - deadline > bounds.op_timeout_ms:
                # The deadline invariant's slack is one hop (one RPC
                # timeout); anything beyond it is a contract violation.
                self.deadline_overruns.append((op.value, deadline, env.now))

    def _early_ack(self, ack: GroupAck):
        """Record the horizon an async-commit early ack rides; returns the
        plain result."""
        self._pending_horizons.add(ack.horizon)
        if ack.horizon > self.durability_horizon:
            self.durability_horizon = ack.horizon
        return ack.result

    def _hedged(self, op: OpType, kwargs, span, deadline: float, extra):
        """One hedged read: wait the hedge delay; if the primary has not
        answered, fire the same request at a different NN and take the
        first reply.  The loser's reply (or timeout) resolves through the
        abandoned event — callback-suppressed and defused, never raised.

        Both events leave the frame before an error does, so the error's
        traceback closes no cycle through them.
        """
        env = self.env
        bounds = self.bounds
        primary_nn = self.current_nn
        primary = self.network.call(
            self.addr, primary_nn, "fs_op", (op, kwargs),
            size=self.request_bytes, parent_span=span,
            timeout_ms=bounds.rpc_timeout_ms(deadline), extra=extra,
        )
        try:
            yield env.any_of([primary, env.timeout(bounds.hedge_delay_ms)])
            if primary.triggered:
                if primary.ok:
                    return primary.value
                raise primary.value
            alt_nn = self._hedge_target(primary_nn)
            if alt_nn is None:
                return (yield primary)
            self.hedges += 1
            hedge = self.network.call(
                self.addr, alt_nn, "fs_op", (op, kwargs),
                size=self.request_bytes, parent_span=span,
                timeout_ms=bounds.rpc_timeout_ms(deadline), extra=extra,
            )
            # Fails fast: resuming normally means one of the two succeeded.
            yield env.any_of([primary, hedge])
            if primary.triggered and primary.ok:
                hedge.defuse()
                return primary.value
            primary.defuse()
            self.hedge_wins += 1
            # The hedge answering first is evidence the primary is slow;
            # ride the faster server from here on.
            self.current_nn = alt_nn
            return hedge.value
        finally:
            primary = hedge = None

    def _hedge_target(self, primary_nn: NodeAddress) -> Optional[NodeAddress]:
        """A different, breaker-closed NN to hedge to (deterministic pick)."""
        candidates = [
            nn for nn in self.namenode_addrs
            if nn != primary_nn and not self.bounds.is_open(nn)
        ]
        if not candidates:
            return None
        return self.rng.choice(candidates)

    # Beyond the shared stubs --------------------------------------------------
    def mkdirs(self, path: str):
        """Create a directory and any missing ancestors (mkdir -p)."""
        return self.op(OpType.MKDIRS, path=path)

    def create(self, path: str, data: bytes = b"", replication: Optional[int] = None):
        """Create a file; large payloads stream through the block layer."""
        obs = self.env.obs
        span = None
        if obs is not None and len(data) > SMALL_FILE_MAX_BYTES:
            # One umbrella span for multi-block creates, so the metadata ops
            # and block pipeline writes show up as siblings of one request.
            span = obs.tracer.start(
                "client.op", op="create_data",
                host=str(self.addr), az=self.location_domain_id,
            )
        try:
            inode_id = yield from self.op(
                OpType.CREATE_FILE,
                path=path,
                data=data,
                replication=replication,
                client=str(self.addr),
                obs_parent=span,
            )
            if len(data) <= SMALL_FILE_MAX_BYTES:
                return inode_id
            remaining = len(data)
            while remaining > 0:
                chunk = min(remaining, BLOCK_SIZE_BYTES)
                yield from self._write_block(path, chunk, span)
                remaining -= chunk
            yield from self.op(
                OpType.COMPLETE_FILE, path=path, size=len(data),
                client=str(self.addr), obs_parent=span,
            )
            return inode_id
        finally:
            if span is not None:
                obs.tracer.finish(span)

    def _write_block(self, path: str, chunk: int, span):
        """Allocate one block and push it through the DN pipeline.

        A broken pipeline (DN death mid-write) no longer fails the whole
        multi-block create: the client abandons the broken block, asks the
        NN for a fresh one (fresh placement excludes nothing, but the dead
        DN no longer heartbeats, so new placements avoid it) and retries
        the pipeline once before giving up.
        """
        block = yield from self.op(
            OpType.ADD_BLOCK, path=path, client=str(self.addr), obs_parent=span
        )
        try:
            yield from self._write_pipeline(block, chunk, parent_span=span)
            return
        except FsError:
            count(self.env, "client.pipeline_retries")
            yield from self.op(
                OpType.ABANDON_BLOCK, path=path, block_id=block.block_id,
                client=str(self.addr), obs_parent=span,
            )
        block = yield from self.op(
            OpType.ADD_BLOCK, path=path, client=str(self.addr), obs_parent=span
        )
        yield from self._write_pipeline(block, chunk, parent_span=span)

    def _write_pipeline(self, block, nbytes: int, parent_span=None):
        req = WriteBlockReq(
            block_id=block.block_id, nbytes=nbytes, pipeline=tuple(block.locations), hop=0
        )
        try:
            yield self.network.call(
                self.addr, block.locations[0], "write_block", req, size=nbytes,
                parent_span=parent_span,
            )
        except (HostUnreachableError, RpcTimeoutError) as exc:
            raise FsError(f"write pipeline failed: {exc}") from exc

    def read_data(self, path: str):
        """Read a file's *data*: inline bytes, or blocks from datanodes.

        Block replicas are fetched from the replica nearest to this client
        (same AZ when one exists) — the cost-aware reading the paper's
        future work motivates: intra-AZ block traffic is free, inter-AZ
        is billed (Section III C2).  Returns the number of bytes read.
        """
        obs = self.env.obs
        span = None
        if obs is not None:
            span = obs.tracer.start(
                "client.op", op="read_data",
                host=str(self.addr), az=self.location_domain_id,
            )
        try:
            total = yield from self._read_data_body(path, span)
            return total
        finally:
            if span is not None:
                obs.tracer.finish(span)

    def _read_data_body(self, path: str, span):
        content = yield from self.op(OpType.READ_FILE, path=path, obs_parent=span)
        if content.is_small:
            return len(content.small_data)
        topology = self.network.topology
        total = 0
        for block in content.blocks:
            locations = list(block.locations)
            if not locations:
                raise FsError(f"block {block.block_id} has no replicas")
            if self.location_domain_id != ANY_AZ:
                local = [
                    dn for dn in locations
                    if topology.az_of(dn) == self.location_domain_id
                ]
                if local:
                    locations = local
            # Try the preferred (AZ-local) replicas first, then the rest.
            ordered = list(locations)
            self.rng.shuffle(ordered)
            others = [dn for dn in block.locations if dn not in ordered]
            nbytes = None
            last_error = None
            for target in ordered + others:
                try:
                    nbytes = yield self.network.call(
                        self.addr,
                        target,
                        "read_block",
                        ReadBlockReq(block_id=block.block_id),
                        size=64,
                        parent_span=span,
                    )
                    break
                except (HostUnreachableError, RpcTimeoutError, FsError) as exc:
                    last_error = exc
            if nbytes is None:
                raise FsError(
                    f"no live replica for block {block.block_id}: {last_error}"
                )
            total += nbytes
        return total

    def fsync(self):
        """Durability barrier for the async commit path.

        Waits until every horizon this client's early acks rode has
        settled; returns True when they all committed.  A horizon that
        aborted or was lost in an NN crash raises :class:`FsError` — the
        early-acked data did not survive.  A no-op (returns True) when
        nothing is pending, including on the synchronous path.
        """
        if not self._pending_horizons:
            return True
        horizons = sorted(self._pending_horizons)
        try:
            result = yield from self.op(OpType.FSYNC, horizons=horizons)
        finally:
            # Settled either way (committed, aborted, or lost): retrying
            # the same horizons could never change the answer.
            self._pending_horizons.difference_update(horizons)
        return result

    def set_replication(self, path: str, replication: int):
        return self.op(OpType.SET_REPLICATION, path=path, replication=replication)
