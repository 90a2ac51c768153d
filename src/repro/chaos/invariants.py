"""The invariant catalogue: contracts a file system must never violate.

Extracted from the original chaos soak test so experiments, the chaos
matrix, and the ``repro chaos`` CLI all verify the same things.  Each
check returns an :class:`InvariantVerdict`; :func:`verify_target` runs
the full catalogue appropriate to a deployment harness's stack.

All checks inspect simulator ground truth (fragment stores, lock tables,
block maps) rather than client-visible state, so they catch corruption
the workload would paper over.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hopsfs.robust import RobustBounds

__all__ = [
    "InvariantVerdict",
    "replica_consistency",
    "namespace_integrity",
    "no_stuck_state",
    "block_durability",
    "block_az_coverage",
    "exactly_once",
    "durability_horizon",
    "drained_ack_integrity",
    "membership_convergence",
    "listing_consistency",
    "installed_rows_survive",
    "deadline_compliance",
    "ceph_namespace_integrity",
    "ceph_subtrees_served",
    "verify_hopsfs",
    "verify_cephfs",
    "verify_target",
]


@dataclass(frozen=True)
class InvariantVerdict:
    """Outcome of one invariant check."""

    name: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"[{mark}] {self.name}" + (f": {self.detail}" if self.detail else "")


# ---------------------------------------------------------------- HopsFS/NDB
def replica_consistency(fs) -> InvariantVerdict:
    """All live members of each NDB node group agree on committed rows.

    A mismatch names the first differing keys of the table, and for each
    the member that lacks the row or that holds another value.
    """
    pm = fs.ndb.partition_map
    mismatches = []
    for group in pm.node_groups:
        live = [fs.ndb.datanodes[a] for a in group if pm.is_up(a)]
        if len(live) < 2:
            continue
        reference = live[0]
        for table in fs.ndb.schema.tables():
            if table.name == "leader":
                continue  # election rows churn continuously
            ref_rows = dict(reference.store.iter_rows(table.name))
            for other in live[1:]:
                other_rows = dict(other.store.iter_rows(table.name))
                if ref_rows != other_rows:
                    differ = [
                        f"{other.addr} lacks {k!r}" if k not in other_rows
                        else f"{reference.addr} lacks {k!r}" if k not in ref_rows
                        else f"{other.addr} holds another {k!r}"
                        for k in sorted(ref_rows.keys() | other_rows.keys(), key=repr)
                        if ref_rows.get(k) != other_rows.get(k)
                    ]
                    mismatches.append(
                        f"{table.name}: {reference.addr} vs {other.addr} "
                        f"({len(differ)} keys differ: {', '.join(differ[:3])})"
                    )
    return InvariantVerdict(
        "replica-consistency", not mismatches, "; ".join(mismatches[:5])
    )


def namespace_integrity(fs) -> InvariantVerdict:
    """Every committed inode's parent exists (no orphans)."""
    inodes = fs.committed_inodes()
    ids = {row.id for row in inodes} | {1}
    orphans = [row for row in inodes if row.parent_id != 0 and row.parent_id not in ids]
    detail = "; ".join(f"inode {r.id} ({r.name!r}) parent {r.parent_id}" for r in orphans[:5])
    return InvariantVerdict("namespace-integrity", not orphans, detail)


def _in_flight_txids(cluster) -> set[int]:
    """Transactions some running TC touched within the inactivity timeout,
    plus those a backup is still completing.

    A backup keeps its prepared version and row lock from the commit point
    until the TC's ``Complete`` arrives.  Without Read Backup the TC acks at
    ``Committed`` (PAPER.md Fig. 2, message 10) and forgets the transaction
    as it sends the ``Complete``s, so for one hop that state has no TC
    record: in flight while the TC runs and the commit point is recent.
    """
    now = cluster.env.now
    grace = cluster.config.inactive_timeout_ms
    live = set()
    for dn in cluster.datanodes.values():
        if not dn.running:
            continue
        for txid, txn in dn.txns.items():
            if not txn.finished and now - txn.last_active_ms <= grace:
                live.add(txid)
        for txid, tc_addr, decided_ms in dn.completing():
            tc = cluster.datanodes.get(tc_addr)
            if tc is not None and tc.running and now - decided_ms <= grace:
                live.add(txid)
    return live


def no_stuck_state(fs) -> InvariantVerdict:
    """No *stale* prepared rows, held locks, or registered transactions.

    State owned by a transaction that is live right now is in-flight, not
    stuck — HopsFS's leader election commits ``leader`` rows continuously,
    so a snapshot can always catch one mid-2PC.  Stuck means the owning
    transaction is unknown to every running TC or has been inactive past
    the inactivity timeout (i.e. nothing will ever clean it up).
    """
    live = _in_flight_txids(fs.ndb)
    problems = []
    for dn in fs.ndb.datanodes.values():
        if not dn.running:
            continue
        prepared = sum(1 for _key, txid in dn.store.iter_prepared() if txid not in live)
        if prepared:
            problems.append(f"{dn.addr}: {prepared} stale prepared rows")
        locked = sum(
            1
            for _key, txids in dn.locks.active_row_txids().items()
            if not txids <= live
        )
        if locked:
            problems.append(f"{dn.addr}: {locked} stale locked rows")
    stale_txns = [txid for txid in fs.ndb.registered_txids() if txid not in live]
    if stale_txns:
        problems.append(f"{len(stale_txns)} stale registered transactions")
    return InvariantVerdict("no-stuck-state", not problems, "; ".join(problems[:5]))


def _block_replicas(fs):
    """Ground truth: block id -> set of block DNs physically holding it."""
    holders: dict[int, set] = {}
    for dn in fs.block_datanodes:
        for block_id in dn.blocks:
            holders.setdefault(block_id, set()).add(dn)
    return holders


def block_durability(fs) -> InvariantVerdict:
    """Every block ever stored still has at least one live replica."""
    lost = []
    for block_id, dns in sorted(_block_replicas(fs).items()):
        if not any(dn.running for dn in dns):
            lost.append(str(block_id))
    return InvariantVerdict(
        "block-durability", not lost, f"blocks with no live replica: {','.join(lost[:5])}"
        if lost else "",
    )


def block_az_coverage(fs, replication: int = 3) -> InvariantVerdict:
    """AZ-aware placements keep >=1 replica per AZ (up to ``replication``).

    The paper's Section IV-C guarantee: after an AZ outage and the
    leader-driven re-replication, every block again spans
    ``min(replication, num_azs)`` distinct AZs.  Only meaningful for
    AZ-aware deployments spanning more than one AZ.
    """
    if not fs.az_aware or len(fs.azs) < 2:
        return InvariantVerdict("block-az-coverage", True, "n/a (not AZ-aware)")
    want = min(replication, len(fs.azs))
    thin = []
    for block_id, dns in sorted(_block_replicas(fs).items()):
        azs = {dn.az for dn in dns if dn.running}
        if len(azs) < want:
            thin.append(f"block {block_id} only in az{sorted(azs)}")
    return InvariantVerdict("block-az-coverage", not thin, "; ".join(thin[:5]))


def exactly_once(fs) -> InvariantVerdict:
    """No retried mutation was ever applied twice (robust mode).

    Every NN appends ``(retry_id, op)`` to the deployment's shared
    mutation ledger when it *executes* (not replays) a retried mutation;
    a retry id appearing twice means the RetryCache failed and a retry
    re-ran a committed mutation.  Vacuously green when the robust request
    path is off (the ledger stays empty).
    """
    ledger = getattr(fs, "mutation_ledger", None) or []
    seen: dict = {}
    duplicates = []
    for retry_id, op in ledger:
        if retry_id in seen:
            duplicates.append(f"{retry_id} applied twice ({seen[retry_id]}, {op})")
        else:
            seen[retry_id] = op
    detail = "; ".join(duplicates[:5]) if duplicates else f"{len(ledger)} mutations audited"
    return InvariantVerdict("exactly-once", not duplicates, detail)


def durability_horizon(fs) -> InvariantVerdict:
    """Every early-acked group-commit batch's fate matches durable storage.

    The async commit path (``config.async_commit``) acks mutations before
    their batch commits; the contract that keeps the gamble honest:

    - every batch eventually settles (none left ``open`` after a drain);
    - fsync only confirms horizons whose batch actually committed;
    - a *committed* batch's writes are durably visible (unless a later
      committed batch overwrote the same row);
    - an *aborted* batch leaked nothing into the stores;
    - a *lost* batch (crash between ack and commit) applied atomically —
      all of its writes or none, never a torn prefix.

    Audited against fragment-store ground truth on running NDB datanodes,
    restricted to the ``inodes`` and ``retry_cache`` tables (block/lease
    rows interleave with synchronous-path writes).  Rows the synchronous
    path may rewrite later (under-construction or block-bearing inodes)
    are skipped.  Vacuously green on the synchronous commit path.
    """
    if fs.config.async_commit is None:
        return InvariantVerdict("durability-horizon", True, "n/a (sync commit path)")
    ledger = fs.group_ledger
    from ..hopsfs.metadata import INODES_TABLE, RETRY_TABLE, InodeRow
    from ..ndb.schema import TOMBSTONE

    audited_tables = (INODES_TABLE, RETRY_TABLE)
    problems: list[str] = []
    batches = sorted(ledger.batches.values(), key=lambda b: b.batch_id)

    stuck = [b.batch_id for b in batches if b.state == "open"]
    if stuck:
        problems.append(f"batches never settled: {stuck[:5]}")
    committed_ids = {b.batch_id for b in batches if b.state == "committed"}
    phantom = sorted(ledger.confirmed - committed_ids)
    if phantom:
        problems.append(f"fsync confirmed uncommitted horizons: {phantom[:5]}")

    pm = fs.ndb.partition_map

    def ground_truth(table, pk, partition_key):
        """(auditable, found, value) from the row's running replicas."""
        replicas = pm.replicas_for_key(partition_key).all
        any_up = False
        for addr in replicas:
            dn = fs.ndb.datanodes[addr]
            if not dn.running:
                continue
            any_up = True
            found, value = dn.store.lookup(table, pk)
            if found:
                return True, True, value
        return any_up, False, None

    def writes(batch):
        """A batch's writes (its transaction's TcWriteReqs) as tuples."""
        return [(w.table, w.pk, w.partition_key, w.value) for w in batch.writes]

    def volatile(value) -> bool:
        """Rows the synchronous path may rewrite after the batch settles."""
        return isinstance(value, InodeRow) and (
            value.under_construction or bool(value.block_ids)
        )

    # Last committed writer per row.  Commit order is settle order, NOT
    # batch-id order: each NN runs its own committer, so a lower-id batch
    # on one NN can reach its NDB commit point after a higher-id batch on
    # another (ids are allocated at open, commits serialize under NDB row
    # locks).
    by_settle = sorted(
        (b for b in batches if b.state == "committed"),
        key=lambda b: (b.settled_ms, b.batch_id),
    )
    last_writer: dict = {}
    for batch in by_settle:
        for table, pk, partition_key, value in writes(batch):
            if table in audited_tables:
                last_writer[(table, pk)] = (batch.batch_id, partition_key, value)

    # A *lost* batch may have applied (the crash was after the NDB commit,
    # the ack just never made it back) and its commit time is unknowable:
    # every row it touched is ambiguous, so not auditable.
    lost_touched: set = set()
    for batch in batches:
        if batch.state != "lost":
            continue
        for table, pk, partition_key, value in writes(batch):
            if table in audited_tables:
                lost_touched.add((table, pk))

    for (table, pk), (bid, partition_key, value) in sorted(
        last_writer.items(), key=lambda item: repr(item[0])
    ):
        if volatile(value):
            continue
        if (table, pk) in lost_touched:
            continue
        auditable, found, actual = ground_truth(table, pk, partition_key)
        if not auditable or volatile(actual):
            continue
        if value is TOMBSTONE:
            if found:
                problems.append(f"batch {bid}: delete of {table}:{pk} not applied")
        elif not found:
            problems.append(f"batch {bid}: write of {table}:{pk} missing")
        elif actual != value:
            problems.append(f"batch {bid}: {table}:{pk} holds a different value")

    for batch in batches:
        if batch.state == "aborted":
            for table, pk, partition_key, value in writes(batch):
                if (
                    table not in audited_tables
                    or value is TOMBSTONE
                    or (table, pk) in last_writer
                    or (table, pk) in lost_touched
                    or volatile(value)
                ):
                    continue
                auditable, found, actual = ground_truth(table, pk, partition_key)
                if auditable and found and actual == value:
                    problems.append(
                        f"aborted batch {batch.batch_id} leaked {table}:{pk}"
                    )
        elif batch.state == "lost":
            applied = 0
            checked = 0
            for table, pk, partition_key, value in writes(batch):
                if (
                    table not in audited_tables
                    or (table, pk) in last_writer
                    or volatile(value)
                ):
                    continue
                auditable, found, actual = ground_truth(table, pk, partition_key)
                if not auditable or volatile(actual):
                    continue
                checked += 1
                if value is TOMBSTONE:
                    applied += 0 if found else 1
                else:
                    applied += 1 if (found and actual == value) else 0
            if 0 < applied < checked:
                problems.append(
                    f"lost batch {batch.batch_id} torn: "
                    f"{applied}/{checked} writes applied"
                )

    detail = (
        "; ".join(problems[:5])
        if problems
        else (
            f"{len(batches)} batches audited "
            f"(horizon {ledger.horizon}, {ledger.lost_acks} lost acks)"
        )
    )
    return InvariantVerdict("durability-horizon", not problems, detail)


def drained_ack_integrity(fs) -> InvariantVerdict:
    """A decommissioned NN acked nothing it didn't commit.

    Graceful drain stops admission, waits out in-flight ops, then flushes
    any open group-commit batch before the NN deregisters and stops.  If
    the drain worked, no early-acked batch owned by the draining NN can
    settle ``lost`` during its drain window — every ack it handed out is
    backed by an NDB commit (or an abort the client saw as an error).
    Vacuously green when no NN was ever decommissioned.
    """
    events = [
        e for e in getattr(fs, "reconfig_log", []) if e.kind == "decommission"
    ]
    if not events:
        return InvariantVerdict(
            "drained-ack-integrity", True, "n/a (no decommissions)"
        )
    problems = []
    for event in events:
        if event.lost_acks_during_drain:
            problems.append(
                f"{event.address}: {event.lost_acks_during_drain} acks "
                f"lost during its drain"
            )
        if event.completed_ms is None:
            problems.append(f"{event.address}: drain never completed")
    detail = (
        "; ".join(problems[:5])
        if problems
        else f"{len(events)} decommissions audited"
    )
    return InvariantVerdict("drained-ack-integrity", not problems, detail)


def membership_convergence(fs) -> InvariantVerdict:
    """After reconfiguration the leader view converged on every running NN.

    Every running NN's election view must list exactly the running NNs
    (departed NNs aged out, joiners registered), and exactly one of them
    must believe it is the leader.  Vacuously green when the pool was
    never reconfigured (static runs already pin election behaviour).
    """
    if not getattr(fs, "reconfig_log", []):
        return InvariantVerdict(
            "membership-convergence", True, "n/a (no reconfigurations)"
        )
    running = [nn for nn in fs.namenodes if nn.running]
    if not running:
        return InvariantVerdict(
            "membership-convergence", False, "no running namenodes"
        )
    expected = sorted(nn.nn_id for nn in running)
    problems = []
    for nn in running:
        view = sorted(entry[0] for entry in nn.election.active)
        if view != expected:
            problems.append(
                f"{nn.addr} sees ids {view}, expected {expected}"
            )
    leaders = [nn.addr for nn in running if nn.election.is_leader]
    if len(leaders) != 1:
        problems.append(f"{len(leaders)} leaders: {leaders}")
    detail = (
        "; ".join(problems[:5])
        if problems
        else f"{len(running)} views converged, leader {leaders[0]}"
    )
    return InvariantVerdict("membership-convergence", not problems, detail)


def listing_consistency(fs) -> InvariantVerdict:
    """No live listing-cache entry diverges from committed NDB state.

    Ground truth is the committed ``inodes`` rows (one running member per
    node group — replica consistency is its own invariant).  Every NN's
    *live* (non-expired) attr entry must equal the committed row, and every
    live listing must equal the committed directory's sorted children.  Entries past ``ttl_ms`` are exempt: the
    cache never serves them.  Vacuously green with the listing cache off.
    """
    if fs.config.listing_cache is None:
        return InvariantVerdict(
            "listing-consistency", True, "n/a (listing cache off)"
        )
    caches = [(nn, nn.listing_cache) for nn in fs.namenodes]
    truth = {row.pk: row for row in fs.committed_inodes()}
    children: dict = {}
    for row in truth.values():
        children.setdefault(row.parent_id, set()).add(row.name)
    now = fs.env.now
    problems = []
    audited = 0
    for nn, cache in caches:
        for pk, row in cache.live_attrs(now):
            audited += 1
            committed = truth.get(pk)
            if committed != row:
                problems.append(
                    f"{nn.addr} attr {pk}: cached {row!r} != committed "
                    f"{committed!r}"
                )
        for dir_id, names in cache.live_listings(now):
            audited += 1
            expected = tuple(sorted(children.get(dir_id, ())))
            if tuple(names) != expected:
                problems.append(
                    f"{nn.addr} listing dir {dir_id}: cached {list(names)} "
                    f"!= committed {list(expected)}"
                )
    detail = (
        "; ".join(problems[:5])
        if problems
        else f"{audited} live entries audited across {len(caches)} NNs"
    )
    return InvariantVerdict("listing-consistency", not problems, detail)


def installed_rows_survive(fs, namespace) -> InvariantVerdict:
    """Every directory and file the harness installed is still committed.

    The workloads delete and rename only files they created themselves, so
    no run may lose a row the install loaded.  Each installed path is
    resolved from the root against the committed ``inodes`` rows.  A row
    whose node group has no running member is not auditable (as in
    durability-horizon), nor is anything below it.  ``n/a`` when nothing
    was installed.
    """
    if namespace is None:
        return InvariantVerdict("installed-rows-survive", True, "n/a (nothing installed)")
    rows = {row.pk: row for row in fs.committed_inodes()}
    pm, datanodes = fs.ndb.partition_map, fs.ndb.datanodes
    dir_ids = {"": 1}  # installed dir path -> inode id, None once unresolvable
    missing, audited = [], 0
    for paths, is_dir in ((namespace.top_dirs, True), (namespace.dirs, True),
                          (namespace.files, False)):
        for path in paths:  # parents first, as the install loads them
            parent_path, _slash, name = path.rpartition("/")
            parent_id = dir_ids[parent_path]
            row = None if parent_id is None else rows.get((parent_id, name))
            if is_dir:
                dir_ids[path] = None if row is None else row.id
            if parent_id is None:
                continue
            if row is None and any(datanodes[a].running
                                   for a in pm.replicas_for_key(parent_id).all):
                missing.append(path)
            audited += 1
    detail = (f"{len(missing)} installed paths missing: {', '.join(missing[:5])}"
              if missing else f"{audited} installed paths audited")
    return InvariantVerdict("installed-rows-survive", not missing, detail)


def deadline_compliance(harness) -> InvariantVerdict:
    """No op outlived its deadline by more than one hop (robust mode).

    Robust clients record every op that finished later than
    ``deadline + op_timeout_ms`` (one RPC timeout is the allowed slack:
    the last armed timer fires at most one timeout after the deadline).
    ``n/a`` for deployments whose clients never opted in.
    """
    robust = [c for c in harness.clients if isinstance(getattr(c, "bounds", None), RobustBounds)]
    if not robust:
        return InvariantVerdict("deadline-compliance", True, "n/a (no robust clients)")
    overruns = [
        f"{client.addr}: {op} finished {finished_ms - expires_ms:.1f}ms past its deadline"
        for client in robust
        for op, expires_ms, finished_ms in client.deadline_overruns
    ]
    detail = "; ".join(overruns[:5]) if overruns else f"{len(robust)} clients audited"
    return InvariantVerdict("deadline-compliance", not overruns, detail)


# ------------------------------------------------------------------- CephFS
def ceph_namespace_integrity(cluster) -> InvariantVerdict:
    """Every inode on a running MDS has a reachable parent directory."""
    known = set()
    for mds in cluster.mds_list:
        if mds.running:
            known.update(mds.shard.inodes)
    orphans = []
    for mds in cluster.mds_list:
        if not mds.running:
            continue
        for path in mds.shard.inodes:
            parent = path.rsplit("/", 1)[0] or "/"
            if parent != "/" and parent not in known:
                orphans.append(f"{path} (parent {parent} missing)")
    return InvariantVerdict(
        "ceph-namespace-integrity", not orphans, "; ".join(sorted(orphans)[:5])
    )


def ceph_subtrees_served(cluster) -> InvariantVerdict:
    """Every rank resolves (through failover overrides) to a running MDS."""
    unserved = []
    partitioner = cluster.partitioner
    for rank in range(partitioner.num_ranks):
        effective = partitioner._resolve_override(rank)
        mds = cluster.mds_list[effective % len(cluster.mds_list)]
        if not mds.running:
            unserved.append(f"rank {rank} -> {mds.addr} (down)")
    return InvariantVerdict(
        "ceph-subtrees-served", not unserved, "; ".join(unserved[:5])
    )


# ----------------------------------------------------------------- dispatch
def verify_hopsfs(fs) -> list[InvariantVerdict]:
    return [
        replica_consistency(fs),
        namespace_integrity(fs),
        no_stuck_state(fs),
        block_durability(fs),
        block_az_coverage(fs),
        exactly_once(fs),
        durability_horizon(fs),
        drained_ack_integrity(fs),
        membership_convergence(fs),
        listing_consistency(fs),
    ]


def verify_cephfs(cluster) -> list[InvariantVerdict]:
    return [
        ceph_namespace_integrity(cluster),
        ceph_subtrees_served(cluster),
    ]


def verify_target(harness) -> list[InvariantVerdict]:
    """Run the invariant catalogue matching a harness's stack."""
    if harness.spec.kind == "hopsfs":
        verdicts = verify_hopsfs(harness.deployment)
        verdicts.append(installed_rows_survive(harness.deployment, harness.namespace))
    else:
        verdicts = verify_cephfs(harness.cluster)
    return verdicts + [deadline_compliance(harness)]
