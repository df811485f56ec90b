(** Deterministic crash-point explorer over one store, a sharded cluster or
    a replicated pair.

    A scenario is [(seed, n_ops, topology, cfg)]. The explorer first runs
    the whole scenario once under the DES with no crash (the {e counting
    run}) to learn how many PMEM persistence events the {e target node}
    issues in total, and the event index at which formatting ends. Then,
    for every swept event index [k] in [(init, E]], it re-runs the
    identical scenario from fresh devices and stops the whole world when
    the target node hits event [k] (the
    {!Dstore_pmem.Pmem.set_persist_hook} callback raises out of the
    flush/fence): every other node halts mid-whatever it was doing, as in
    a machine-room power failure. It resolves every node's dirty cache
    lines — once with [Drop_all], and once per eviction subset with
    [Random] adversarial sampling (the target node uses the subset seed,
    node [j] the seed plus [131 (j+1)]) — recovers, and checks each
    recovered view with the durability {!Oracle} and the structural
    {!Fsck}.

    The topologies differ only in how they start, what they probe at the
    crash instant, and how they recover:
    - {b Single}: one store; recovery is {!Dstore_core.Dstore.recover}.
    - {b Cluster}: a {!Dstore_shard.Cluster} whose shards share one PMEM
      bandwidth domain. The whole cluster recovers (re-running interrupted
      checkpoints); the oracle reads through routing and every shard is
      fscked (details prefixed [shard<i>:]). Transactions that span shards
      are rejected up front and leave the store untouched.
    - {b Pair}: a {!Dstore_repl.Group} primary (node 0) plus one backup
      (node 1). Crash points land mid-ship on the primary, mid-replay on
      the backup, and between the backup's ack and the primary's return.
      Two recovery stories are checked standalone: {e failover} (node 1
      recovered as [promote] would, prefixed [failover(node1):]) — every
      op acknowledged under [Ack_one]/[Ack_all] must survive the loss of
      the primary — and {e primary restart} ([primary(node0):]).
      Transactions ship their write set as a batch. A [Resync] story
      overlays a kill/re-sync drill, and the failover check is then gated
      on {!Dstore_repl.Group.backup_ready} sampled at the crash instant.

    Every op runs the live-read check ([Gen.Get] must return exactly the
    committed value), so volatile read-path bugs are caught in the run
    where they happen. A live run that raises before its crash point is a
    violation, as is a counting run that raises.

    Everything is deterministic: the DES schedule, the generated ops, the
    object contents and the event numbering are functions of the scenario
    alone, so every crash run reproduces the counting run up to event [k],
    and any violation replays from [(seed, topology, k, mode)]. *)

type story =
  | Steady  (** Plain workload. *)
  | Resync of { kill_at : int; resync_at : int; join_at : int }
      (** Failure/catch-up drill driven by op index: at [kill_at] the
          backup is killed (PMEM power-failed) and detached; at
          [resync_at] a snapshot re-sync starts on a spawned fiber while
          the foreground ops keep committing — those ops are the
          transfer-window suffix the protocol must replay, and where
          [Config.Skip_resync_journal_replay] drops data; at [join_at] the
          workload blocks until the transfer lands, then keeps writing
          against the rejoined backup with a small settle gap per op, so
          its slot can flip [Live] and failover is checked again. *)

type topology =
  | Single
  | Cluster of {
      shards : int;
      target : int;  (** Shard whose events index the crash points. *)
    }
  | Pair of {
      mode : Dstore_repl.Repl.durability;
          (** [Async] is rejected: its acked ops may die with the primary. *)
      link_latency_ns : int;  (** One-way link latency. *)
      story : story;
      target : int;  (** 0 = primary's PMEM swept, 1 = backup's. *)
    }

val topology_label : topology -> string
(** E.g. ["single"], ["cluster shards=2 target=0"],
    ["pair mode=ack-all story=steady target=node1"]. *)

type source = Oracle_violation | Fsck_violation | Recovery_failure

type violation = {
  crash_event : int;  (** Target-node event index the crash landed on. *)
  mode : string;  (** ["drop_all"], ["subset:<seed>"], or ["none"]. *)
  source : source;
  detail : string;
}

type report = {
  seed : int;
  n_ops : int;
  topology : topology;
  total_events : int;  (** Target-node events in the counting run. *)
  init_events : int;  (** Events consumed by formatting (not swept). *)
  crash_points : int;  (** Distinct event indices swept. *)
  mid_ckpt_points : int;
      (** Crash points that landed while the target engine was
          checkpointing. *)
  runs : int;  (** Crash/recover/check cycles executed. *)
  violations : violation list;
}

val sweep :
  ?obs:Dstore_obs.Obs.t ->
  ?stride:int ->
  ?progress:(done_:int -> total:int -> unit) ->
  subsets:int ->
  seed:int ->
  n_ops:int ->
  topology ->
  Dstore_core.Config.t ->
  report
(** Run the sweep. [subsets] eviction subsets (seeds [11 + 12i]) are
    sampled per crash point in addition to [Drop_all]; [stride] (default 1
    = exhaustive) sweeps every [stride]-th event; [progress] is called
    after each crash point. With [obs], the sweep counts
    [check.crash_points] / [check.runs] / [check.oracle_violations] /
    [check.fsck_violations]. [cfg] configures every engine; a
    {!Dstore_core.Config.fault} in it runs the whole stack with that
    protocol bug, and the sweep is expected to report violations. Raises [Invalid_argument] on a bad
    stride, subset count, shard count, target, [Async] pair, or a [Resync]
    story not satisfying [0 < kill_at < resync_at < join_at < n_ops]. *)

val source_label : source -> string

val report_json : report -> Dstore_obs.Json.t
(** The artifact a failing sweep dumps: scenario, event counts and every
    violation with its event index and mode — enough to replay. *)
