(* Deterministic crash-point explorer over one store, a sharded cluster or
   a replicated pair. See explorer.mli for semantics. *)

open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_core
open Dstore_shard
open Dstore_repl
open Dstore_util
module Obs = Dstore_obs.Obs
module Metrics = Dstore_obs.Metrics
module Json = Dstore_obs.Json

exception Crash_point of int

type story =
  | Steady
  | Resync of { kill_at : int; resync_at : int; join_at : int }

type topology =
  | Single
  | Cluster of { shards : int; policy : Cluster.policy; target : int }
  | Pair of {
      mode : Repl.durability;
      link_latency_ns : int;
      story : story;
      target : int;
    }

type source = Oracle_violation | Fsck_violation | Recovery_failure

type violation = {
  crash_event : int;
  mode : string;  (* "drop_all" | "subset:<seed>" *)
  source : source;
  detail : string;
}

type report = {
  seed : int;
  n_ops : int;
  topology : topology;
  total_events : int;
  init_events : int;
  crash_points : int;
  mid_ckpt_points : int;
  runs : int;
  violations : violation list;
}

let source_label = function
  | Oracle_violation -> "oracle"
  | Fsck_violation -> "fsck"
  | Recovery_failure -> "recovery"

let story_label = function
  | Steady -> "steady"
  | Resync { kill_at; resync_at; join_at } ->
      Printf.sprintf "resync:kill@%d,resync@%d,join@%d" kill_at resync_at
        join_at

let topology_label = function
  | Single -> "single"
  | Cluster { shards; target; _ } ->
      Printf.sprintf "cluster shards=%d target=%d" shards target
  | Pair { mode; story; target; _ } ->
      Printf.sprintf "pair mode=%s story=%s target=node%d"
        (Repl.durability_name mode) (story_label story) target

let target_of = function
  | Single -> 0
  | Cluster { target; _ } | Pair { target; _ } -> target

type fixture = { sim : Sim.t; platform : Platform.t; nodes : Dstore.node array }

(* Cluster shards share one PMEM bandwidth domain, as the cluster builders
   do, so crash points land in the interleavings production sees; the two
   nodes of a pair are distinct machines. *)
let make_fixture (cfg : Config.t) topology =
  let sim = Sim.create () in
  let platform = Sim_platform.make sim in
  let n, share =
    match topology with
    | Single -> (1, None)
    | Cluster { shards; _ } -> (shards, Some (Pmem.Bw.create ()))
    | Pair _ -> (2, None)
  in
  let nodes =
    Array.init n (fun _ ->
        {
          Dstore.pm =
            Pmem.create platform
              {
                Pmem.default_config with
                size = Dipper.layout_bytes cfg;
                crash_model = true;
                share;
              };
          ssd =
            Ssd.create platform
              { Ssd.default_config with pages = cfg.Config.ssd_blocks };
        })
  in
  { sim; platform; nodes }

(* The façade the workload drives. [txn] is [None] where the topology has
   no transactional entry point: the write set then ships as a batch. *)
type client = {
  put : string -> Bytes.t -> unit;
  delete : string -> unit;
  get : string -> Bytes.t option;
  write : string -> off:int -> Bytes.t -> unit;
  batch : Dstore.batch_op list -> unit;
  txn :
    (keys:string list ->
    (Dstore_txn.t -> unit) ->
    (unit, Dstore_txn.abort_reason) result)
    option;
  lock : string -> unit;
  unlock : string -> unit;
}

let effects_of items =
  List.map
    (function
      | Gen.B_put { key; size; vseed } -> (key, Some (Gen.value ~vseed size))
      | Gen.B_del key -> (key, None))
    items

let apply_batch oracle c effects =
  Oracle.begin_batch oracle effects;
  c.batch
    (List.map
       (function
         | key, Some v -> Dstore.Bput (key, v)
         | key, None -> Dstore.Bdelete key)
       effects);
  Oracle.commit_pending oracle

(* Apply one generated op, mirroring it into the oracle. The oracle
   bookkeeping does no simulated I/O, so each begin/commit pair is atomic
   with respect to crash points, and it commits only after the client call
   returns — after the quorum ack on a pair — so "committed in the oracle"
   means "acknowledged durable to the client". Deterministic decisions
   (skip a write to an absent key, resolve a percentage offset) read only
   oracle state, identical in the counting run and every crash run. *)
let apply_op oracle c ~page_size locked (op : Gen.op) =
  match op with
  | Gen.Put { key; size; vseed } ->
      let v = Gen.value ~vseed size in
      Oracle.begin_put oracle key v;
      c.put key v;
      Oracle.commit_pending oracle
  | Gen.Delete key ->
      Oracle.begin_delete oracle key;
      c.delete key;
      Oracle.commit_pending oracle
  | Gen.Get key -> (
      (* Live-read check. Single client, so nothing is pending at a Get
         and the store must return exactly the committed value. This
         catches read-path coherence bugs — e.g. a DRAM cache serving a
         value older than a committed overwrite
         ([Config.Stale_cache_read]) — in the very run where they happen,
         not only after a crash. *)
      match (c.get key, Oracle.committed_value oracle key) with
      | None, None -> ()
      | Some g, Some w when Bytes.equal g w -> ()
      | Some _, None ->
          failwith (Printf.sprintf "live read: phantom value for %S" key)
      | None, Some _ ->
          failwith (Printf.sprintf "live read: lost value for %S" key)
      | Some _, Some _ ->
          failwith
            (Printf.sprintf "live read: stale or wrong value for %S" key))
  | Gen.Write { key; off_pct; len; vseed } -> (
      match Oracle.committed_value oracle key with
      | None -> () (* deterministic skip: same branch in every run *)
      | Some old ->
          let osz = Bytes.length old in
          let off = min osz (osz * off_pct / 100) in
          let data = Gen.value ~vseed len in
          Oracle.begin_write oracle ~key ~off ~data ~page_size;
          c.write key ~off data;
          Oracle.commit_pending oracle)
  | Gen.Batch items -> apply_batch oracle c (effects_of items)
  | Gen.Txn { reads; items } -> (
      let effects = effects_of items in
      match c.txn with
      | None -> apply_batch oracle c effects
      | Some txn -> (
          Oracle.begin_txn oracle effects;
          (* Single client: validation cannot race a concurrent commit, so
             the txn must succeed on its first attempt; an abort is a
             harness bug, not a store property. *)
          match
            txn ~keys:(reads @ List.map fst effects) (fun tx ->
                List.iter (fun k -> ignore (Dstore_txn.get tx k)) reads;
                List.iter
                  (function
                    | key, Some v -> Dstore_txn.put tx key v
                    | key, None -> Dstore_txn.delete tx key)
                  effects)
          with
          | Ok () -> Oracle.commit_pending oracle
          | Error (Dstore_txn.Cross_shard _) ->
              (* The cluster rejects multi-shard key sets up front: nothing
                 was staged, the store is untouched. *)
              Oracle.abort_pending oracle
          | Error r ->
              failwith
                ("explorer: single-client txn aborted: "
                ^ Dstore_txn.pp_abort r)))
  | Gen.Lock key ->
      if not (Hashtbl.mem locked key) then begin
        c.lock key;
        Hashtbl.add locked key ()
      end
  | Gen.Unlock key ->
      if Hashtbl.mem locked key then begin
        Hashtbl.remove locked key;
        c.unlock key
      end

(* A started topology: the client, a hook run before op [i], and the
   probes a crash run samples at the crash instant. *)
type live = {
  client : client;
  on_op : int -> unit;
  stop : unit -> unit;
  mid_ckpt : unit -> bool;  (** The target engine is checkpointing. *)
  failover_ready : unit -> bool;  (** A deployment would promote node 1. *)
}

let store_client ctx =
  {
    put = (fun k v -> Dstore.oput ctx k v);
    delete = (fun k -> ignore (Dstore.odelete ctx k));
    get = Dstore.oget ctx;
    write =
      (fun key ~off data ->
        let o = Dstore.oopen ctx key ~create:false Dstore.Rdwr in
        ignore (Dstore.owrite o data ~size:(Bytes.length data) ~off);
        Dstore.oclose o);
    batch = (fun ops -> ignore (Dstore.obatch ctx ops));
    txn = Some (fun ~keys:_ fn -> Dstore_txn.txn ~retries:0 ctx fn);
    lock = Dstore.olock ctx;
    unlock = Dstore.ounlock ctx;
  }

let ckpt_running st = Dipper.is_checkpoint_running (Dstore.engine st)

(* Settle gap inserted before each op at and after a resync story's join
   point: long enough for the acks already in flight (link round trip
   plus the backup's chunk apply) to land, so the re-synced slot flips
   [Live] between ops instead of forever chasing a rseq that advances
   with every back-to-back op. Without the gap, neither the clean
   convergence nor the [Skip_resync_journal_replay] divergence would ever
   be sampled at a crash point with [backup_ready] true. *)
let settle_ns = 50_000

(* The kill/re-sync drill, driven by op index: kill the backup
   (power-failing its PMEM), later stream it a snapshot on a spawned fiber
   — the foreground ops issued during the transfer are the window the
   resync protocol must not drop — then block until the transfer lands
   and keep writing against the rejoined backup. *)
let story_hook platform g = function
  | Steady -> ignore
  | Resync { kill_at; resync_at; join_at } ->
      fun i ->
        if i = kill_at then Group.kill_backup ~crash:true g 1
        else if i = resync_at then Group.resync_start g 1
        else if i >= join_at then begin
          if i = join_at then Group.resync_join g;
          platform.Platform.sleep settle_ns
        end

let start fx (cfg : Config.t) = function
  | Single ->
      let nd = fx.nodes.(0) in
      let st = Dstore.create fx.platform nd.pm nd.ssd cfg in
      {
        client = store_client (Dstore.ds_init st);
        on_op = ignore;
        stop = (fun () -> Dstore.stop st);
        mid_ckpt = (fun () -> ckpt_running st);
        failover_ready = (fun () -> true);
      }
  | Cluster { policy; target; _ } ->
      let c = Cluster.create ~policy fx.platform cfg fx.nodes in
      let ctx = Cluster.ds_init c in
      {
        client =
          {
            put = Cluster.oput ctx;
            delete = (fun k -> ignore (Cluster.odelete ctx k));
            get = Cluster.oget ctx;
            write =
              (fun key ~off data ->
                let o = Cluster.oopen ctx key ~create:false Dstore.Rdwr in
                ignore (Cluster.owrite o data ~size:(Bytes.length data) ~off);
                Cluster.oclose o);
            batch = (fun ops -> ignore (Cluster.obatch ctx ops));
            txn = Some (fun ~keys fn -> Cluster.txn ~retries:0 ctx ~keys fn);
            lock = Cluster.olock ctx;
            unlock = Cluster.ounlock ctx;
          };
        on_op = ignore;
        stop = (fun () -> Cluster.stop c);
        mid_ckpt = (fun () -> Cluster.is_checkpoint_running c target);
        failover_ready = (fun () -> true);
      }
  | Pair { mode; link_latency_ns; story; target } ->
      let link =
        { Link.default_config with Link.latency_ns = link_latency_ns }
      in
      let g = Group.create ~mode ~link fx.platform cfg fx.nodes in
      let ctx = Group.ds_init g in
      let target_store () =
        if Group.primary_alive g && Group.primary_index g = target then
          Some (Group.store g)
        else
          Option.map
            (fun (_, b) -> Backup.store b)
            (List.find_opt (fun (j, _) -> j = target) (Group.backups g))
      in
      {
        client =
          {
            put = Group.oput ctx;
            delete = (fun k -> ignore (Group.odelete ctx k));
            get = Group.oget ctx;
            write =
              (fun key ~off data -> ignore (Group.owrite ctx key ~off data));
            batch = (fun ops -> ignore (Group.obatch ctx ops));
            txn = None;
            lock = Group.olock ctx;
            unlock = Group.ounlock ctx;
          };
        on_op = story_hook fx.platform g story;
        stop =
          (fun () ->
            Group.resync_join g;
            Group.stop g);
        mid_ckpt =
          (fun () ->
            Option.fold ~none:false ~some:ckpt_running (target_store ()));
        failover_ready =
          (match story with
          | Steady -> fun () -> true
          | Resync _ -> fun () -> Group.backup_ready g 1);
      }

let run_workload oracle live ~page_size ops =
  let locked = Hashtbl.create 8 in
  List.iteri
    (fun i op ->
      live.on_op i;
      apply_op oracle live.client ~page_size locked op)
    ops

(* A recovered view of the crashed devices: what a client reads there and
   what fsck finds. *)
type view = {
  read : string -> Bytes.t option;
  iter_names : (string -> unit) -> unit;
  fsck : unit -> string list;
  close : unit -> unit;
}

let store_view fx cfg i () =
  let nd = fx.nodes.(i) in
  let st = Dstore.recover fx.platform nd.pm nd.ssd cfg in
  let ctx = Dstore.ds_init st in
  {
    read = Dstore.oget ctx;
    iter_names = Dstore.iter_names st;
    fsck = (fun () -> Fsck.run st);
    close = (fun () -> Dstore.stop st);
  }

(* The views a crash is checked against, each with the prefix its
   violation details carry. A cluster recovers whole and reads through
   routing. A pair recovers each node standalone: the backup as a
   promotion would see it — only when [ready], i.e. a deployment would
   promote it — and the primary as a plain restart. *)
let views fx (cfg : Config.t) ~ready = function
  | Single -> [ ("", store_view fx cfg 0) ]
  | Cluster { shards; policy; _ } ->
      [
        ( "",
          fun () ->
            let c = Cluster.recover ~policy fx.platform cfg fx.nodes in
            let ctx = Cluster.ds_init c in
            {
              read = Cluster.oget ctx;
              iter_names = Cluster.iter_names c;
              fsck =
                (fun () ->
                  List.concat
                    (List.init shards (fun i ->
                         List.map
                           (Printf.sprintf "shard%d: %s" i)
                           (Fsck.run (Cluster.shard_store c i)))));
              close = (fun () -> Cluster.stop c);
            } );
      ]
  | Pair _ ->
      (if ready then [ ("failover(node1): ", store_view fx cfg 1) ] else [])
      @ [ ("primary(node0): ", store_view fx cfg 0) ]

(* Counting run: execute the whole scenario with no crash, recording the
   target node's event index at which formatting ends (crashes during
   formatting are out of scope — formatting a device is not crash-atomic)
   and its total number of persistence events. A fault can corrupt the
   engine badly enough that this no-crash run itself raises; that is a
   detection, so report it instead of letting it kill the sweep — every
   event counted before the failure is still a valid crash point, because
   a crash run stops the world strictly before reaching it. *)
let count_events (cfg : Config.t) topology ~target ops =
  let fx = make_fixture cfg topology in
  let tpm = fx.nodes.(target).pm in
  let init_events = ref 0 in
  Sim.spawn fx.sim "count" (fun () ->
      let live = start fx cfg topology in
      init_events := Pmem.persist_events tpm;
      run_workload (Oracle.create ()) live
        ~page_size:(Ssd.page_size fx.nodes.(0).ssd)
        ops;
      live.stop ());
  let failure =
    try
      Sim.run fx.sim;
      None
    with e -> Some (Printexc.to_string e)
  in
  (!init_events, Pmem.persist_events tpm, failure)

(* Crash-mode specs are seeds, not Rng handles: each crash run derives a
   fresh, per-node deterministic mode, so no generator state leaks between
   nodes or runs. The target node of a subset run uses the seed itself. *)
type mode_spec = Drop | Subset of int

let mode_label = function
  | Drop -> "drop_all"
  | Subset s -> Printf.sprintf "subset:%d" s

let mode_for spec ~target j =
  match spec with
  | Drop -> Pmem.Drop_all
  | Subset s ->
      if j = target then Pmem.Random (Rng.create s)
      else Pmem.Random (Rng.create (s + (131 * (j + 1))))

(* One crash run: replay the scenario, stop the whole world when the
   target node's PMEM hits persistence event [k], power-fail every node,
   recover, and check every view. Returns whether the crash landed inside
   the target engine's checkpoint, plus any violations. The probes are
   sampled in the persist hook, where no frontend lock is held. *)
let crash_run (cfg : Config.t) topology ~target ops ~k ~spec =
  let fx = make_fixture cfg topology in
  let oracle = Oracle.create () in
  let tpm = fx.nodes.(target).pm in
  let live = ref None in
  let mid_ckpt = ref false in
  let ready = ref false in
  Pmem.set_persist_hook tpm
    (Some
       (fun n ->
         if n = k then begin
           Option.iter
             (fun l ->
               mid_ckpt := l.mid_ckpt ();
               ready := l.failover_ready ())
             !live;
           raise (Crash_point n)
         end));
  let finished = ref false in
  Sim.spawn fx.sim "workload" (fun () ->
      let l = start fx cfg topology in
      live := Some l;
      run_workload oracle l ~page_size:(Ssd.page_size fx.nodes.(0).ssd) ops;
      l.stop ();
      finished := true);
  (* The workload may raise for two reasons: the planted crash point
     (expected — the run proceeds to recovery), or a live-read mismatch or
     engine corruption before reaching it (a detection in its own right). *)
  let live_failure =
    try
      Sim.run fx.sim;
      None
    with Crash_point _ -> None | e -> Some (Printexc.to_string e)
  in
  Pmem.set_persist_hook tpm None;
  let mk source detail =
    { crash_event = k; mode = mode_label spec; source; detail }
  in
  match live_failure with
  | Some msg -> (false, [ mk Oracle_violation ("live run raised " ^ msg) ])
  | None when !finished ->
      (* Fewer events than the counting run promised: the replay diverged,
         which breaks the explorer's premise. *)
      ( false,
        [
          mk Recovery_failure
            "replay diverged: workload finished before crash event";
        ] )
  | None ->
      Sim.clear_pending fx.sim;
      Array.iteri
        (fun j (nd : Dstore.node) -> Pmem.crash nd.pm (mode_for spec ~target j))
        fx.nodes;
      let violations = ref [] in
      let add vs = violations := !violations @ vs in
      Sim.spawn fx.sim "recovery" (fun () ->
          List.iter
            (fun (prefix, recover) ->
              match recover () with
              | exception e ->
                  add
                    [
                      mk Recovery_failure
                        (prefix ^ "recover raised " ^ Printexc.to_string e);
                    ]
              | v ->
                  let names = ref [] in
                  v.iter_names (fun n -> names := n :: !names);
                  let oracle_bad =
                    Oracle.check oracle ~read:v.read ~names:!names
                  in
                  let fsck_bad = v.fsck () in
                  let tag source d = mk source (prefix ^ d) in
                  add
                    (List.map (tag Oracle_violation) oracle_bad
                    @ List.map (tag Fsck_violation) fsck_bad);
                  v.close ())
            (views fx cfg ~ready:!ready topology));
      (try Sim.run fx.sim
       with e ->
         violations :=
           mk Recovery_failure ("recovery run raised " ^ Printexc.to_string e)
           :: !violations);
      (!mid_ckpt, !violations)

let validate ~n_ops = function
  | Single -> ()
  | Cluster { shards; target; _ } ->
      if shards < 1 then invalid_arg "Explorer.sweep: shards < 1";
      if target < 0 || target >= shards then
        invalid_arg "Explorer.sweep: cluster target out of range"
  | Pair { mode; story; target; _ } -> (
      if target < 0 || target > 1 then
        invalid_arg "Explorer.sweep: pair target must be 0 or 1";
      if mode = Repl.Async then
        invalid_arg
          "Explorer.sweep: Async promises nothing about the backup; sweep \
           Ack_one or Ack_all";
      match story with
      | Steady -> ()
      | Resync { kill_at; resync_at; join_at } ->
          if
            not
              (0 < kill_at && kill_at < resync_at && resync_at < join_at
             && join_at < n_ops)
          then
            invalid_arg
              "Explorer.sweep: Resync story needs 0 < kill_at < resync_at < \
               join_at < n_ops")

let sweep ?obs ?(stride = 1) ?(progress = fun ~done_:_ ~total:_ -> ())
    ~subsets ~seed ~n_ops topology (cfg : Config.t) =
  if stride < 1 then invalid_arg "Explorer.sweep: stride < 1";
  if subsets < 0 then invalid_arg "Explorer.sweep: subsets < 0";
  validate ~n_ops topology;
  let target = target_of topology in
  let ops = Gen.generate ~seed ~n:n_ops in
  let init_events, total_events, baseline_failure =
    count_events cfg topology ~target ops
  in
  let total = max 0 ((total_events - init_events + stride - 1) / stride) in
  let points = List.init total (fun i -> init_events + 1 + (i * stride)) in
  let specs = Drop :: List.init subsets (fun i -> Subset (11 + (12 * i))) in
  let counter name =
    match obs with
    | None -> ignore
    | Some o ->
        let c = Metrics.counter o.Obs.metrics ("check." ^ name) in
        fun () -> Metrics.incr c
  in
  let bump_points = counter "crash_points" and bump_runs = counter "runs" in
  let bump_oracle = counter "oracle_violations" in
  let bump_fsck = counter "fsck_violations" in
  let runs = ref 0 and mid_ckpt_points = ref 0 in
  let violations =
    ref
      (match baseline_failure with
      | None -> []
      | Some msg ->
          [
            {
              crash_event = total_events;
              mode = "none";
              source = Recovery_failure;
              detail = "baseline (no-crash) run raised " ^ msg;
            };
          ])
  in
  List.iteri
    (fun i k ->
      bump_points ();
      let mid_at_k = ref false in
      List.iter
        (fun spec ->
          incr runs;
          bump_runs ();
          let mid, bad = crash_run cfg topology ~target ops ~k ~spec in
          if mid then mid_at_k := true;
          List.iter
            (fun v ->
              match v.source with
              | Fsck_violation -> bump_fsck ()
              | Oracle_violation | Recovery_failure -> bump_oracle ())
            bad;
          violations := List.rev_append bad !violations)
        specs;
      if !mid_at_k then incr mid_ckpt_points;
      progress ~done_:(i + 1) ~total)
    points;
  {
    seed;
    n_ops;
    topology;
    total_events;
    init_events;
    crash_points = total;
    mid_ckpt_points = !mid_ckpt_points;
    runs = !runs;
    violations = List.rev !violations;
  }

let violation_json v =
  Json.Obj
    [
      ("event", Json.Int v.crash_event);
      ("mode", Json.String v.mode);
      ("source", Json.String (source_label v.source));
      ("detail", Json.String v.detail);
    ]

let report_json r =
  Json.Obj
    [
      ("seed", Json.Int r.seed);
      ("ops", Json.Int r.n_ops);
      ("topology", Json.String (topology_label r.topology));
      ("total_events", Json.Int r.total_events);
      ("init_events", Json.Int r.init_events);
      ("crash_points", Json.Int r.crash_points);
      ("mid_ckpt_points", Json.Int r.mid_ckpt_points);
      ("runs", Json.Int r.runs);
      ("violations", Json.List (List.map violation_json r.violations));
    ]
