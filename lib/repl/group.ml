(* Replicated DStore façade: see group.mli. *)

open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_core

type node = Dstore.node = { pm : Pmem.t; ssd : Ssd.t }

type t = {
  platform : Platform.t;
  gmode : Repl.durability;
  link_cfg : Link.config;
  cfg : Config.t;
  bcfg : Config.t;
  nodes : node array;
  journal_on : bool;
  mutable gepoch : int;
  mutable pidx : int;
  mutable gstore : Dstore.t;  (* current primary's store *)
  mutable prim : Primary.t;  (* stale (fenced) handle after a kill *)
  mutable alive : bool;
  mutable atts : (int * Backup.t) list;  (* attached backups *)
  mutable detached : int list;  (* ex-backups awaiting re-sync *)
  mutable generation : int;  (* bumps on promote; ctxs re-bind *)
  mutable link_seq : int;  (* distinct deterministic link seeds *)
  mutable journal_acc : Repl.entry list;  (* shipped under past epochs *)
  (* background re-sync bookkeeping ({!resync_start}/{!resync_join}) *)
  rs_lock : Platform.mutex;
  rs_cond : Platform.cond;
  mutable rs_active : int;
}

type ctx = { g : t; mutable gen : int; mutable c : Dstore.ctx }

let fresh_link g =
  g.link_seq <- g.link_seq + 1;
  Link.create g.platform
    { g.link_cfg with Link.seed = g.link_cfg.Link.seed + (1000 * g.link_seq) }

let create ?(mode = Repl.Ack_all) ?(link = Link.default_config) ?bcfg
    ?(journal = false) ?obs platform cfg nodes =
  if Array.length nodes = 0 then invalid_arg "Group.create: no nodes";
  let bcfg = Option.value bcfg ~default:cfg in
  let store = Dstore.create ?obs platform nodes.(0).pm nodes.(0).ssd cfg in
  let link_seq = ref 0 in
  let mk_link () =
    incr link_seq;
    Link.create platform
      { link with Link.seed = link.Link.seed + (1000 * !link_seq) }
  in
  let atts = ref [] and slots = ref [] in
  for i = 1 to Array.length nodes - 1 do
    let data = mk_link () in
    let ack = mk_link () in
    let bstore = Dstore.create platform nodes.(i).pm nodes.(i).ssd bcfg in
    let b = Backup.create platform ~data ~ack ~epoch:1 bstore in
    Backup.start b;
    atts := (i, b) :: !atts;
    slots := (i, data, ack, 0) :: !slots
  done;
  let prim =
    Primary.create platform ~mode ~epoch:1 ~journal store
      (Array.of_list (List.rev !slots))
  in
  {
    platform;
    gmode = mode;
    link_cfg = link;
    cfg;
    bcfg;
    nodes;
    journal_on = journal;
    gepoch = 1;
    pidx = 0;
    gstore = store;
    prim;
    alive = true;
    atts = List.rev !atts;
    detached = [];
    generation = 0;
    link_seq = !link_seq;
    journal_acc = [];
    rs_lock = platform.Platform.new_mutex ();
    rs_cond = platform.Platform.new_cond ();
    rs_active = 0;
  }

let ds_init g = { g; gen = g.generation; c = Dstore.ds_init g.gstore }

let ds_finalize cx = Dstore.ds_finalize cx.c

(* Re-bind a context that outlived a failover to the new primary. *)
let ctx_of cx =
  if cx.gen <> cx.g.generation then begin
    cx.c <- Dstore.ds_init cx.g.gstore;
    cx.gen <- cx.g.generation
  end;
  cx.c

let check_alive g = if not g.alive then raise Primary.Fenced

let oput cx key v =
  check_alive cx.g;
  Primary.oput cx.g.prim (ctx_of cx) key v

let oget cx key =
  check_alive cx.g;
  Primary.oget cx.g.prim (ctx_of cx) key

let oget_into cx key buf =
  check_alive cx.g;
  Primary.oget_into cx.g.prim (ctx_of cx) key buf

let odelete cx key =
  check_alive cx.g;
  Primary.odelete cx.g.prim (ctx_of cx) key

let oexists cx key =
  check_alive cx.g;
  Primary.oexists cx.g.prim (ctx_of cx) key

let obatch cx ops =
  check_alive cx.g;
  Primary.obatch cx.g.prim (ctx_of cx) ops

let oput_batch cx kvs =
  ignore (obatch cx (List.map (fun (k, v) -> Dstore.Bput (k, v)) kvs))

let odelete_batch cx keys =
  obatch cx (List.map (fun k -> Dstore.Bdelete k) keys)

let ocreate cx key =
  check_alive cx.g;
  Primary.ocreate cx.g.prim (ctx_of cx) key

let owrite cx key ~off data =
  check_alive cx.g;
  Primary.owrite cx.g.prim (ctx_of cx) key ~off data

let olock cx key =
  check_alive cx.g;
  Primary.olock cx.g.prim (ctx_of cx) key

let ounlock cx key =
  check_alive cx.g;
  Primary.ounlock cx.g.prim (ctx_of cx) key

let olist cx ~prefix =
  check_alive cx.g;
  Dstore.olist (ctx_of cx) ~prefix

let checkpoint_now g =
  check_alive g;
  Dstore.checkpoint_now g.gstore

let object_count g = Dstore.object_count g.gstore
let iter_names g f = Dstore.iter_names g.gstore f
let store g = g.gstore
let obs g = Dstore.obs g.gstore
let primary g = g.prim
let backups g = g.atts
let detached g = g.detached
let epoch g = g.gepoch
let primary_index g = g.pidx
let primary_alive g = g.alive
let mode g = g.gmode

(* [drain]: finish in-flight ops (and their durability waits) before
   fencing — what a planned stop or handover owes its callers. A failure
   drill ([kill_primary]) seals abruptly instead: suspended waiters take
   {!Primary.Fenced}, exactly as a real primary loss would look. *)
let seal ?(drain = true) g =
  if g.alive then begin
    if drain then Primary.quiesce g.prim;
    g.journal_acc <- g.journal_acc @ Primary.journal g.prim;
    Primary.fence g.prim;
    Primary.close_links g.prim;
    Dstore.stop g.gstore;
    g.alive <- false
  end

let kill_primary ?(crash = false) g =
  if g.alive then begin
    seal ~drain:false g;
    if crash then Pmem.crash g.nodes.(g.pidx).pm Pmem.Drop_all
  end

let kill_backup ?(crash = false) g node =
  match List.find_opt (fun (j, _) -> j = node) g.atts with
  | None -> invalid_arg "Group.kill_backup: not an attached backup"
  | Some (_, b) ->
      Backup.stop b;
      if crash then Pmem.crash g.nodes.(node).pm Pmem.Drop_all;
      if g.alive then Primary.detach_slot g.prim node;
      g.atts <- List.filter (fun (j, _) -> j <> node) g.atts;
      if not (List.mem node g.detached) then g.detached <- node :: g.detached

(* --- laggard catch-up ----------------------------------------------------- *)

(* Stream a checkpoint-consistent snapshot to [node] and re-attach it.

   The snapshot cut runs under the primary's write barrier
   ({!Primary.begin_snapshot}): in-flight ops drain, the staged ship
   batch flushes, a checkpoint folds the whole committed history into
   the published half, and the image (published prefix + data device) is
   captured to DRAM. The laggard's fresh slot is attached — [Syncing],
   [acked0] = the snapshot's rseq watermark — {e before} the barrier
   lifts, so every entry shipped afterwards has rseq > the watermark and
   queues on the new slot's FIFO link. The journal suffix the laggard
   replays is therefore exactly [snap_rseq + 1 ..]: nothing doubled,
   nothing dropped.

   Only the cut blocks writers. The transfer itself — the expensive part
   — runs after [end_snapshot] with the write path open: its time is
   modeled by shipping [snapshot_bytes] over a fresh link and blocking
   this caller (not the group) on the delivery.

   [Config.Skip_resync_journal_replay] on [bcfg] plants the protocol bug
   this dance exists to avoid: the rejoined backup's applied watermark is
   seeded with the rseq current {e after} the transfer, so the suffix
   shipped during the transfer window is skipped as already-applied —
   acked ops silently vanish from the rejoined backup, which the pair
   sweep's byte-identity oracle must catch. *)
let do_resync g node =
  check_alive g;
  if node = g.pidx then invalid_arg "Group.resync: node is the primary";
  if List.exists (fun (j, _) -> j = node) g.atts then
    invalid_arg "Group.resync: backup already attached";
  if node < 0 || node >= Array.length g.nodes then
    invalid_arg "Group.resync: no such node";
  let prim = g.prim in
  Primary.begin_snapshot prim;
  let snap, snap_rseq, data, ack =
    match
      Dstore.checkpoint_now g.gstore;
      let snap = Dstore.capture_snapshot g.gstore in
      let snap_rseq = Primary.rseq prim in
      let data = fresh_link g in
      let ack = fresh_link g in
      Primary.attach_slot prim ~node ~data ~ack ~acked0:snap_rseq
        ~syncing:true;
      (snap, snap_rseq, data, ack)
    with
    | r ->
        Primary.end_snapshot prim;
        r
    | exception e ->
        Primary.end_snapshot prim;
        raise e
  in
  (* Model the bulk transfer: one message of the image's size over a
     fresh link — the sender does not block, this caller waits out the
     latency + serialization delay. *)
  let bulk = fresh_link g in
  Link.send bulk ~bytes:(Dstore.snapshot_bytes snap) ();
  Link.recv bulk;
  Link.close bulk;
  let nd = g.nodes.(node) in
  let bstore = Dstore.install_snapshot g.platform nd.pm nd.ssd g.bcfg snap in
  let applied0 =
    if g.bcfg.Config.fault = Config.Skip_resync_journal_replay then
      (* Protocol mutation: seed the watermark with the rseq current
         after the transfer — the suffix shipped meanwhile is dropped. *)
      Primary.rseq prim
    else snap_rseq
  in
  let b = Backup.create g.platform ~applied0 ~data ~ack ~epoch:g.gepoch bstore in
  Backup.start b;
  g.atts <- g.atts @ [ (node, b) ];
  g.detached <- List.filter (fun j -> j <> node) g.detached

let resync g node = do_resync g node

let resync_start g node =
  Platform.with_lock g.rs_lock (fun () -> g.rs_active <- g.rs_active + 1);
  g.platform.Platform.spawn "repl.resync" (fun () ->
      Fun.protect
        ~finally:(fun () ->
          Platform.with_lock g.rs_lock (fun () ->
              g.rs_active <- g.rs_active - 1;
              g.rs_cond.Platform.broadcast ()))
        (fun () -> do_resync g node))

let resync_join g =
  Platform.with_lock g.rs_lock (fun () ->
      while g.rs_active > 0 do
        g.rs_cond.Platform.wait g.rs_lock
      done)

let backup_ready g node =
  List.exists (fun (j, _) -> j = node) g.atts
  && (not g.alive || Primary.slot_state g.prim node = Some Primary.Live)

let promote ?index g =
  (* Validate before sealing: a promote that cannot succeed must not
     take down a live primary. *)
  if g.atts = [] then invalid_arg "Group.promote: no attached backup";
  (match index with
  | Some i when not (List.exists (fun (j, _) -> j = i) g.atts) ->
      invalid_arg "Group.promote: not an attached backup"
  | _ -> ());
  seal g;
  (* Pipelined apply: entries already received may still sit in apply
     queues. Drain them so the applied watermarks are final before they
     are compared. *)
  List.iter (fun (_, b) -> Backup.drain b) g.atts;
  match g.atts with
  | [] -> invalid_arg "Group.promote: no attached backup"
  | bs ->
      let idx, chosen =
        match index with
        | Some i -> (
            match List.find_opt (fun (j, _) -> j = i) bs with
            | Some pair -> pair
            | None -> invalid_arg "Group.promote: not an attached backup")
        | None ->
            (* The backup with the highest applied watermark holds a
               superset of every other's acked state. *)
            List.fold_left
              (fun ((_, bb) as best) ((_, b) as cand) ->
                if Backup.applied_rseq b > Backup.applied_rseq bb then cand
                else best)
              (List.hd bs) (List.tl bs)
      in
      g.gepoch <- g.gepoch + 1;
      Backup.stop chosen;
      let nd = g.nodes.(idx) in
      (* The existing recovery path replays the backup's log. *)
      let store = Dstore.recover g.platform nd.pm nd.ssd g.cfg in
      let base = Backup.applied_rseq chosen in
      let keep = List.filter (fun (j, _) -> j <> idx) bs in
      let attach, laggards =
        List.partition (fun (_, b) -> Backup.applied_rseq b = base) keep
      in
      (* Laggards miss entries only the old primary had: they leave the
         group for the moment and rejoin through the re-sync stream once
         the new primary serves. *)
      List.iter (fun (j, b) -> Backup.stop b; g.detached <- j :: g.detached)
        laggards;
      let rebound =
        List.map
          (fun (j, b) ->
            let data = fresh_link g in
            let ack = fresh_link g in
            let b' = Backup.reattach b ~data ~ack ~epoch:g.gepoch in
            Backup.start b';
            ((j, data, ack, Backup.applied_rseq b'), (j, b')))
          attach
      in
      g.atts <- List.map snd rebound;
      g.gstore <- store;
      g.pidx <- idx;
      g.prim <-
        Primary.create g.platform ~mode:g.gmode ~epoch:g.gepoch ~rseq_base:base
          ~journal:g.journal_on store
          (Array.of_list (List.map fst rebound));
      g.alive <- true;
      g.generation <- g.generation + 1;
      (* Catch the laggards back up: the new primary streams each a
         snapshot and re-attaches it (synchronously — promote returns
         with every surviving node either live or syncing its suffix). *)
      List.iter (fun (j, _) -> do_resync g j) laggards

let quiesce g = if g.alive && g.atts <> [] then Primary.quiesce g.prim

let stop g =
  seal g;
  List.iter (fun (_, b) -> Backup.stop b) g.atts;
  g.atts <- []

type backup_line = {
  node : int;
  state : Primary.slot_state;
  shipped : int;
  acked : int;
  acked_lsn : int;
  applied : int;
  lag : int;
  link_pending : int;
}

type status = {
  epoch_ : int;
  mode_ : Repl.durability;
  primary_ : int;
  alive : bool;
  rseq : int;
  committed_lsn : int;
  lines : backup_line list;
}

let status g =
  let ps = Primary.status g.prim in
  let applied_of node =
    match List.find_opt (fun (j, _) -> j = node) g.atts with
    | Some (_, b) -> Backup.applied_rseq b
    | None -> 0
  in
  {
    epoch_ = g.gepoch;
    mode_ = g.gmode;
    primary_ = (if g.alive then g.pidx else -1);
    alive = g.alive;
    rseq = ps.Primary.s_rseq;
    committed_lsn = ps.Primary.s_committed_lsn;
    lines =
      List.map
        (fun (b : Primary.backup_status) ->
          {
            node = b.Primary.b_node;
            state = b.Primary.b_state;
            shipped = b.Primary.b_shipped;
            acked = b.Primary.b_acked;
            acked_lsn = b.Primary.b_acked_lsn;
            applied = applied_of b.Primary.b_node;
            lag = ps.Primary.s_rseq - b.Primary.b_acked;
            link_pending = b.Primary.b_link_pending;
          })
        ps.Primary.s_backups;
  }

let journal g = g.journal_acc @ Primary.journal g.prim
