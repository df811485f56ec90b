(* Primary: see primary.mli. *)

open Dstore_platform
open Dstore_core
module Pqueue = Dstore_util.Pqueue
module Obs = Dstore_obs.Obs
module Metrics = Dstore_obs.Metrics
module Span = Dstore_obs.Span

exception Fenced

type slot_state = Live | Syncing | Dead

let slot_state_name = function
  | Live -> "live"
  | Syncing -> "syncing"
  | Dead -> "dead"

type slot = {
  node : int;
  data : Repl.entry Link.t;
  ack : Repl.ack_msg Link.t;
  mutable state : slot_state;
  mutable shipped : int;
  mutable acked : int;
  mutable acked_lsn : int;
}

type t = {
  platform : Platform.t;
  store : Dstore.t;
  mode : Repl.durability;
  mutable epoch : int;
  mutable fenced : bool;
  mutable slots : slot array;
  lock : Platform.mutex;
  ack_cond : Platform.cond;  (* quiesce, snapshot barrier, in-flight drain *)
  (* Durability waiters, keyed by the rseq each one waits for. A waiter
     parks on a cond of its own, taken from [cond_pool], so an ack wakes
     exactly the waiters its quorum mark covers. *)
  waiters : Platform.cond Pqueue.t;
  cond_pool : Platform.cond Pqueue.t;  (* every key 0: a stack *)
  mutable rseq : int;
  mutable in_flight : int;  (* mutating ops between entry and ship+ack *)
  mutable committed_lsn : int;  (* engine commit-hook watermark *)
  journal_on : bool;
  mutable journal_rev : Repl.entry list;
  (* snapshot barrier: while set, new mutators block at entry; the
     resync path drains in-flight ops, checkpoints and captures the
     transfer image knowing the store cannot move under it. *)
  mutable barrier : bool;
  (* stats (exported as repl.* gauge views) *)
  mutable ships : int;  (* entries shipped *)
  mutable ship_msgs : int;  (* messages sent, one per entry *)
  mutable ship_bytes : int;  (* serialized bytes sent *)
  mutable acks : int;
  mutable rejects : int;
  mutable waits : int;
  mutable wait_ns : int;
  mutable lag_max : int;  (* peak rseq - min(acked) observed, live slots *)
}

let store t = t.store
let mode t = t.mode
let epoch t = t.epoch
let fenced t = t.fenced
let rseq t = t.rseq
let committed_lsn t = t.committed_lsn
let wait_ns t = t.wait_ns
let journal t = List.rev t.journal_rev

(* Quorum arithmetic ranges over Live slots only: a Dead slot must not
   wedge durability waits forever, and a Syncing slot is mid-transfer —
   it receives the stream but cannot ack until its snapshot lands, so
   counting it would re-introduce exactly the tail re-sync exists to
   avoid. [live_acked] is the min (or, with [best], the max) of [acked]
   over live slots, and [max_int] with zero live slots: the quorum is
   then vacuously reached (the degradation is visible in
   [repl.live_backups]). *)
let live_acked t ~best =
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to Array.length t.slots - 1 do
    let s = t.slots.(i) in
    if s.state = Live then begin
      if s.acked < !lo then lo := s.acked;
      if s.acked > !hi then hi := s.acked
    end
  done;
  if best && !lo <> max_int then !hi else !lo

(* Every entry at or below this rseq is durable under [t.mode]. *)
let quorum_mark t = live_acked t ~best:(t.mode = Repl.Ack_one)

let live_count t =
  Array.fold_left (fun n s -> if s.state = Live then n + 1 else n) 0 t.slots

let register_views t =
  let m = (Dstore.obs t.store).Obs.metrics in
  Metrics.gauge_fn m "repl.epoch" (fun () -> t.epoch);
  Metrics.gauge_fn m "repl.rseq" (fun () -> t.rseq);
  Metrics.gauge_fn m "repl.committed_lsn" (fun () -> t.committed_lsn);
  Metrics.gauge_fn m "repl.ships" (fun () -> t.ships);
  Metrics.gauge_fn m "repl.ship_msgs" (fun () -> t.ship_msgs);
  Metrics.gauge_fn m "repl.ship_bytes" (fun () -> t.ship_bytes);
  Metrics.gauge_fn m "repl.acks" (fun () -> t.acks);
  Metrics.gauge_fn m "repl.rejects" (fun () -> t.rejects);
  Metrics.gauge_fn m "repl.waits" (fun () -> t.waits);
  Metrics.gauge_fn m "repl.wait_ns" (fun () -> t.wait_ns);
  Metrics.gauge_fn m "repl.live_backups" (fun () -> live_count t);
  Metrics.gauge_fn m "repl.lag" (fun () ->
      let m = live_acked t ~best:false in
      if m = max_int then 0 else t.rseq - m);
  Metrics.gauge_fn m "repl.lag_max" (fun () -> t.lag_max)

(* Wake the parked durability waiters whose rseq is at or below [mark],
   lowest rseq first. Caller holds the lock. A woken waiter has left the
   queue; it re-checks its own condition and re-parks if that still
   fails. *)
let release t mark =
  while (not (Pqueue.is_empty t.waiters)) && Pqueue.min_key t.waiters <= mark do
    (Pqueue.take t.waiters).Platform.signal ()
  done

(* Wake every waiter of either kind to re-check: fences, dead or
   detached slots, attaches and rejects change the quorum's shape, not
   just its mark. Caller holds the lock. *)
let wake_all t =
  release t max_int;
  t.ack_cond.Platform.broadcast ()

let ack_loop t slot =
  let rec loop () =
    match Link.recv slot.ack with
    | exception Link.Closed ->
        Platform.with_lock t.lock (fun () ->
            if slot.state <> Dead then slot.state <- Dead;
            wake_all t)
    | a ->
        Platform.with_lock t.lock (fun () ->
            if a.Repl.a_ok then begin
              t.acks <- t.acks + 1;
              if a.Repl.a_rseq > slot.acked then begin
                slot.acked <- a.Repl.a_rseq;
                slot.acked_lsn <- a.Repl.a_lsn
              end;
              (* A re-syncing slot goes live the moment it has acked
                 everything shipped: from here on it is an ordinary
                 backup and starts gating the quorum. *)
              if slot.state = Syncing && slot.acked >= t.rseq then
                slot.state <- Live;
              release t (quorum_mark t);
              t.ack_cond.Platform.broadcast ()
            end
            else begin
              (* A reject means someone with a newer epoch owns the
                 stream: self-fence (split-brain protection for a
                 primary that missed the explicit seal). *)
              t.rejects <- t.rejects + 1;
              if a.Repl.a_epoch > t.epoch then t.fenced <- true;
              wake_all t
            end);
        loop ()
  in
  loop ()

(* Wire-size model for a message: a header plus a per-entry framing line
   and the op payload. *)
let msg_bytes (e : Repl.entry) = 64 + 16 + Repl.rop_bytes e.Repl.op

let create platform ~mode ~epoch ?(rseq_base = 0) ?(journal = false) store
    slot_specs =
  let slots =
    Array.map
      (fun (node, data, ack, acked0) ->
        {
          node;
          data;
          ack;
          state = Live;
          shipped = acked0;
          acked = acked0;
          acked_lsn = 0;
        })
      slot_specs
  in
  let filler = platform.Platform.new_cond () in
  let t =
    {
      platform;
      store;
      mode;
      epoch;
      fenced = false;
      slots;
      lock = platform.Platform.new_mutex ();
      ack_cond = platform.Platform.new_cond ();
      waiters = Pqueue.create ~filler;
      cond_pool = Pqueue.create ~filler;
      rseq = rseq_base;
      in_flight = 0;
      committed_lsn = 0;
      journal_on = journal;
      journal_rev = [];
      barrier = false;
      ships = 0;
      ship_msgs = 0;
      ship_bytes = 0;
      acks = 0;
      rejects = 0;
      waits = 0;
      wait_ns = 0;
      lag_max = 0;
    }
  in
  (* Oplog span export seam: every commit's persisted span reports its
     (lsn, op) pairs here; the watermark is what shipped entries carry
     as their LSN coordinate. *)
  Dipper.set_commit_hook (Dstore.engine store)
    (Some
       (fun pairs ->
         List.iter
           (fun (lsn, _) -> if lsn > t.committed_lsn then t.committed_lsn <- lsn)
           pairs));
  register_views t;
  Array.iter
    (fun s -> platform.Platform.spawn "repl.ack" (fun () -> ack_loop t s))
    slots;
  t

let fence t =
  Platform.with_lock t.lock (fun () ->
      t.fenced <- true;
      wake_all t)

let close_links t =
  Dipper.set_commit_hook (Dstore.engine t.store) None;
  Array.iter
    (fun s ->
      Link.close s.data;
      Link.close s.ack)
    t.slots

let check_fenced t = if t.fenced then raise Fenced

(* Mutating ops hold an in-flight count from entry until their ship has
   been acked (or skipped), so a clean shutdown can drain: a fence
   between an op's local commit and its ship would otherwise raise
   {!Fenced} into a caller whose op was about to become fully durable.
   The same count is the snapshot barrier's drain condition: while a
   snapshot is being cut, new mutators block here. Only the drains wait
   for the count, and only for zero. *)
let with_op t f =
  check_fenced t;
  Platform.with_lock t.lock (fun () ->
      while t.barrier && not t.fenced do
        t.ack_cond.Platform.wait t.lock
      done;
      if t.fenced then raise Fenced;
      t.in_flight <- t.in_flight + 1);
  Fun.protect
    ~finally:(fun () ->
      Platform.with_lock t.lock (fun () ->
          t.in_flight <- t.in_flight - 1;
          if t.in_flight = 0 then t.ack_cond.Platform.broadcast ()))
    f

(* Assign the rseq and send under one lock hold: rseq order equals send
   order over each FIFO link, so stream order matches rseq order even
   with concurrent committers. Every committed entry goes out at once,
   as a message of its own. A closed data link downgrades its slot to
   [Dead] instead of propagating — losing a backup must not fail the
   committer that happened to ship. *)
let ship t op =
  if Array.length t.slots = 0 && not t.journal_on then None
  else
    Some
      (Platform.with_lock t.lock (fun () ->
           if t.fenced then raise Fenced;
           t.rseq <- t.rseq + 1;
           t.ships <- t.ships + 1;
           let entry =
             { Repl.rseq = t.rseq; epoch = t.epoch; lsn = t.committed_lsn; op }
           in
           if t.journal_on then t.journal_rev <- entry :: t.journal_rev;
           let m = live_acked t ~best:false in
           if m <> max_int then t.lag_max <- max t.lag_max (t.rseq - m);
           if Array.length t.slots > 0 then begin
             let bytes = msg_bytes entry in
             t.ship_msgs <- t.ship_msgs + 1;
             t.ship_bytes <- t.ship_bytes + bytes;
             for i = 0 to Array.length t.slots - 1 do
               let s = t.slots.(i) in
               if s.state <> Dead then
                 match Link.send s.data ~bytes entry with
                 | () -> s.shipped <- t.rseq
                 | exception Link.Closed ->
                     s.state <- Dead;
                     wake_all t
             done
           end;
           entry))

(* Park until the quorum mark covers [rseq] or the primary is fenced.
   Caller holds the lock. *)
let await_quorum t rseq =
  if rseq > quorum_mark t && not t.fenced then begin
    let c =
      if Pqueue.is_empty t.cond_pool then t.platform.Platform.new_cond ()
      else Pqueue.take t.cond_pool
    in
    while rseq > quorum_mark t && not t.fenced do
      Pqueue.push t.waiters rseq 0 c;
      c.Platform.wait t.lock
    done;
    Pqueue.push t.cond_pool 0 0 c
  end;
  if rseq > quorum_mark t then raise Fenced

let wait_durable t span (entry : Repl.entry) =
  if Array.length t.slots = 0 then ()
  else
    match t.mode with
    | Repl.Async -> ()
    | Repl.Ack_one | Repl.Ack_all ->
        let t0 = t.platform.Platform.now () in
        Platform.with_lock t.lock (fun () -> await_quorum t entry.Repl.rseq);
        let dt = t.platform.Platform.now () - t0 in
        (* One wait per client op the entry carries, mirroring the
           group-commit convention: an R_batch of n puts books n waits
           of dt each, so mean-wait-per-op stays comparable across batch
           sizes. *)
        let n = Repl.rop_ops entry.Repl.op in
        t.waits <- t.waits + n;
        t.wait_ns <- t.wait_ns + (n * dt);
        Span.stall span Span.Repl_wait dt

let replicate t span op =
  match ship t op with None -> () | Some e -> wait_durable t span e

let spans t = (Dstore.obs t.store).Obs.spans

let oput t ctx key value =
  with_op t (fun () ->
      let span = Span.start (spans t) Span.Put key in
      Dstore.oput ~span ctx key value;
      replicate t span (Repl.R_put (key, value));
      Span.finish span)

let odelete t ctx key =
  with_op t (fun () ->
      let span = Span.start (spans t) Span.Delete key in
      let existed = Dstore.odelete ~span ctx key in
      replicate t span (Repl.R_delete key);
      Span.finish span;
      existed)

let obatch t ctx ops =
  match ops with
  | [] -> []
  | _ ->
      with_op t (fun () ->
          let span =
            Span.start (spans t) ~n_ops:(List.length ops) Span.Batch "(batch)"
          in
          let rs = Dstore.obatch ~span ctx ops in
          replicate t span (Repl.R_batch ops);
          Span.finish span;
          rs)

let ocreate t ctx key =
  with_op t (fun () ->
      let o = Dstore.oopen ctx key ~create:true Dstore.Wr in
      Dstore.oclose o;
      replicate t Span.none (Repl.R_create key))

let owrite t ctx key ~off data =
  with_op t (fun () ->
      let span = Span.start (spans t) Span.Write key in
      let o = Dstore.oopen ctx key ~create:false Dstore.Rdwr in
      let n = Dstore.owrite ~span o data ~size:(Bytes.length data) ~off in
      Dstore.oclose o;
      replicate t span (Repl.R_write { key; off; data });
      Span.finish span;
      n)

let oget t ctx key =
  check_fenced t;
  Dstore.oget ctx key

let oget_into t ctx key buf =
  check_fenced t;
  Dstore.oget_into ctx key buf

let oexists t ctx key =
  check_fenced t;
  Dstore.oexists ctx key

let olock t ctx key =
  check_fenced t;
  Dstore.olock ctx key

let ounlock t ctx key =
  check_fenced t;
  Dstore.ounlock ctx key

(* Block until no op is in flight and every attached (non-dead) slot has
   acked everything shipped so far (or the primary is fenced). A clean
   stop drains through this before fencing; failover drills and tests
   use it to make "the acked prefix" mean "everything" before comparing
   states. *)
let quiesce t =
  Platform.with_lock t.lock (fun () ->
      while
        (not t.fenced)
        && (t.in_flight > 0
           || Array.exists
                (fun s -> s.state <> Dead && s.acked < t.rseq)
                t.slots)
      do
        t.ack_cond.Platform.wait t.lock
      done)

(* --- snapshot barrier & slot management (replica catch-up) ------------- *)

let begin_snapshot t =
  Platform.with_lock t.lock (fun () ->
      while t.barrier && not t.fenced do
        t.ack_cond.Platform.wait t.lock
      done;
      if t.fenced then raise Fenced;
      t.barrier <- true;
      while t.in_flight > 0 && not t.fenced do
        t.ack_cond.Platform.wait t.lock
      done;
      if t.fenced then begin
        t.barrier <- false;
        t.ack_cond.Platform.broadcast ();
        raise Fenced
      end)

let end_snapshot t =
  Platform.with_lock t.lock (fun () ->
      t.barrier <- false;
      t.ack_cond.Platform.broadcast ())

let attach_slot t ~node ~data ~ack ~acked0 ~syncing =
  let slot =
    {
      node;
      data;
      ack;
      state = (if syncing then Syncing else Live);
      shipped = acked0;
      acked = acked0;
      acked_lsn = 0;
    }
  in
  Platform.with_lock t.lock (fun () ->
      t.slots <- Array.append t.slots [| slot |];
      wake_all t);
  t.platform.Platform.spawn "repl.ack" (fun () -> ack_loop t slot)

let detach_slot t node =
  Platform.with_lock t.lock (fun () ->
      Array.iter
        (fun s -> if s.node = node && s.state <> Dead then s.state <- Dead)
        t.slots;
      wake_all t)

let slot_state t node =
  Platform.with_lock t.lock (fun () ->
      Array.fold_left
        (fun acc s -> if s.node = node then Some s.state else acc)
        None t.slots)

type backup_status = {
  b_node : int;
  b_state : slot_state;
  b_shipped : int;
  b_acked : int;
  b_acked_lsn : int;
  b_link_pending : int;
}

type status = {
  s_epoch : int;
  s_mode : Repl.durability;
  s_fenced : bool;
  s_rseq : int;
  s_committed_lsn : int;
  s_backups : backup_status list;
}

let status t =
  Platform.with_lock t.lock (fun () ->
      {
        s_epoch = t.epoch;
        s_mode = t.mode;
        s_fenced = t.fenced;
        s_rseq = t.rseq;
        s_committed_lsn = t.committed_lsn;
        s_backups =
          Array.to_list
            (Array.map
               (fun s ->
                 {
                   b_node = s.node;
                   b_state = s.state;
                   b_shipped = s.shipped;
                   b_acked = s.acked;
                   b_acked_lsn = s.acked_lsn;
                   b_link_pending = Link.pending s.data;
                 })
               t.slots);
      })
