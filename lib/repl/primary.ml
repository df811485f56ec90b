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
  data : Repl.msg Link.t;
  ack : Repl.ack_msg Link.t;
  staged_from : int;  (* the first stage tag sent to this slot *)
  mutable state : slot_state;
  mutable shipped : int;
  mutable acked : int;
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
  mutable tag : int;  (* last stage tag; tags restart with each incarnation *)
  mutable in_flight : int;  (* mutating ops between entry and ship+ack *)
  journal_on : bool;
  mutable journal_rev : Repl.entry list;
  (* snapshot barrier: while set, new mutators block at entry; the
     resync path drains in-flight ops, checkpoints and captures the
     transfer image knowing the store cannot move under it. *)
  mutable barrier : bool;
  (* stats (exported as repl.* gauge views) *)
  mutable ships : int;  (* entries shipped *)
  mutable ship_msgs : int;  (* ordering messages sent, one per entry *)
  mutable ship_bytes : int;  (* their serialized bytes *)
  mutable stage_msgs : int;  (* stage messages sent, one per staged op *)
  mutable acks : int;
  mutable rejects : int;
  mutable waits : int;
  mutable wait_ns : int;
  mutable lag_max : int;  (* peak rseq - min(acked) observed, live slots *)
}

let store t = t.store
let fenced t = t.fenced
let rseq t = t.rseq
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
  Metrics.gauge_fn m "repl.ships" (fun () -> t.ships);
  Metrics.gauge_fn m "repl.ship_msgs" (fun () -> t.ship_msgs);
  Metrics.gauge_fn m "repl.ship_bytes" (fun () -> t.ship_bytes);
  Metrics.gauge_fn m "repl.stage_msgs" (fun () -> t.stage_msgs);
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

(* Hand-locked, like the put path: no closure per ack. *)
let ack_loop t slot =
  let rec loop () =
    match Link.recv slot.ack with
    | exception Link.Closed ->
        Platform.with_lock t.lock (fun () ->
            if slot.state <> Dead then slot.state <- Dead;
            wake_all t)
    | a ->
        t.lock.Platform.lock ();
        if a.Repl.a_ok then begin
          t.acks <- t.acks + 1;
          if a.Repl.a_rseq > slot.acked then slot.acked <- a.Repl.a_rseq;
          (* A re-syncing slot goes live the moment it has acked
             everything shipped: from here on it is an ordinary backup
             and starts gating the quorum. *)
          if slot.state = Syncing && slot.acked >= t.rseq then
            slot.state <- Live;
          release t (quorum_mark t);
          t.ack_cond.Platform.broadcast ()
        end
        else begin
          (* A reject means someone with a newer epoch owns the stream:
             self-fence (split-brain protection for a primary that
             missed the explicit seal). *)
          t.rejects <- t.rejects + 1;
          if a.Repl.a_epoch > t.epoch then t.fenced <- true;
          wake_all t
        end;
        t.lock.Platform.unlock ();
        loop ()
  in
  loop ()

let create platform ~mode ~epoch ?(rseq_base = 0) ?(journal = false) store
    slot_specs =
  let slots =
    Array.map
      (fun (node, data, ack, acked0) ->
        {
          node;
          data;
          ack;
          staged_from = 1;
          state = Live;
          shipped = acked0;
          acked = acked0;
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
      tag = 0;
      in_flight = 0;
      journal_on = journal;
      journal_rev = [];
      barrier = false;
      ships = 0;
      ship_msgs = 0;
      ship_bytes = 0;
      stage_msgs = 0;
      acks = 0;
      rejects = 0;
      waits = 0;
      wait_ns = 0;
      lag_max = 0;
    }
  in
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
   for the count, and only for zero. [enter] and [leave] lock by hand:
   the put path allocates no closure for them. *)
let enter t =
  t.lock.Platform.lock ();
  while t.barrier && not t.fenced do
    t.ack_cond.Platform.wait t.lock
  done;
  if t.fenced then begin
    t.lock.Platform.unlock ();
    raise Fenced
  end;
  t.in_flight <- t.in_flight + 1;
  t.lock.Platform.unlock ()

let leave t =
  t.lock.Platform.lock ();
  t.in_flight <- t.in_flight - 1;
  if t.in_flight = 0 then t.ack_cond.Platform.broadcast ();
  t.lock.Platform.unlock ()

let with_op t f =
  enter t;
  match f () with
  | r ->
      leave t;
      r
  | exception e ->
      leave t;
      raise e

(* Send [msg] on one slot's data link. A closed link downgrades the slot
   to [Dead] instead of propagating — losing a backup must not fail the
   committer that happened to send. Caller holds the lock. *)
let send t s ~bytes msg =
  try Link.send s.data ~bytes msg
  with Link.Closed ->
    s.state <- Dead;
    wake_all t

(* [msg] to every non-dead slot that was sent stage [tag]. Caller holds
   the lock. *)
let send_staged t tag ~bytes msg =
  for i = 0 to Array.length t.slots - 1 do
    let s = t.slots.(i) in
    if s.state <> Dead && tag >= s.staged_from then send t s ~bytes msg
  done

(* Send the payloads of [ops] to every non-dead slot ahead of the local
   op, so each backup claims ids and writes them to its SSD while this
   node does the same. Returns the tag the op's ordering entry names; 0
   when no slot takes it. *)
let stage t ops =
  if Array.length t.slots = 0 || t.fenced then 0
  else begin
    t.lock.Platform.lock ();
    let tag = t.tag + 1 in
    t.tag <- tag;
    let msg = Repl.Stage { tag; epoch = t.epoch; ops } in
    let bytes = Repl.msg_bytes msg in
    t.stage_msgs <- t.stage_msgs + 1;
    send_staged t tag ~bytes msg;
    t.lock.Platform.unlock ();
    tag
  end

(* The op of [tag] raised locally: the slots that were sent its stage
   give the claims back. *)
let drop t tag =
  if tag > 0 then begin
    t.lock.Platform.lock ();
    send_staged t tag ~bytes:Repl.header_bytes (Repl.Drop { tag; epoch = t.epoch });
    t.lock.Platform.unlock ()
  end

(* Assign the rseq and send under one lock hold: rseq order equals send
   order over each FIFO link, so stream order matches rseq order even
   with concurrent committers. Every committed entry goes out at once,
   as a message of its own: a header to a slot that was sent its stage,
   the whole op to the others. Returns the rseq; 0 when nothing
   shipped. *)
let ship t ~tag op =
  if Array.length t.slots = 0 && not t.journal_on then 0
  else begin
    t.lock.Platform.lock ();
    if t.fenced then begin
      t.lock.Platform.unlock ();
      raise Fenced
    end;
    t.rseq <- t.rseq + 1;
    t.ships <- t.ships + 1;
    let entry =
      { Repl.rseq = t.rseq; epoch = t.epoch; tag; op }
    in
    if t.journal_on then t.journal_rev <- entry :: t.journal_rev;
    let m = live_acked t ~best:false in
    if m <> max_int then t.lag_max <- max t.lag_max (t.rseq - m);
    if Array.length t.slots > 0 then begin
      let msg = Repl.Entry entry in
      let full = Repl.msg_bytes msg in
      t.ship_msgs <- t.ship_msgs + 1;
      t.ship_bytes <- t.ship_bytes + (if tag > 0 then Repl.header_bytes else full);
      for i = 0 to Array.length t.slots - 1 do
        let s = t.slots.(i) in
        if s.state <> Dead then begin
          send t s msg ~bytes:(if tag >= s.staged_from then Repl.header_bytes else full);
          if s.state <> Dead then s.shipped <- t.rseq
        end
      done
    end;
    t.lock.Platform.unlock ();
    t.rseq
  end

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

(* [n] is the client ops the entry carries: an R_batch of n puts books n
   waits of the whole wait each, the group-commit convention, so
   mean-wait-per-op stays comparable across batch sizes. *)
let wait_durable t span ~n rseq =
  if rseq > 0 && Array.length t.slots > 0 && t.mode <> Repl.Async then begin
    let t0 = t.platform.Platform.now () in
    t.lock.Platform.lock ();
    (match await_quorum t rseq with
    | () -> t.lock.Platform.unlock ()
    | exception e ->
        t.lock.Platform.unlock ();
        raise e);
    let dt = t.platform.Platform.now () - t0 in
    t.waits <- t.waits + n;
    t.wait_ns <- t.wait_ns + (n * dt);
    Span.stall span Span.Repl_wait dt
  end

let replicate t span ~tag op =
  wait_durable t span ~n:(Repl.rop_ops op) (ship t ~tag op)

let spans t = (Dstore.obs t.store).Obs.spans

(* A put's stage leaves before its local op; if the op raises, the
   backups are told to give the claims back. *)
let oput t ctx key value =
  enter t;
  match
    let span = Span.start (spans t) Span.Put key in
    let tag = stage t [ Dstore.Bput (key, value) ] in
    (match Dstore.oput ~span ctx key value with
    | () -> ()
    | exception e ->
        drop t tag;
        raise e);
    replicate t span ~tag (Repl.R_put (key, value));
    Span.finish span
  with
  | () -> leave t
  | exception e ->
      leave t;
      raise e

let odelete t ctx key =
  with_op t (fun () ->
      let span = Span.start (spans t) Span.Delete key in
      let existed = Dstore.odelete ~span ctx key in
      replicate t span ~tag:0 (Repl.R_delete key);
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
          let tag = stage t ops in
          let rs =
            match Dstore.obatch ~span ctx ops with
            | rs -> rs
            | exception e ->
                drop t tag;
                raise e
          in
          replicate t span ~tag (Repl.R_batch ops);
          Span.finish span;
          rs)

let ocreate t ctx key =
  with_op t (fun () ->
      let o = Dstore.oopen ctx key ~create:true Dstore.Wr in
      Dstore.oclose o;
      replicate t Span.none ~tag:0 (Repl.R_create key))

let owrite t ctx key ~off data =
  with_op t (fun () ->
      let span = Span.start (spans t) Span.Write key in
      let o = Dstore.oopen ctx key ~create:false Dstore.Rdwr in
      let n = Dstore.owrite ~span o data ~size:(Bytes.length data) ~off in
      Dstore.oclose o;
      replicate t span ~tag:0 (Repl.R_write { key; off; data });
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
    Platform.with_lock t.lock (fun () ->
        let slot =
          {
            node;
            data;
            ack;
            staged_from = t.tag + 1;
            state = (if syncing then Syncing else Live);
            shipped = acked0;
            acked = acked0;
          }
        in
        t.slots <- Array.append t.slots [| slot |];
        wake_all t;
        slot)
  in
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
  b_link_pending : int;
}

type status = {
  s_epoch : int;
  s_mode : Repl.durability;
  s_fenced : bool;
  s_rseq : int;
  s_backups : backup_status list;
}

let status t =
  Platform.with_lock t.lock (fun () ->
      {
        s_epoch = t.epoch;
        s_mode = t.mode;
        s_fenced = t.fenced;
        s_rseq = t.rseq;
        s_backups =
          Array.to_list
            (Array.map
               (fun s ->
                 {
                   b_node = s.node;
                   b_state = s.state;
                   b_shipped = s.shipped;
                   b_acked = s.acked;
                   b_link_pending = Link.pending s.data;
                 })
               t.slots);
      })
