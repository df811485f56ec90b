(* Backup engine: see backup.mli. *)

open Dstore_platform
open Dstore_core
module Obs = Dstore_obs.Obs
module Metrics = Dstore_obs.Metrics
module Span = Dstore_obs.Span

(* A pre-staged op: the ids its stage claimed and whether their payload
   write has finished. Ring entries are reused; [ptag] 0 marks a free one. *)
type pending = {
  mutable ptag : int;
  mutable claims : Dstore.staged list;
  mutable written : bool;
}

type t = {
  platform : Platform.t;
  store : Dstore.t;
  ctx : Dstore.ctx;
  data : Repl.msg Link.t;
  ack : Repl.ack_msg Link.t;
  mutable epoch : int;
  mutable applied_rseq : int;
  mutable rejects : int;
  mutable stopped : bool;
  (* apply pipeline: the receive loop drains the data link into this
     bounded queue (backpressuring into the link when full); the apply
     loop pops one entry at a time, re-executes it and acks it. Entries carry their enqueue time so queue wait
     becomes [Repl_apply] blame on this store's recorder. *)
  depth : int;
  queue : (Repl.entry * int) Queue.t;
  lock : Platform.mutex;
  not_full : Platform.cond;
  not_empty : Platform.cond;
  mutable recv_done : bool;
  mutable applying : bool;
  (* pre-staging: stages claimed but not yet applied, indexed by tag
     modulo [depth - 1] (empty at depth 1, or under physical logging);
     their payload writes queue in [jobs] for the writer fibers. *)
  ring : pending array;
  jobs : pending Queue.t;
  mutable writing : int;  (* payload writes in progress *)
  work : Platform.cond;  (* a job queued, or the loops end *)
  write_done : Platform.cond;  (* a payload write finished *)
  (* stats (exported as repl.* gauge views on the backup's registry) *)
  mutable apply_entries : int;
  mutable apply_drain_ns : int;
}

let register_views t =
  let m = (Dstore.obs t.store).Obs.metrics in
  Metrics.gauge_fn m "repl.apply_queue" (fun () -> Queue.length t.queue);
  Metrics.gauge_fn m "repl.apply_depth" (fun () -> t.depth);
  (* One entry per apply: [repl.apply_batches] is the entry count. *)
  Metrics.gauge_fn m "repl.apply_batches" (fun () -> t.apply_entries);
  Metrics.gauge_fn m "repl.apply_entries" (fun () -> t.apply_entries);
  Metrics.gauge_fn m "repl.apply_drain_ns" (fun () -> t.apply_drain_ns);
  Metrics.gauge_fn m "repl.prestaged" (fun () ->
      Array.fold_left (fun n p -> if p.ptag <> 0 then n + 1 else n) 0 t.ring)

let new_ring (cfg : Config.t) depth =
  let n = if cfg.Config.logging = Config.Logical then depth - 1 else 0 in
  Array.init n (fun _ -> { ptag = 0; claims = []; written = false })

let create platform ?(applied0 = 0) ~data ~ack ~epoch store =
  let cfg = Dstore.config store in
  let depth = max 1 cfg.Config.repl_apply_depth in
  let t =
    {
      platform;
      store;
      ctx = Dstore.ds_init store;
      data;
      ack;
      epoch;
      applied_rseq = applied0;
      rejects = 0;
      stopped = false;
      depth;
      queue = Queue.create ();
      lock = platform.Platform.new_mutex ();
      not_full = platform.Platform.new_cond ();
      not_empty = platform.Platform.new_cond ();
      recv_done = false;
      applying = false;
      ring = new_ring cfg depth;
      jobs = Queue.create ();
      writing = 0;
      work = platform.Platform.new_cond ();
      write_done = platform.Platform.new_cond ();
      apply_entries = 0;
      apply_drain_ns = 0;
    }
  in
  register_views t;
  t

(* --- pre-staged claims -------------------------------------------------- *)

(* Wait until everything received so far has been applied. Caller holds
   the lock. *)
let settle t =
  while (not t.stopped) && ((not (Queue.is_empty t.queue)) || t.applying) do
    t.not_empty.Platform.wait t.lock
  done

(* Give back every pre-staged claim, once no payload write is still
   running on them (a late write must not land on ids handed out again).
   Caller holds the lock. *)
let release_claims t =
  Queue.clear t.jobs;
  while t.writing > 0 do
    t.write_done.Platform.wait t.lock
  done;
  Array.iter
    (fun p ->
      if p.ptag <> 0 then Dstore.unstage t.store p.claims;
      p.ptag <- 0)
    t.ring

(* Tags are scoped to one primary incarnation: a stream of a newer epoch
   starts over, so the claims of the old one go back. *)
let adopt t epoch =
  t.lock.Platform.lock ();
  t.epoch <- epoch;
  settle t;
  release_claims t;
  t.lock.Platform.unlock ()

(* Claim ids for a stage and queue its payload write. Claims run in link
   order: only once everything received before the stage has applied, so
   the pools see claims and commit-time frees in the order a one-by-one
   replay of the stream would. A full ring, a taken slot or a full device
   leave the op to be staged at apply from its entry; an op the store
   rejects as malformed is left unstaged (its local op raises too, and
   no entry follows). *)
let prestage t tag ops =
  let n = Array.length t.ring in
  if n > 0 then begin
    t.lock.Platform.lock ();
    let p = t.ring.(tag mod n) in
    if p.ptag = 0 then begin
      settle t;
      if not t.stopped then
        match Dstore.claim t.store ops with
        | claims ->
            p.ptag <- tag;
            p.claims <- claims;
            p.written <- false;
            Queue.push p t.jobs;
            t.work.Platform.signal ()
        | exception (Dstore.Out_of_blocks | Invalid_argument _) -> ()
    end;
    t.lock.Platform.unlock ()
  end

(* The ring entry pre-staged for [tag], or [none]. *)
let none = { ptag = 0; claims = []; written = false }

let find t tag =
  let n = Array.length t.ring in
  if tag > 0 && n > 0 && t.ring.(tag mod n).ptag = tag then t.ring.(tag mod n)
  else none

exception Stopped

(* The claims of a pre-staged op, once its payload is written; the wait
   is [Repl_apply] blame. Frees the ring slot. Raises [Stopped] if the
   backup stops first. *)
let take t p =
  t.lock.Platform.lock ();
  if not p.written then begin
    let t0 = t.platform.Platform.now () in
    while (not p.written) && not t.stopped do
      t.write_done.Platform.wait t.lock
    done;
    Span.note_stall (Dstore.obs t.store).Obs.spans Span.Repl_apply
      (t.platform.Platform.now () - t0)
  end;
  let claims = p.claims and ok = p.written && p.ptag <> 0 in
  if ok then p.ptag <- 0;
  t.lock.Platform.unlock ();
  if ok then claims else raise Stopped

(* A writer fiber: runs queued payload writes until the loops end. *)
let writer_loop t =
  let rec loop () =
    t.lock.Platform.lock ();
    while Queue.is_empty t.jobs && not (t.stopped || t.recv_done) do
      t.work.Platform.wait t.lock
    done;
    if Queue.is_empty t.jobs then t.lock.Platform.unlock ()
    else begin
      let p = Queue.pop t.jobs in
      t.writing <- t.writing + 1;
      t.lock.Platform.unlock ();
      Dstore.write_payloads t.store p.claims;
      t.lock.Platform.lock ();
      t.writing <- t.writing - 1;
      p.written <- true;
      t.write_done.Platform.broadcast ();
      t.lock.Platform.unlock ();
      loop ()
    end
  in
  loop ()

(* Retire an incarnation without closing its links or its store: the
   loops drop whatever still arrives, and the claims go back. *)
let retire t =
  t.lock.Platform.lock ();
  t.stopped <- true;
  t.not_full.Platform.broadcast ();
  t.not_empty.Platform.broadcast ();
  t.work.Platform.broadcast ();
  t.write_done.Platform.broadcast ();
  release_claims t;
  t.lock.Platform.unlock ()

let reattach t ~data ~ack ~epoch =
  retire t;
  let t' =
    {
      t with
      data;
      ack;
      epoch = max epoch t.epoch;
      stopped = false;
      queue = Queue.create ();
      recv_done = false;
      applying = false;
      ring = new_ring (Dstore.config t.store) t.depth;
      jobs = Queue.create ();
      writing = 0;
    }
  in
  (* Callback gauges re-register freely: point the views at the live
     incarnation. *)
  register_views t';
  t'

let ack_fence_skipped t =
  (Dstore.config t.store).Config.fault = Config.Skip_replica_ack_fence

let send_ack t (e : Repl.entry) =
  Link.send t.ack
    { Repl.a_epoch = t.epoch; a_rseq = e.Repl.rseq; a_ok = true }

(* --- receive loop: link -> bounded queue -------------------------------- *)

let enqueue t (e : Repl.entry) =
  t.lock.Platform.lock ();
  while Queue.length t.queue >= t.depth && not t.stopped do
    t.not_full.Platform.wait t.lock
  done;
  if not t.stopped then begin
    (* Protocol mutation: the ack races ahead of durability — the
       primary may acknowledge the op to its caller while the entry is
       still queued here, so a pair crash inside that window loses an
       "acked durable" op on failover. *)
    if ack_fence_skipped t then send_ack t e;
    Queue.push (e, t.platform.Platform.now ()) t.queue;
    t.not_empty.Platform.broadcast ()
  end;
  t.lock.Platform.unlock ()

let reject t =
  t.rejects <- t.rejects + 1;
  Link.send t.ack { Repl.a_epoch = t.epoch; a_rseq = 0; a_ok = false }

(* A stale stage or drop is ignored: the entry that follows it is the
   message rejected. *)
let recv_loop t =
  let rec loop () =
    match Link.recv t.data with
    | exception Link.Closed -> ()
    | Repl.Entry e ->
        if e.Repl.epoch < t.epoch then reject t
        else begin
          if e.Repl.epoch > t.epoch then adopt t e.Repl.epoch;
          enqueue t e
        end;
        loop ()
    | Repl.Stage { tag; epoch; ops } ->
        if epoch > t.epoch then adopt t epoch;
        if epoch = t.epoch then prestage t tag ops;
        loop ()
    | Repl.Drop { tag; epoch } ->
        (* The op raised on the primary: its claims go back, in link
           order like a claim. *)
        let p = find t tag in
        if epoch = t.epoch && p != none then begin
          Platform.with_lock t.lock (fun () -> settle t);
          try Dstore.unstage t.store (take t p) with Stopped -> ()
        end;
        loop ()
  in
  loop ();
  Platform.with_lock t.lock (fun () ->
      t.recv_done <- true;
      t.not_empty.Platform.broadcast ();
      t.work.Platform.broadcast ())

(* --- apply loop: queue -> re-execution, one entry at a time ------------- *)

(* Re-execute one entry and ack it. Creates and ranged writes replay
   through their own entry points; every other entry runs as one group
   commit, with its pre-staged claims as they are, or claiming and
   writing its payloads here. *)
let ops_of = function
  | Repl.R_put (k, v) -> [ Dstore.Bput (k, v) ]
  | Repl.R_delete k -> [ Dstore.Bdelete k ]
  | Repl.R_batch ops -> ops
  | Repl.R_create _ | Repl.R_write _ -> []

let apply_one t (e : Repl.entry) t_enq =
  let spans = (Dstore.obs t.store).Obs.spans in
  let t0 = t.platform.Platform.now () in
  Span.note_stall spans Span.Repl_apply (max 0 (t0 - t_enq));
  let p = find t e.Repl.tag in
  if e.Repl.rseq <= t.applied_rseq then begin
    (* Already applied (a re-synced watermark): drop its claims. *)
    if p != none then Dstore.unstage t.store (take t p)
  end
  else begin
    (match e.Repl.op with
    | Repl.R_create _ | Repl.R_write _ -> Repl.apply_entry t.ctx e.Repl.op
    | op ->
        let staged, fresh =
          if p != none then (take t p, [])
          else
            let claims = Dstore.claim t.store (ops_of op) in
            (claims, claims)
        in
        let span = Span.start spans ~n_ops:(List.length staged) Span.Batch "(repl-apply)" in
        Dstore.write_payloads ~span t.store fresh;
        ignore (Dstore.exec_staged ~span t.ctx staged);
        Span.finish span);
    t.applied_rseq <- e.Repl.rseq;
    t.apply_entries <- t.apply_entries + 1;
    if not (ack_fence_skipped t) then try send_ack t e with Link.Closed -> ()
  end;
  t.apply_drain_ns <- t.apply_drain_ns + (t.platform.Platform.now () - t0)

let apply_loop t =
  let rec loop () =
    t.lock.Platform.lock ();
    while Queue.is_empty t.queue && not (t.stopped || t.recv_done) do
      t.not_empty.Platform.wait t.lock
    done;
    if t.stopped || Queue.is_empty t.queue then t.lock.Platform.unlock ()
    else begin
      let e, t_enq = Queue.pop t.queue in
      t.applying <- true;
      t.not_full.Platform.broadcast ();
      t.lock.Platform.unlock ();
      match apply_one t e t_enq with
      | exception Stopped -> ()
      | () ->
          t.lock.Platform.lock ();
          t.applying <- false;
          t.not_empty.Platform.broadcast ();
          t.lock.Platform.unlock ();
          loop ()
    end
  in
  loop ()

(* The receive and apply loops, plus one payload writer per SSD channel
   when the backup pre-stages. *)
let start t =
  t.platform.Platform.spawn "repl.backup.recv" (fun () -> recv_loop t);
  t.platform.Platform.spawn "repl.backup.apply" (fun () -> apply_loop t);
  if Array.length t.ring > 0 then
    for _ = 1 to Dstore.ssd_channels t.store do
      t.platform.Platform.spawn "repl.backup.write" (fun () -> writer_loop t)
    done

(* Wait until everything already received has been applied: the queue is
   empty and no entry is mid-execution. Used by failover to make the
   applied watermark stable before it is compared across survivors. *)
let drain t = Platform.with_lock t.lock (fun () -> settle t)

(* Entries still queued are dropped (never acked) and pre-staged claims
   go back before the store stops. *)
let stop t =
  if not t.stopped then begin
    retire t;
    Link.close t.data;
    Link.close t.ack;
    Dstore.stop t.store
  end

let store t = t.store
let applied_rseq t = t.applied_rseq
let rejects t = t.rejects
