(* Backup engine: see backup.mli. *)

open Dstore_platform
open Dstore_core
module Obs = Dstore_obs.Obs
module Metrics = Dstore_obs.Metrics
module Span = Dstore_obs.Span

type t = {
  platform : Platform.t;
  store : Dstore.t;
  ctx : Dstore.ctx;
  data : Repl.entry Link.t;
  ack : Repl.ack_msg Link.t;
  mutable epoch : int;
  mutable applied_rseq : int;
  mutable rejects : int;
  mutable stopped : bool;
  (* apply pipeline: the receive loop drains the data link into this
     bounded queue (backpressuring into the link when full); the apply
     loop drains it in chunks and re-executes them through the
     group-commit path. Entries carry their enqueue time so queue wait
     becomes [Repl_apply] blame on this store's recorder. *)
  depth : int;
  chunk : int;
  queue : (Repl.entry * int) Queue.t;
  lock : Platform.mutex;
  not_full : Platform.cond;
  not_empty : Platform.cond;
  mutable recv_done : bool;
  mutable applying : bool;
  (* stats (exported as repl.* gauge views on the backup's registry) *)
  mutable apply_batches : int;
  mutable apply_entries : int;
  mutable apply_drain_ns : int;
}

let register_views t =
  let m = (Dstore.obs t.store).Obs.metrics in
  Metrics.gauge_fn m "repl.apply_queue" (fun () -> Queue.length t.queue);
  Metrics.gauge_fn m "repl.apply_depth" (fun () -> t.depth);
  Metrics.gauge_fn m "repl.apply_batches" (fun () -> t.apply_batches);
  Metrics.gauge_fn m "repl.apply_entries" (fun () -> t.apply_entries);
  Metrics.gauge_fn m "repl.apply_drain_ns" (fun () -> t.apply_drain_ns)

let create platform ?(applied0 = 0) ~data ~ack ~epoch store =
  let cfg = Dstore.config store in
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
      depth = max 1 cfg.Config.repl_apply_depth;
      chunk = max 1 cfg.Config.repl_ship_ops;
      queue = Queue.create ();
      lock = platform.Platform.new_mutex ();
      not_full = platform.Platform.new_cond ();
      not_empty = platform.Platform.new_cond ();
      recv_done = false;
      applying = false;
      apply_batches = 0;
      apply_entries = 0;
      apply_drain_ns = 0;
    }
  in
  register_views t;
  t

let reattach t ~data ~ack ~epoch =
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
    { Repl.a_epoch = t.epoch; a_rseq = e.Repl.rseq; a_lsn = e.Repl.lsn; a_ok = true }

(* --- receive loop: link -> bounded queue -------------------------------- *)

let enqueue t (e : Repl.entry) =
  Platform.with_lock t.lock (fun () ->
      while Queue.length t.queue >= t.depth && not t.stopped do
        t.not_full.Platform.wait t.lock
      done;
      if not t.stopped then begin
        (* Protocol mutation: the ack races ahead of durability — the
           primary may acknowledge the op to its caller while the entry
           is still queued here, so a pair crash inside that window
           loses an "acked durable" op on failover. *)
        if ack_fence_skipped t then send_ack t e;
        Queue.push (e, t.platform.Platform.now ()) t.queue;
        t.not_empty.Platform.broadcast ()
      end)

let recv_loop t =
  let rec loop () =
    match Link.recv t.data with
    | exception Link.Closed -> ()
    | e ->
        (if e.Repl.epoch < t.epoch then begin
           t.rejects <- t.rejects + 1;
           Link.send t.ack
             { Repl.a_epoch = t.epoch; a_rseq = 0; a_lsn = 0; a_ok = false }
         end
         else begin
           if e.Repl.epoch > t.epoch then t.epoch <- e.Repl.epoch;
           enqueue t e
         end);
        loop ()
  in
  loop ();
  Platform.with_lock t.lock (fun () ->
      t.recv_done <- true;
      t.not_empty.Platform.broadcast ())

(* --- apply loop: queue -> group-commit re-execution --------------------- *)

(* Re-execute one drained chunk. Puts, deletes and shipped group
   commits coalesce into a single [obatch] run — safe because batched
   and unbatched execution are byte-identical by construction (the
   engine splits dup-key batches itself) — while creates and ranged
   writes break the run and replay through their own entry points. One
   ack covers the whole chunk (the highest rseq applied). *)
let apply_chunk t entries =
  let spans = (Dstore.obs t.store).Obs.spans in
  let now () = t.platform.Platform.now () in
  let t0 = now () in
  List.iter
    (fun ((_ : Repl.entry), t_enq) ->
      Span.note_stall spans Span.Repl_apply (max 0 (t0 - t_enq)))
    entries;
  let run_rev = ref [] in
  let flush_run () =
    match List.rev !run_rev with
    | [] -> ()
    | ops ->
        run_rev := [];
        let span =
          Span.start spans ~n_ops:(List.length ops) Span.Batch "(repl-apply)"
        in
        ignore (Dstore.obatch ~span t.ctx ops);
        Span.finish span
  in
  let last = ref None in
  List.iter
    (fun ((e : Repl.entry), _) ->
      if e.Repl.rseq > t.applied_rseq then begin
        (match e.Repl.op with
        | Repl.R_put (k, v) -> run_rev := Dstore.Bput (k, v) :: !run_rev
        | Repl.R_delete k -> run_rev := Dstore.Bdelete k :: !run_rev
        | Repl.R_batch ops -> run_rev := List.rev_append ops !run_rev
        | Repl.R_create _ | Repl.R_write _ ->
            flush_run ();
            Repl.apply_entry t.ctx e.Repl.op);
        t.applied_rseq <- e.Repl.rseq;
        t.apply_entries <- t.apply_entries + 1;
        last := Some e
      end)
    entries;
  flush_run ();
  t.apply_batches <- t.apply_batches + 1;
  t.apply_drain_ns <- t.apply_drain_ns + (now () - t0);
  match !last with
  | Some e when not (ack_fence_skipped t) ->
      (* One ack for the span: the primary's per-slot watermark is
         monotone, so acking the highest rseq releases every durability
         wait at or below it. *)
      (try send_ack t e with Link.Closed -> ())
  | _ -> ()

let apply_loop t =
  let rec loop () =
    let chunk =
      Platform.with_lock t.lock (fun () ->
          while Queue.is_empty t.queue && not (t.stopped || t.recv_done) do
            t.not_empty.Platform.wait t.lock
          done;
          if t.stopped || Queue.is_empty t.queue then None
          else begin
            let n = min t.chunk (Queue.length t.queue) in
            let acc = ref [] in
            for _ = 1 to n do
              acc := Queue.pop t.queue :: !acc
            done;
            t.applying <- true;
            t.not_full.Platform.broadcast ();
            Some (List.rev !acc)
          end)
    in
    match chunk with
    | None -> ()
    | Some entries ->
        apply_chunk t entries;
        Platform.with_lock t.lock (fun () ->
            t.applying <- false;
            t.not_empty.Platform.broadcast ());
        loop ()
  in
  loop ()

let start t =
  t.platform.Platform.spawn "repl.backup.recv" (fun () -> recv_loop t);
  t.platform.Platform.spawn "repl.backup.apply" (fun () -> apply_loop t)

(* Wait until everything already received has been applied: the queue is
   empty and no chunk is mid-execution. Used by failover to make the
   applied watermark stable before it is compared across survivors. *)
let drain t =
  Platform.with_lock t.lock (fun () ->
      while
        (not t.stopped)
        && ((not (Queue.is_empty t.queue)) || t.applying)
      do
        t.not_empty.Platform.wait t.lock
      done)

let stop t =
  if not t.stopped then begin
    Platform.with_lock t.lock (fun () ->
        t.stopped <- true;
        t.not_full.Platform.broadcast ();
        t.not_empty.Platform.broadcast ());
    Link.close t.data;
    Link.close t.ack;
    Dstore.stop t.store
  end

let store t = t.store
let epoch t = t.epoch
let applied_rseq t = t.applied_rseq
let rejects t = t.rejects
