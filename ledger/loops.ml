(* Load generators and the span harvester.

   Both loops run on the simulator's virtual clock. A closed loop has a
   fixed number of clients, each issuing its next op only when the last
   one returned, so a slow store receives less load. The open loop has
   one generator fiber issuing Poisson arrivals on a schedule and a pool
   of server fibers serving them FIFO, so a stall grows a queue and shows
   up as latency measured from the op's due time. *)

open Dstore_platform
open Dstore_util
module Span = Dstore_obs.Span
module Obs = Dstore_obs.Obs

(* --- span harvest --- *)

(* In [Span.seg_index] / [Span.cause_index] order. *)
let all_segs =
  Span.
    [|
      S_index; S_ticket; S_lock; S_append; S_fence; S_data; S_structs; S_stage;
      S_commit; S_ckpt_archive; S_ckpt_clone; S_ckpt_replay; S_ckpt_persist;
      S_ckpt_publish; S_rec_metadata; S_rec_replay; S_cache_fill; S_other;
    |]

let all_causes =
  Span.
    [|
      Ckpt_interference; Log_full; Conflict_retry; Batch_wait; Ssd_queue;
      Repl_wait; Txn_retry; Repl_apply;
    |]

(* Per-segment and per-cause totals over every op span a store finished.
   The recorder keeps only a bounded ring of finished spans, so the
   harvest must run often enough that the ring never wraps past a span it
   has not read; [lost] counts any it missed. *)
type spans = {
  rec_ : Span.recorder;
  mutable seen : int;
  mutable lost : int;
  mutable ops : int;  (* op spans, weighted by the ops each represents *)
  segs : int array;
  blames : int array;
  events : int array;
}

let spans rec_ =
  {
    rec_;
    seen = 0;
    lost = 0;
    ops = 0;
    segs = Array.make Span.n_segs 0;
    blames = Array.make Span.n_causes 0;
    events = Array.make Span.n_causes 0;
  }

let harvest h =
  let fin = Span.finished h.rec_ in
  let fresh = fin - h.seen in
  if fresh > 0 then begin
    let cap = Span.capacity h.rec_ in
    if fresh > cap then h.lost <- h.lost + (fresh - cap);
    List.iter
      (fun s ->
        if Span.is_op (Span.span_kind s) then begin
          let w = Span.span_ops s in
          h.ops <- h.ops + w;
          Array.iteri
            (fun i sg -> h.segs.(i) <- h.segs.(i) + (w * Span.segment s sg))
            all_segs;
          Array.iteri
            (fun i c ->
              h.blames.(i) <- h.blames.(i) + (w * Span.blame_of s c);
              h.events.(i) <- h.events.(i) + Span.events_of s c)
            all_causes
        end)
      (Span.last h.rec_ (min fresh cap));
    h.seen <- fin
  end

(* Start tracing a store at the opening of the measurement window: the
   load phase is never traced, so per-op figures cover the window only. *)
let arm obs =
  Span.reset obs.Obs.spans;
  Obs.set_enabled obs true

(* The default recorder ring holds 1024 spans; at most ~700 ops finish in
   50 us of virtual time on any workload here. *)
let slice_ns = 50_000

(* Run the simulation in [slice_ns] steps until [stop ()] holds or the
   clock reaches [until], harvesting finished spans after each step.
   Splitting [Sim.run_until] into steps replays exactly the same event
   sequence, and traced and untraced runs stop at the same instant. *)
let drive sim ?spans ~until ~stop () =
  let rec go () =
    if (not (stop ())) && Sim.now sim < until then begin
      Sim.run_until sim (min until (Sim.now sim + slice_ns));
      Option.iter harvest spans;
      go ()
    end
  in
  go ()

(* --- outcomes --- *)

type outcome = Read | Write | Fail

type tally = {
  lat : Samples.t;  (* every op; a failed op counts as never finishing *)
  reads : Samples.t;
  writes : Samples.t;
  call : Samples.t;  (* store-call time alone, without queueing *)
  mutable attempted : int;
  mutable failed : int;
}

let tally () =
  {
    lat = Samples.create ();
    reads = Samples.create ();
    writes = Samples.create ();
    call = Samples.create ();
    attempted = 0;
    failed = 0;
  }

let record t o ~lat ~call =
  t.attempted <- t.attempted + 1;
  Samples.add t.call call;
  match o with
  | Read ->
      Samples.add t.lat lat;
      Samples.add t.reads lat
  | Write ->
      Samples.add t.lat lat;
      Samples.add t.writes lat
  | Fail ->
      t.failed <- t.failed + 1;
      Samples.add t.lat max_int

(* --- closed loop --- *)

type closed = { c : tally; c_drain_ns : int }

(* [clients] fibers loop [op ()] until [window_ns] has passed, each after a
   think time jittered +-10% around [think_ns]. [client i rng] runs in the
   client's fiber and returns its op. Ops in flight at the window's close
   then get [drain_ns] to finish, and count as failed if they do not. *)
let closed_loop sim ?spans ~rng ~clients ~think_ns ~window_ns ~drain_ns client =
  let t = tally () in
  let t_end = Sim.now sim + window_ns in
  let running = ref clients in
  for i = 0 to clients - 1 do
    let r = Rng.split rng in
    Sim.spawn sim "client" (fun () ->
        let op = client i r in
        let rec loop () =
          if think_ns > 0 then Sim.wait sim (think_ns * (90 + Rng.int r 21) / 100);
          if Sim.now sim < t_end then begin
            let s = Sim.now sim in
            let o = op () in
            let d = Sim.now sim - s in
            record t o ~lat:d ~call:d;
            loop ()
          end
        in
        loop ();
        decr running)
  done;
  drive sim ?spans ~until:t_end ~stop:(fun () -> false) ();
  drive sim ?spans ~until:(t_end + drain_ns) ~stop:(fun () -> !running = 0) ();
  for _ = 1 to !running do
    record t Fail ~lat:0 ~call:0
  done;
  { c = t; c_drain_ns = Sim.now sim - t_end }

(* --- open loop --- *)

type opened = {
  o : tally;
  qwait : Samples.t;  (* due time to service start *)
  late_max_ns : int;  (* how late the generator ever ran *)
  backlog_max : int;  (* arrived and not yet finished *)
  backlog_close : int;  (* the same, at the window's close *)
  o_drain_ns : int;  (* window close to the last completion *)
  unfinished : int;  (* still not finished when the drain gave up *)
}

(* Poisson arrivals at [rate_kops] for [window_ns], drawn by one generator
   fiber from its own split of [rng]; [servers] fibers serve them FIFO
   with [serve i] (built in server [i]'s fiber). [gen rng] builds the
   generator's op source, drawn from at each arrival. After the window
   the servers get [drain_ns] to finish; ops still unfinished then count
   as failed. *)
let open_loop sim ?spans ~rng ~rate_kops ~window_ns ~drain_ns ~servers ~gen serve =
  let t = tally () in
  let qwait = Samples.create () in
  let grng = Rng.split rng in
  let q = Queue.create () in
  let m = Sim.Mutex.create sim and nonempty = Sim.Cond.create sim in
  let t0 = Sim.now sim in
  let t_end = t0 + window_ns in
  let generated = ref 0 and completed = ref 0 and gen_done = ref false in
  let late_max = ref 0 and backlog_max = ref 0 and last_done = ref t_end in
  let per_ns = rate_kops *. 1e3 /. 1e9 in
  Sim.spawn sim "generator" (fun () ->
      let draw = gen grng in
      let next = ref (float_of_int t0) in
      let rec loop () =
        next := !next -. (Float.log (1.0 -. Rng.float grng) /. per_ns);
        let due = int_of_float !next in
        if due < t_end then begin
          if due > Sim.now sim then Sim.wait sim (due - Sim.now sim);
          late_max := max !late_max (Sim.now sim - due);
          Queue.push (due, draw ()) q;
          incr generated;
          backlog_max := max !backlog_max (!generated - !completed);
          Sim.Cond.signal nonempty;
          loop ()
        end
      in
      loop ();
      gen_done := true;
      Sim.Cond.broadcast nonempty);
  for i = 0 to servers - 1 do
    Sim.spawn sim "server" (fun () ->
        let op = serve i in
        let rec loop () =
          Sim.Mutex.lock m;
          while Queue.is_empty q && not !gen_done do
            Sim.Cond.wait nonempty m
          done;
          match Queue.take_opt q with
          | None -> Sim.Mutex.unlock m
          | Some (due, x) ->
              Sim.Mutex.unlock m;
              let s = Sim.now sim in
              let o = op x in
              let f = Sim.now sim in
              Samples.add qwait (s - due);
              record t o ~lat:(f - due) ~call:(f - s);
              incr completed;
              last_done := f;
              loop ()
        in
        loop ())
  done;
  drive sim ?spans ~until:t_end ~stop:(fun () -> false) ();
  let backlog_close = !generated - !completed in
  let all_done () = !gen_done && !completed = !generated in
  drive sim ?spans ~until:(t_end + drain_ns) ~stop:all_done ();
  let unfinished = !generated - !completed in
  for _ = 1 to unfinished do
    record t Fail ~lat:0 ~call:0
  done;
  {
    o = t;
    qwait;
    late_max_ns = !late_max;
    backlog_max = !backlog_max;
    backlog_close;
    o_drain_ns = max 0 (!last_done - t_end);
    unfinished;
  }
