(* Simulated point-to-point network channel: see link.mli.

   Implementation: [send] computes the delivery time from the latency /
   bandwidth / jitter model, clamps it strictly after the previous
   message's delivery time (FIFO, like a TCP stream), and queues the
   message with that time under the link mutex. [recv] takes the queue's
   head once its delivery time has come, sleeping until then, or parks on
   a condvar while the queue is empty. Everything runs in the platform's
   virtual time, so a link adds no host-side threads or per-message
   processes and stays deterministic: jitter and drops are drawn from a
   SplitMix64 stream seeded per link. *)

open Dstore_util

type config = {
  latency_ns : int;
  gbps : float;
  jitter_ns : int;
  drop_prob : float;
  seed : int;
}

let default_config =
  { latency_ns = 5_000; gbps = 25.0; jitter_ns = 0; drop_prob = 0.0; seed = 1 }

type 'a t = {
  p : Platform.t;
  cfg : config;
  rng : Rng.t;
  lock : Platform.mutex;
  nonempty : Platform.cond;
  queue : (int * 'a) Queue.t;  (* (delivery time, message), in delivery order *)
  mutable last_deliver : int;  (* monotone delivery clock (FIFO order) *)
  mutable closed : bool;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

exception Closed

let create p cfg =
  {
    p;
    cfg;
    rng = Rng.create cfg.seed;
    lock = p.Platform.new_mutex ();
    nonempty = p.Platform.new_cond ();
    queue = Queue.create ();
    last_deliver = 0;
    closed = false;
    sent = 0;
    delivered = 0;
    dropped = 0;
  }

let transfer_ns cfg bytes =
  if cfg.gbps <= 0.0 then 0
  else int_of_float (float_of_int (bytes * 8) /. cfg.gbps)

let send t ?(bytes = 64) msg =
  t.lock.Platform.lock ();
  if t.closed then begin
    t.lock.Platform.unlock ();
    raise Closed
  end;
  t.sent <- t.sent + 1;
  let jitter =
    if t.cfg.jitter_ns > 0 then Rng.int t.rng (t.cfg.jitter_ns + 1) else 0
  in
  if t.cfg.drop_prob > 0.0 && Rng.float t.rng < t.cfg.drop_prob then
    t.dropped <- t.dropped + 1
  else begin
    let at =
      t.p.Platform.now () + t.cfg.latency_ns + transfer_ns t.cfg bytes + jitter
    in
    (* Strictly after the previous delivery: FIFO even under jitter. *)
    let at = max at (t.last_deliver + 1) in
    t.last_deliver <- at;
    Queue.push (at, msg) t.queue;
    (* A receiver parks only on an empty queue. *)
    if Queue.length t.queue = 1 then t.nonempty.Platform.broadcast ()
  end;
  t.lock.Platform.unlock ()

(* Under the link mutex; returns with it released. *)
let rec take t =
  if Queue.is_empty t.queue then
    if t.closed then begin
      t.lock.Platform.unlock ();
      raise Closed
    end
    else begin
      t.nonempty.Platform.wait t.lock;
      take t
    end
  else
    let at, msg = Queue.peek t.queue in
    let dt = at - t.p.Platform.now () in
    if dt > 0 then begin
      t.lock.Platform.unlock ();
      t.p.Platform.sleep dt;
      t.lock.Platform.lock ();
      take t
    end
    else begin
      ignore (Queue.pop t.queue);
      t.delivered <- t.delivered + 1;
      t.lock.Platform.unlock ();
      msg
    end

let recv t =
  t.lock.Platform.lock ();
  take t

let close t =
  Platform.with_lock t.lock (fun () ->
      if not t.closed then begin
        t.closed <- true;
        t.nonempty.Platform.broadcast ()
      end)

let pending t = Platform.with_lock t.lock (fun () -> Queue.length t.queue)

let sent t = t.sent
let delivered t = t.delivered
let dropped t = t.dropped
