(* Simulated point-to-point network channel: see link.mli.

   Implementation: [send] computes the delivery time from the latency /
   bandwidth / jitter model, clamps it strictly after the previous
   message's delivery time (FIFO, like a TCP stream), and spawns a tiny
   deliverer process that sleeps until then and appends the message to
   the ready queue under the link mutex. [recv] is a standard
   mutex/condvar consumer. Everything runs in the platform's virtual
   time, so a link adds no host-side threads and stays deterministic:
   jitter and drops are drawn from a SplitMix64 stream seeded per
   link. *)

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
  ready : 'a Queue.t;
  mutable last_deliver : int;  (* monotone delivery clock (FIFO order) *)
  mutable in_flight : int;
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
    ready = Queue.create ();
    last_deliver = 0;
    in_flight = 0;
    closed = false;
    sent = 0;
    delivered = 0;
    dropped = 0;
  }

let transfer_ns cfg bytes =
  if cfg.gbps <= 0.0 then 0
  else int_of_float (float_of_int (bytes * 8) /. cfg.gbps)

let send t ?(bytes = 64) msg =
  let deliver_at =
    Platform.with_lock t.lock (fun () ->
        if t.closed then raise Closed;
        t.sent <- t.sent + 1;
        let jitter =
          if t.cfg.jitter_ns > 0 then Rng.int t.rng (t.cfg.jitter_ns + 1) else 0
        in
        let drop =
          t.cfg.drop_prob > 0.0 && Rng.float t.rng < t.cfg.drop_prob
        in
        if drop then begin
          t.dropped <- t.dropped + 1;
          None
        end
        else begin
          let at =
            t.p.Platform.now () + t.cfg.latency_ns + transfer_ns t.cfg bytes
            + jitter
          in
          (* Strictly after the previous delivery: FIFO even under jitter. *)
          let at = max at (t.last_deliver + 1) in
          t.last_deliver <- at;
          t.in_flight <- t.in_flight + 1;
          Some at
        end)
  in
  match deliver_at with
  | None -> ()
  | Some at ->
      t.p.Platform.spawn "link.deliver" (fun () ->
          let dt = at - t.p.Platform.now () in
          if dt > 0 then t.p.Platform.sleep dt;
          Platform.with_lock t.lock (fun () ->
              Queue.push msg t.ready;
              t.in_flight <- t.in_flight - 1;
              t.nonempty.Platform.broadcast ()))

let recv t =
  Platform.with_lock t.lock (fun () ->
      let rec wait () =
        if not (Queue.is_empty t.ready) then begin
          t.delivered <- t.delivered + 1;
          Queue.pop t.ready
        end
        else if t.closed && t.in_flight = 0 then raise Closed
        else begin
          t.nonempty.Platform.wait t.lock;
          wait ()
        end
      in
      wait ())

let close t =
  Platform.with_lock t.lock (fun () ->
      if not t.closed then begin
        t.closed <- true;
        t.nonempty.Platform.broadcast ()
      end)

let pending t =
  Platform.with_lock t.lock (fun () -> t.in_flight + Queue.length t.ready)

let sent t = t.sent
let delivered t = t.delivered
let dropped t = t.dropped
