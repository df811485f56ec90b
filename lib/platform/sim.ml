open Dstore_util
open Effect.Deep

(* The two effects a process can perform. [Wait] advances its local time;
   [Suspend] parks the process, handing its waker to a synchronization
   primitive's waiter queue (mutex/cond/resource). [wake] schedules the
   parked continuation at the current time of the process that wakes it —
   a direct ownership handoff, so wakeups are FIFO-fair and never lost. *)
type waker = (unit, unit) continuation

type _ Effect.t +=
  | Wait : int -> unit Effect.t
  | Suspend : (waker -> unit) -> unit Effect.t

(* A queued event is the continuation of the process it resumes; a
   spawned process is parked by a [Wait 0] before its body runs.

   [effc] allocates nothing: it stashes the effect's payload in [delay] or
   [park] and returns one of two handlers built with the simulator, which
   read the stash back. The runtime calls the returned handler as soon as
   [effc] returns, before any other OCaml code runs, so a stash is never
   overwritten before it is read. *)
type t = {
  mutable clock : int;
  mutable seq : int;
  events : waker Pqueue.t;
  mutable live : int;
  mutable blocked : int;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable delay : int;
  mutable park : waker -> unit;
  mutable handler : (unit, unit) handler;
}

(* Fills the event queue's vacated slots: a fiber parked once, at module
   initialisation, and never resumed. *)
let filler : waker =
  let k : waker option ref = ref None in
  match_with Effect.perform (Wait 0)
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait _ -> Some (fun (c : (a, unit) continuation) -> k := Some c)
          | _ -> None);
    };
  Option.get !k

let schedule t time k =
  t.seq <- t.seq + 1;
  Pqueue.push t.events (max time t.clock) t.seq k

let wake t k =
  t.blocked <- t.blocked - 1;
  schedule t t.clock k

let create () =
  let t =
    {
      clock = 0;
      seq = 0;
      events = Pqueue.create ~filler;
      live = 0;
      blocked = 0;
      failure = None;
      delay = 0;
      park = ignore;
      handler = { retc = ignore; exnc = raise; effc = (fun _ -> None) };
    }
  in
  let on_wait = Some (fun k -> schedule t (t.clock + max 0 t.delay) k) in
  let on_suspend =
    Some
      (fun k ->
        let register = t.park in
        t.park <- ignore;
        t.blocked <- t.blocked + 1;
        register k)
  in
  t.handler <-
    {
      retc = (fun () -> t.live <- t.live - 1);
      exnc =
        (fun e ->
          t.live <- t.live - 1;
          if t.failure = None then
            t.failure <- Some (e, Printexc.get_raw_backtrace ()));
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | Wait d ->
              t.delay <- d;
              on_wait
          | Suspend register ->
              t.park <- register;
              on_suspend
          | _ -> None);
    };
  t

let now t = t.clock

let spawn t name f =
  ignore name;
  match_with
    (fun () ->
      Effect.perform (Wait 0);
      t.live <- t.live + 1;
      f ())
    () t.handler

let wait _t d = Effect.perform (Wait d)

let check_failure t =
  match t.failure with
  | Some (e, bt) ->
      t.failure <- None;
      Printexc.raise_with_backtrace e bt
  | None -> ()

let step t =
  t.clock <- Pqueue.min_key t.events;
  continue (Pqueue.take t.events) ();
  check_failure t

let run t =
  while not (Pqueue.is_empty t.events) do
    step t
  done

let run_until t deadline =
  while
    (not (Pqueue.is_empty t.events)) && Pqueue.min_key t.events <= deadline
  do
    step t
  done;
  if t.clock < deadline then t.clock <- deadline

let clear_pending t =
  while not (Pqueue.is_empty t.events) do
    ignore (Pqueue.take t.events)
  done;
  t.live <- 0;
  t.blocked <- 0

let blocked_processes t = t.blocked

let live_processes t = t.live

(* A FIFO of parked processes and the prebuilt effect that parks one in it;
   [after_park] runs once the parker's continuation is queued. *)
type waitq = { sim : t; waiters : waker Queue.t; park : unit Effect.t }

let waitq ?(after_park = ignore) sim =
  let waiters = Queue.create () in
  {
    sim;
    waiters;
    park =
      Suspend
        (fun k ->
          Queue.push k waiters;
          after_park ());
  }

(* Wake the longest-parked process; false if none is parked. *)
let wake_first q =
  (not (Queue.is_empty q.waiters))
  && begin
       wake q.sim (Queue.pop q.waiters);
       true
     end

module Mutex = struct
  (* [unlock_fn] is [unlock] on this mutex, built once for {!Cond.wait}. *)
  type t = { q : waitq; mutable locked : bool; mutable unlock_fn : unit -> unit }

  let lock m = if not m.locked then m.locked <- true else Effect.perform m.q.park
  (* When resumed, ownership was handed off by [unlock]; [locked] stays true. *)

  let unlock m =
    assert m.locked;
    if not (wake_first m.q) then m.locked <- false

  let create sim =
    let m = { q = waitq sim; locked = false; unlock_fn = ignore } in
    m.unlock_fn <- (fun () -> unlock m);
    m

  let locked m = m.locked
end

module Cond = struct
  type t = { q : waitq; unlock : (unit -> unit) ref }

  let create sim =
    let unlock = ref ignore in
    (* Runs after the continuation is captured, so releasing the mutex here
       makes wait-and-release atomic: a signal arriving from the code the
       unlock admits finds us in the queue. *)
    let after_park () =
      let f = !unlock in
      unlock := ignore;
      f ()
    in
    { q = waitq ~after_park sim; unlock }

  let park_unlocking c f =
    c.unlock := f;
    Effect.perform c.q.park

  let wait c m =
    park_unlocking c m.Mutex.unlock_fn;
    Mutex.lock m

  let signal c = ignore (wake_first c.q)

  (* Only the waiters queued now; one they enqueue waits for the next
     broadcast. *)
  let broadcast c =
    for _ = 1 to Queue.length c.q.waiters do
      signal c
    done
end

module Resource = struct
  type t = { q : waitq; capacity : int; mutable in_use : int }

  let create sim ~capacity =
    assert (capacity > 0);
    { q = waitq sim; capacity; in_use = 0 }

  let acquire r =
    if r.in_use < r.capacity then r.in_use <- r.in_use + 1
    else Effect.perform r.q.park
  (* Handoff: the releaser keeps [in_use] constant and wakes us directly. *)

  let release r =
    assert (r.in_use > 0);
    if not (wake_first r.q) then r.in_use <- r.in_use - 1

  let use r ~service_ns =
    acquire r;
    wait r.q.sim service_ns;
    release r

  let in_use r = r.in_use

  let queued r = Queue.length r.q.waiters
end
