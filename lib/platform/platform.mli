(** Execution-environment abstraction.

    Every component of this codebase — devices, DIPPER, DStore, the
    baselines, the workload runner — runs against this record instead of
    calling the OS directly. Two implementations exist:

    - {!Sim_platform}: deterministic discrete-event simulation in virtual
      time. This is how the paper's 28-core, minute-long experiments are
      reproduced on this machine (see DESIGN.md).
    - {!Real_platform}: OS threads and wall-clock time, used by tests that
      need genuine preemption.

    Time is in integer nanoseconds. [consume] charges CPU work to the
    calling (simulated or real) thread; [sleep] blocks without consuming.
    Mutexes and condition variables follow the usual semantics; under
    simulation they are fair (FIFO) and hand off ownership directly. *)

type mutex = { lock : unit -> unit; unlock : unit -> unit }

type cond = {
  wait : mutex -> unit;  (** Atomically release, sleep, re-acquire. *)
  signal : unit -> unit;
  broadcast : unit -> unit;
}

type sem = { acquire : unit -> unit; release : unit -> unit }
(** Counting semaphore; models bounded device parallelism. FIFO under
    simulation. *)

type t = {
  name : string;
  now : unit -> int;  (** Nanoseconds since platform start. *)
  consume : int -> unit;  (** Occupy this thread's CPU for [ns]. *)
  sleep : int -> unit;  (** Block for [ns] without consuming CPU. *)
  spawn : string -> (unit -> unit) -> unit;  (** Start a background thread. *)
  new_mutex : unit -> mutex;
  new_cond : unit -> cond;
  new_sem : int -> sem;
  parallelism : int;  (** Hardware threads this platform models. *)
}

val with_lock : mutex -> (unit -> 'a) -> 'a
(** Run under the mutex; always unlocks, including on exceptions. *)

val ns_per_s : int
