type mutex = { lock : unit -> unit; unlock : unit -> unit }

type cond = {
  wait : mutex -> unit;
  signal : unit -> unit;
  broadcast : unit -> unit;
}

type sem = { acquire : unit -> unit; release : unit -> unit }

type t = {
  name : string;
  now : unit -> int;
  consume : int -> unit;
  sleep : int -> unit;
  spawn : string -> (unit -> unit) -> unit;
  new_mutex : unit -> mutex;
  new_cond : unit -> cond;
  new_sem : int -> sem;
  parallelism : int;
}

let with_lock m f =
  m.lock ();
  match f () with
  | v ->
      m.unlock ();
      v
  | exception e ->
      m.unlock ();
      raise e

let ns_per_s = 1_000_000_000
