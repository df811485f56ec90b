(** YCSB core workloads (Cooper et al., SoCC'10), as used in the paper's
    evaluation: workload A (50% read / 50% update), B (95/5), C (100/0),
    over a scrambled-Zipfian request distribution with 4 KB records. *)

open Dstore_util

type t = {
  name : string;
  read_pct : int;  (** Percent of operations that are reads. *)
  records : int;
  value_bytes : int;
  uniform : bool;
      (** Uniform request distribution instead of scrambled Zipfian. *)
}

val a : ?records:int -> ?value_bytes:int -> unit -> t

val b : ?records:int -> ?value_bytes:int -> unit -> t

val c : ?records:int -> ?value_bytes:int -> unit -> t

val write_only : ?records:int -> ?value_bytes:int -> unit -> t
(** 100% updates — the Figure 9 ablation workload. *)

val write_only_uniform : ?records:int -> ?value_bytes:int -> unit -> t
(** 100% updates over a uniform request distribution — the group-commit
    sweep workload, where writes are fence-bound rather than hot-key
    contention-bound. *)

val key : int -> string
(** YCSB-style key for record [i] ("user" ++ digits). *)

type op = Read of string | Update of string

type gen
(** Per-client operation generator (owns its Zipfian + RNG state). *)

val gen : t -> Rng.t -> gen

val next : gen -> op
