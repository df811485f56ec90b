(* Shared replication protocol types: see repl.mli. *)

open Dstore_core

type durability = Async | Ack_one | Ack_all

let durability_name = function
  | Async -> "async"
  | Ack_one -> "ack-one"
  | Ack_all -> "ack-all"

let durability_of_string = function
  | "async" -> Some Async
  | "ack-one" | "ack_one" | "one" -> Some Ack_one
  | "ack-all" | "ack_all" | "all" -> Some Ack_all
  | _ -> None

type rop =
  | R_put of string * Bytes.t
  | R_delete of string
  | R_create of string
  | R_write of { key : string; off : int; data : Bytes.t }
  | R_batch of Dstore.batch_op list

let rop_bytes = function
  | R_put (k, v) -> String.length k + Bytes.length v
  | R_delete k -> String.length k
  | R_create k -> String.length k
  | R_write { key; data; _ } -> String.length key + Bytes.length data
  | R_batch ops ->
      List.fold_left
        (fun acc op ->
          acc
          +
          match op with
          | Dstore.Bput (k, v) -> String.length k + Bytes.length v
          | Dstore.Bdelete k -> String.length k)
        0 ops

let rop_ops = function R_batch ops -> List.length ops | _ -> 1

type entry = { rseq : int; epoch : int; tag : int; op : rop }

type msg =
  | Stage of { tag : int; epoch : int; ops : Dstore.batch_op list }
  | Drop of { tag : int; epoch : int }
  | Entry of entry

(* A message header plus a per-entry framing line. *)
let header_bytes = 64 + 16

let msg_bytes = function
  | Stage { ops; _ } -> header_bytes + rop_bytes (R_batch ops)
  | Drop _ -> header_bytes
  | Entry e -> header_bytes + rop_bytes e.op

type ack_msg = { a_epoch : int; a_rseq : int; a_ok : bool }

let apply_entry ctx = function
  | R_put (k, v) -> Dstore.oput ctx k v
  | R_delete k -> ignore (Dstore.odelete ctx k)
  | R_create k ->
      let o = Dstore.oopen ctx k ~create:true Dstore.Wr in
      Dstore.oclose o
  | R_write { key; off; data } ->
      (* create:false — ship order preserves create-before-write, and a
         sequential primary client cannot have a write outrun a delete. *)
      let o = Dstore.oopen ctx key ~create:false Dstore.Rdwr in
      ignore (Dstore.owrite o data ~size:(Bytes.length data) ~off);
      Dstore.oclose o
  | R_batch ops -> ignore (Dstore.obatch ctx ops)
