(* Multi-key OCC transactions over the logical log.

   A transaction handle buffers a read-set (key -> first observed
   committed version) and a write-set (last-wins per key, first-touch
   order); nothing touches the store until commit. Commit hands both
   sets to [Dstore.txn_commit_writes], which validates the read-set
   under the engine's frontend lock and appends the write-set as one
   all-or-nothing log span (Txn_begin, members, Txn_commit) — see
   DESIGN.md "Transactions". The [txn] wrapper re-runs the caller's
   function on abort: at once the first time, then under volatile
   reservations on every key it has touched, so it finishes in a bounded
   number of attempts; a commit drops them at its pass. Reservation waits
   are [Span.Txn_retry] blame; its span also takes the read phase, so
   ticket waits of reads are [Span.Conflict_retry] blame on the
   transaction rather than time hidden before its first cut. *)

open Dstore_core
module Span = Dstore_obs.Span
module Obs = Dstore_obs.Obs

type abort_reason =
  | Conflict of string
  | Cross_shard of string

let pp_abort = function
  | Conflict k -> Printf.sprintf "conflict on %S" k
  | Cross_shard k -> Printf.sprintf "key %S routes to another shard" k

type state = Active | Committed | Aborted

type t = {
  ctx : Dstore.ctx;
  reads : (string, int) Hashtbl.t;
  mutable writes : (string * Dstore.batch_op) list;  (* newest first *)
  mutable state : state;
  span : Span.t;  (* the [txn] wrapper's, or [Span.none] *)
}

let make ~span ctx =
  { ctx; reads = Hashtbl.create 8; writes = []; state = Active; span }

let create ctx = make ~span:Span.none ctx

let check tx =
  match tx.state with
  | Active -> ()
  | Committed -> invalid_arg "Dstore_txn: transaction already committed"
  | Aborted -> invalid_arg "Dstore_txn: transaction already aborted"

let set_write tx key w =
  if List.mem_assoc key tx.writes then
    tx.writes <-
      List.map (fun (k, old) -> if k = key then (k, w) else (k, old)) tx.writes
  else tx.writes <- (key, w) :: tx.writes

(* Read-your-own-writes: the write-set shadows the store. A store read
   records the key's version on first observation only — commit-time
   validation checks exactly what the transaction's logic depended on. *)
let get tx key =
  check tx;
  match List.assoc_opt key tx.writes with
  | Some (Dstore.Bput (_, v)) -> Some (Bytes.copy v)
  | Some (Dstore.Bdelete _) -> None
  | None -> (
      match Dstore.oget_versioned ~span:tx.span tx.ctx key with
      | v, value ->
          if not (Hashtbl.mem tx.reads key) then Hashtbl.replace tx.reads key v;
          value
      | exception (Dstore.Would_wait _ as e) ->
          (* A reservation holder met another holder's reservation or a
             NOOP: the attempt is over, even if [fn] swallows this. *)
          tx.state <- Aborted;
          raise e)

let put tx key value =
  check tx;
  set_write tx key (Dstore.Bput (key, Bytes.copy value))

let delete tx key =
  check tx;
  set_write tx key (Dstore.Bdelete key)

let abort tx =
  check tx;
  tx.state <- Aborted

let commit tx =
  check tx;
  let reads = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tx.reads [] in
  let writes = List.rev_map snd tx.writes in  (* first-touch order *)
  match Dstore.txn_commit_writes ~span:tx.span tx.ctx ~reads ~writes with
  | Ok () ->
      tx.state <- Committed;
      Ok ()
  | Error key ->
      tx.state <- Aborted;
      Error (Conflict key)

(* --- retry wrapper -------------------------------------------------------- *)

let default_retries = 8

(* Every key the attempt touched, the keys the context already reserves
   and the key it aborted on: what the next attempt reserves. *)
let touched tx held key =
  let reads = Hashtbl.fold (fun k _ acc -> k :: acc) tx.reads [] in
  List.sort_uniq String.compare ((key :: held) @ List.map fst tx.writes @ reads)

(* The retry policy. Attempt 0 is plain OCC and attempt 1 retries it at
   once. From attempt 2 on, the attempt first reserves its previous key
   set ([touched], via [Dstore.reserve]): nobody else can commit to a
   reserved key, so a transaction with a fixed key set validates by its
   third attempt. Reservations are released before the next reservation
   is taken, so a context never waits holding any. *)
let txn ?(retries = default_retries) ctx fn =
  let store = Dstore.ctx_store ctx in
  let span = Span.start (Dstore.obs store).Obs.spans Span.Txn "(txn)" in
  let rec attempt n keys =
    let held = if n >= 2 then (Dstore.reserve ~span ctx keys; keys) else [] in
    let tx = make ~span ctx in
    match fn tx with
    | exception Dstore.Would_wait key -> retry n tx key (Conflict key) held
    | result -> (
        match tx.state with
        | Aborted -> Error (Conflict "(explicit abort)")
        | Committed -> Ok result
        | Active -> (
            match commit tx with
            | Ok () -> Ok result
            | Error ((Conflict key | Cross_shard key) as reason) ->
                retry n tx key reason held))
  and retry n tx key reason held =
    let keys = touched tx held key in
    Dstore.release ctx;
    if n >= retries then Error reason else attempt (n + 1) keys
  in
  (* Release the reservations and finish the span even when [fn] or the
     commit raises ([Log_full], [Out_of_blocks], ...): a reservation left
     behind would block its keys forever, an open span would never reach
     the recorder. *)
  Fun.protect
    ~finally:(fun () ->
      Dstore.release ctx;
      Span.seg span Span.S_commit;
      Span.finish span)
    (fun () -> attempt 0 [])
