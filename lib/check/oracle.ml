(* Durability oracle: a volatile shadow model of what the store has
   durably acknowledged. See oracle.mli for the contract. *)

type pending =
  | P_none
  | P_put of { key : string; value : Bytes.t }
  | P_delete of { key : string }
  | P_write of {
      key : string;
      off : int;
      data : Bytes.t;
      page_size : int;
      old_value : Bytes.t;
    }
  | P_batch of (string * Bytes.t option) list
      (* Group commit in flight: per-key effect (Some v = put, None =
         delete) on pairwise-distinct keys. Any subset may survive a
         crash, so each key independently shows either its committed value
         or its batch effect. *)
  | P_txn of (string * Bytes.t option) list
      (* OCC transaction in flight: same per-key effect shape as P_batch
         but with the all-or-nothing contract — a crash must leave either
         every member at its committed value or every member at its txn
         effect, never a mix (cross-key check in [check]). *)

type t = {
  (* key -> durably-acknowledged value; None = durably absent. Every key
     the workload ever touched has an entry (the oracle universe). *)
  committed : (string, Bytes.t option) Hashtbl.t;
  mutable pending : pending;
}

let create () = { committed = Hashtbl.create 64; pending = P_none }

let committed_value t key =
  match Hashtbl.find_opt t.committed key with Some v -> v | None -> None

let touch t key =
  if not (Hashtbl.mem t.committed key) then Hashtbl.add t.committed key None

let require_idle t fn =
  if t.pending <> P_none then
    invalid_arg (fn ^ ": an operation is already in flight (single-client model)")

let begin_put t key value =
  require_idle t "Oracle.begin_put";
  touch t key;
  t.pending <- P_put { key; value = Bytes.copy value }

let begin_delete t key =
  require_idle t "Oracle.begin_delete";
  touch t key;
  t.pending <- P_delete { key }

(* The spliced image an owrite produces once every affected page is on the
   SSD: old content with [data] at [off], extended if off+len runs past
   the old end. Callers guarantee off <= |old| (the explorer clamps). *)
let splice ~old ~off ~data =
  let len = Bytes.length data in
  let new_size = max (Bytes.length old) (off + len) in
  let b = Bytes.make new_size '\000' in
  Bytes.blit old 0 b 0 (Bytes.length old);
  Bytes.blit data 0 b off len;
  b

let begin_write t ~key ~off ~data ~page_size =
  require_idle t "Oracle.begin_write";
  (match committed_value t key with
  | None -> invalid_arg "Oracle.begin_write: key not committed-present"
  | Some old ->
      if off > Bytes.length old then
        invalid_arg "Oracle.begin_write: offset beyond object end";
      touch t key;
      t.pending <-
        P_write { key; off; data = Bytes.copy data; page_size; old_value = old })

let distinct_effects fn t effects =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (key, _) ->
      if Hashtbl.mem seen key then
        invalid_arg (fn ^ ": repeated key");
      Hashtbl.add seen key ();
      touch t key)
    effects;
  List.map (fun (k, v) -> (k, Option.map Bytes.copy v)) effects

let begin_batch t effects =
  require_idle t "Oracle.begin_batch";
  t.pending <- P_batch (distinct_effects "Oracle.begin_batch" t effects)

let begin_txn t effects =
  require_idle t "Oracle.begin_txn";
  t.pending <- P_txn (distinct_effects "Oracle.begin_txn" t effects)

let commit_pending t =
  (match t.pending with
  | P_none -> invalid_arg "Oracle.commit_pending: nothing in flight"
  | P_put { key; value } -> Hashtbl.replace t.committed key (Some value)
  | P_delete { key } -> Hashtbl.replace t.committed key None
  | P_write { key; off; data; old_value; _ } ->
      Hashtbl.replace t.committed key (Some (splice ~old:old_value ~off ~data))
  | P_batch effects | P_txn effects ->
      List.iter (fun (key, v) -> Hashtbl.replace t.committed key v) effects);
  t.pending <- P_none

let abort_pending t = t.pending <- P_none

(* Acceptable recovered states for the key an op was in flight on. An
   owrite streams its affected pages to the SSD in ascending order, so the
   durable data-plane states are: for each j, the first j affected pages
   new and the rest old. Uncommitted, the old metadata caps the visible
   size at |old|; committed (which implies every page was written), the
   full spliced image at the new size is visible. *)
let write_candidates ~old ~off ~data ~page_size =
  let ps = page_size in
  let len = Bytes.length data in
  let old_size = Bytes.length old in
  let full = splice ~old ~off ~data in
  let first_page = off / ps in
  let last_page = (off + len - 1) / ps in
  let truncated_overlay j =
    let c = Bytes.copy old in
    for p = first_page to first_page + j - 1 do
      let lo = p * ps in
      let hi = min (lo + ps) old_size in
      if lo < old_size then Bytes.blit full lo c lo (hi - lo)
    done;
    c
  in
  let npages = last_page - first_page + 1 in
  let uncommitted = List.init (npages + 1) truncated_overlay in
  full :: uncommitted

let acceptable t key =
  let committed = committed_value t key in
  match t.pending with
  | P_put p when p.key = key -> [ committed; Some p.value ]
  | P_delete p when p.key = key -> [ committed; None ]
  | P_write p when p.key = key ->
      List.map Option.some
        (write_candidates ~old:p.old_value ~off:p.off ~data:p.data
           ~page_size:p.page_size)
  | P_batch effects when List.mem_assoc key effects ->
      (* Any-subset survival: this key's op committed or it didn't,
         independently of the rest of the batch. *)
      [ committed; List.assoc key effects ]
  | P_txn effects when List.mem_assoc key effects ->
      (* Per-key view only; the all-or-nothing coupling across members is
         enforced by the cross-key clause in [check]. *)
      [ committed; List.assoc key effects ]
  | _ -> [ committed ]

let show_value = function
  | None -> "absent"
  | Some b ->
      Printf.sprintf "%d bytes (crc-ish %#x)" (Bytes.length b)
        (Hashtbl.hash (Bytes.to_string b))

let check t ~read ~names =
  let bad = ref [] in
  let err fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  Hashtbl.iter
    (fun key _ ->
      let got = read key in
      let ok = acceptable t key in
      if not (List.exists (fun want -> got = want) ok) then
        err "oracle: key %S recovered as %s; acceptable: %s" key
          (show_value got)
          (String.concat " | " (List.map show_value ok)))
    t.committed;
  List.iter
    (fun name ->
      if not (Hashtbl.mem t.committed name) then
        err "oracle: phantom object %S (never written by the workload)" name)
    names;
  (* All-or-nothing coupling for an in-flight transaction: the per-key
     clause above already constrains each member to {committed, effect};
     here the members must additionally agree — all old or all new. *)
  (match t.pending with
  | P_txn effects when effects <> [] ->
      let all_old =
        List.for_all (fun (k, _) -> read k = committed_value t k) effects
      in
      let all_new = List.for_all (fun (k, e) -> read k = e) effects in
      if not (all_old || all_new) then
        err "oracle: torn transaction — members recovered mixed: %s"
          (String.concat ", "
             (List.map
                (fun (k, e) ->
                  Printf.sprintf "%S=%s" k
                    (if read k = e then "txn-effect"
                     else if read k = committed_value t k then "pre-txn"
                     else "other"))
                effects))
  | _ -> ());
  List.rev !bad
