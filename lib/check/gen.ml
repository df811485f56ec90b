open Dstore_util

type batch_item =
  | B_put of { key : string; size : int; vseed : int }
  | B_del of string

type op =
  | Put of { key : string; size : int; vseed : int }
  | Write of { key : string; off_pct : int; len : int; vseed : int }
  | Delete of string
  | Get of string
  | Lock of string
  | Unlock of string
  | Batch of batch_item list
  | Txn of { reads : string list; items : batch_item list }

(* Deterministic object contents: the value for (vseed, size) is the same
   in every run, which is what lets a crash replay reproduce the counting
   run byte for byte. *)
let value ~vseed size = Rng.bytes (Rng.create (0x5eed0000 + vseed)) size

(* A small hot key set plus a couple of long names: long keys force
   multi-slot log records, the case the reverse-order flush protocol (and
   the Skip_payload_flush mutation) is about. *)
let keys =
  let long tag =
    tag ^ "/" ^ String.concat "-" (List.init 12 (fun i -> Printf.sprintf "seg%02d" i))
  in
  [| "alpha"; "beta"; "gamma"; "delta"; "epsilon"; "zeta"; long "big0"; long "big1" |]

let pick_key rng = keys.(Rng.int rng (Array.length keys))

(* Size mix: mostly sub-page objects, some spanning several SSD pages so
   puts and writes exercise multi-block extents. *)
let pick_size rng =
  match Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> 1 + Rng.int rng 256
  | 4 | 5 | 6 -> 256 + Rng.int rng 3840
  | 7 | 8 -> 4096 + Rng.int rng 8192
  | _ -> 8192 + Rng.int rng 8192

let generate ~seed ~n =
  let rng = Rng.create seed in
  let vseed () = Rng.int rng 1_000_000 in
  (* Track which keys are (deterministically) lock-held so the sequence
     never double-locks or unlocks a free key. *)
  let locked = Hashtbl.create 8 in
  (* A batch: 2–4 pairwise-distinct, currently-unlocked keys, each getting
     a put (mostly) or a delete — the group-commit case whose crash points
     the explorer must cover. *)
  let batch () =
    let want = 2 + Rng.int rng 3 in
    let chosen = Hashtbl.create 4 in
    let items = ref [] in
    (* Bounded draw: the key set is small, so a few tries suffice; a short
       batch is fine. *)
    for _ = 1 to want * 4 do
      let key = pick_key rng in
      if
        List.length !items < want
        && (not (Hashtbl.mem chosen key))
        && not (Hashtbl.mem locked key)
      then begin
        Hashtbl.add chosen key ();
        let item =
          if Rng.int rng 100 < 70 then
            B_put { key; size = pick_size rng; vseed = vseed () }
          else B_del key
        in
        items := item :: !items
      end
    done;
    List.rev !items
  in
  (* A transaction: a batch-shaped write-set plus 0–2 read-set keys. All
     keys avoid lock-held names — a txn's member records conflict-scan
     like any write, and its reads wait out in-flight tickets, so the
     single-client driver would deadlock on its own advisory NOOP. *)
  let txn () =
    match batch () with
    | [] -> None
    | items ->
        let reads = ref [] in
        for _ = 1 to Rng.int rng 3 do
          let key = pick_key rng in
          if not (Hashtbl.mem locked key || List.mem key !reads) then
            reads := key :: !reads
        done;
        Some (Txn { reads = List.rev !reads; items })
  in
  let rec op () =
    let key = pick_key rng in
    match Rng.int rng 100 with
    | r when r < 30 -> Put { key; size = pick_size rng; vseed = vseed () }
    | r when r < 50 ->
        Write
          {
            key;
            off_pct = Rng.int rng 101;
            len = 1 + Rng.int rng 6144;
            vseed = vseed ();
          }
    | r when r < 65 -> Delete key
    | r when r < 71 -> (
        match batch () with [] -> op () | items -> Batch items)
    | r when r < 75 -> ( match txn () with None -> op () | Some t -> t)
    | r when r < 85 -> Get key
    | r when r < 93 ->
        if Hashtbl.mem locked key then op ()
        else begin
          Hashtbl.add locked key ();
          Lock key
        end
    | _ ->
        if Hashtbl.mem locked key then begin
          Hashtbl.remove locked key;
          Unlock key
        end
        else op ()
  in
  let body = List.init n (fun _ -> op ()) in
  (* Release whatever is still held so the sequence ends quiescent (no
     in-flight records left when the counting run finishes). *)
  let tail = Hashtbl.fold (fun k () acc -> Unlock k :: acc) locked [] in
  body @ List.sort compare tail
