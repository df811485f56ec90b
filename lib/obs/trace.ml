(* A bounded DRAM ring of typed events stamped with virtual time. The ring
   never touches PMEM and never calls Platform.consume, so enabling it
   cannot perturb the persistence protocol or simulated timings — it is a
   pure observer (see DESIGN.md, "Observability"). *)

type ckpt_phase =
  | C_trigger
  | C_archive
  | C_clone
  | C_replay
  | C_persist
  | C_publish

type recovery_phase = R_start | R_redo_ckpt | R_rebuild | R_replay | R_done

type event =
  | Ckpt of ckpt_phase
  | Log_swap of { archived : int; active : int }
  | Conflict_wait of string
  | Log_full_stall
  | Recovery of recovery_phase
  | Crash_injected
  | Note of string

type entry = { seq : int; t_ns : int; ev : event }

type t = {
  now : unit -> int;
  ring : entry option array;
  mutable next_seq : int;  (* events emitted since creation / last clear *)
  mutable on : bool;
}

let create ?(capacity = 4096) ~now () =
  assert (capacity > 0);
  { now; ring = Array.make capacity None; next_seq = 0; on = true }

let enabled t = t.on

let set_enabled t v = t.on <- v

let capacity t = Array.length t.ring

let emitted t = t.next_seq

let length t = min t.next_seq (Array.length t.ring)

let emit t ev =
  if t.on then begin
    let seq = t.next_seq in
    t.ring.(seq mod Array.length t.ring) <- Some { seq; t_ns = t.now (); ev };
    t.next_seq <- seq + 1
  end

let clear t =
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.next_seq <- 0

(* Oldest-first contents. After wraparound the ring holds the newest
   [capacity] entries, starting at [next_seq mod capacity]. *)
let to_list t =
  let cap = Array.length t.ring in
  let n = length t in
  let first = if t.next_seq <= cap then 0 else t.next_seq mod cap in
  List.init n (fun i -> Option.get t.ring.((first + i) mod cap))

let last t n =
  let all = to_list t in
  let len = List.length all in
  if n >= len then all else List.filteri (fun i _ -> i >= len - n) all

(* --- names ---------------------------------------------------------------- *)

let ckpt_name = function
  | C_trigger -> "trigger"
  | C_archive -> "archive"
  | C_clone -> "clone"
  | C_replay -> "replay"
  | C_persist -> "persist"
  | C_publish -> "publish"

let recovery_name = function
  | R_start -> "start"
  | R_redo_ckpt -> "redo-checkpoint"
  | R_rebuild -> "rebuild"
  | R_replay -> "replay"
  | R_done -> "done"

let event_label = function
  | Ckpt p -> "ckpt." ^ ckpt_name p
  | Log_swap { archived; active } ->
      Printf.sprintf "log-swap archived=%d active=%d" archived active
  | Conflict_wait key -> Printf.sprintf "conflict-wait %S" key
  | Log_full_stall -> "log-full-stall"
  | Recovery p -> "recovery." ^ recovery_name p
  | Crash_injected -> "crash-injected"
  | Note s -> "note " ^ s

let event_json = function
  | Ckpt p ->
      Json.Obj
        [ ("type", Json.String "ckpt_phase"); ("phase", Json.String (ckpt_name p)) ]
  | Log_swap { archived; active } ->
      Json.Obj
        [
          ("type", Json.String "log_swap");
          ("archived", Json.Int archived);
          ("active", Json.Int active);
        ]
  | Conflict_wait key ->
      Json.Obj [ ("type", Json.String "conflict_wait"); ("key", Json.String key) ]
  | Log_full_stall -> Json.Obj [ ("type", Json.String "log_full_stall") ]
  | Recovery p ->
      Json.Obj
        [
          ("type", Json.String "recovery_phase");
          ("phase", Json.String (recovery_name p));
        ]
  | Crash_injected -> Json.Obj [ ("type", Json.String "crash_injected") ]
  | Note s -> Json.Obj [ ("type", Json.String "note"); ("text", Json.String s) ]

let entry_json e =
  match event_json e.ev with
  | Json.Obj fields ->
      Json.Obj (("seq", Json.Int e.seq) :: ("t_ns", Json.Int e.t_ns) :: fields)
  | other -> other

let to_json ?last:(n = max_int) t =
  Json.List (List.map entry_json (last t n))

let print ?(oc = stdout) ?last:(n = 20) t =
  let entries = last t n in
  if entries = [] then output_string oc "(trace empty)\n"
  else
    List.iter
      (fun e ->
        Printf.fprintf oc "%8d  %12d ns  %s\n" e.seq e.t_ns (event_label e.ev))
      entries;
  flush oc
