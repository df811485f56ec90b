(* The DStore performance ledger (see README.md in this directory).

   One workload, one pass:

     sh ledger/run.sh --workload write_hot --seed 7 --seconds 15 --trace 0

   prints every metric by name with its unit and, as its last line, one
   JSON object {correct, attempted, failed, metrics}. [--trace 0] runs
   the workload untraced [reps] times, each repetition on a fresh
   simulator with its own set-up, and reports the end-to-end metrics;
   [--trace 1] runs one repetition untraced and the same one traced and
   reports the per-layer metrics. Without [--workload]:

     dune exec ./ledger/ledger.exe -- [--seed N] [--out FILE] [--check FILE]

   runs every workload untraced, then every workload traced, and writes
   the ledger JSON to [--out]. [--check FILE] reruns the seed and shape
   recorded in a committed ledger and compares: virtual fields must match
   exactly, host fields must stay within the bounds in BENCHMARK.json.
   [--smoke] shrinks every window to 1/50 for the test suite. The exit
   status is nonzero on any failed output check or ledger mismatch. *)

module Json = Dstore_obs.Json
module W = Workloads

(* --- declared metrics (must equal BENCHMARK.json) --- *)

type side = Virtual | Host

let end_to_end =
  [
    ("throughput_kops", "Kops/s", Virtual);
    ("mean_us", "us", Virtual);
    ("tail99_us", "us", Virtual);
    ("tail999_us", "us", Virtual);
    ("alloc_words_per_op", "words", Host);
    ("setup_s", "s", Host);
  ]

let per_layer =
  [
    ("workload.offered_kops", "Kops/s");
    ("workload.p50_us", "us");
    ("workload.p99_us", "us");
    ("workload.p999_us", "us");
    ("workload.p9999_us", "us");
    ("workload.gen_late_max_us", "us");
    ("workload.backlog_max", "ops");
    ("workload.drain_ms", "ms");
    ("workload.queue_wait_p999_us", "us");
    ("workload.slo_kops", "Kops/s");
    ("workload.read_p999_us", "us");
    ("workload.write_p999_us", "us");
    ("workload.recovery_ms", "ms");
    ("workload.error_rate", "ratio");
    ("core.call_p50_us", "us");
    ("core.call_p999_us", "us");
    ("core.seg.index_ns", "ns/op");
    ("core.seg.ticket_ns", "ns/op");
    ("core.seg.lock_ns", "ns/op");
    ("core.seg.append_ns", "ns/op");
    ("core.seg.fence_ns", "ns/op");
    ("core.seg.data_ns", "ns/op");
    ("core.seg.structs_ns", "ns/op");
    ("core.seg.stage_ns", "ns/op");
    ("core.seg.commit_ns", "ns/op");
    ("core.seg.other_ns", "ns/op");
    ("core.blame.conflict_retry_ns", "ns/op");
    ("core.blame.log_full_ns", "ns/op");
    ("core.blame.ckpt_interference_ns", "ns/op");
    ("core.blame.batch_wait_ns", "ns/op");
    ("core.blame.conflict_retry_events", "1/op");
    ("core.blame.log_full_events", "1/op");
    ("core.tail_attributed_pct", "%");
    ("core.records_appended", "1/op");
    ("core.conflict_waits", "1/op");
    ("core.log_full_stalls", "1/op");
    ("core.ckpt_per_s", "1/s");
    ("core.ckpt_busy_pct", "%");
    ("core.ckpt_clone_us", "us/ckpt");
    ("core.ckpt_replay_us", "us/ckpt");
    ("core.ckpt_persist_us", "us/ckpt");
    ("core.ckpt_bytes_cloned", "B/ckpt");
    ("core.ckpt_delta_skip_ratio", "ratio");
    ("core.recovery_metadata_ms", "ms");
    ("core.recovery_replay_ms", "ms");
    ("core.recovery_replayed_records", "count");
    ("core.dram_bytes_per_object", "B");
    ("core.pmem_bytes_per_object", "B");
    ("cache.hit_ratio", "ratio");
    ("cache.evictions", "1/op");
    ("cache.invalidations", "1/op");
    ("cache.fills", "1/op");
    ("cache.recycled_ratio", "ratio");
    ("cache.fill_ns", "ns/op");
    ("pmem.fences", "1/op");
    ("pmem.flushes", "1/op");
    ("pmem.flushed_bytes", "B/op");
    ("pmem.written_bytes", "B/op");
    ("pmem.bulk_read_bytes", "B/op");
    ("ssd.reads", "1/op");
    ("ssd.writes", "1/op");
    ("ssd.bytes_written_per_user_byte", "ratio");
    ("ssd.queue_ns", "ns/op");
    ("txn.abort_ratio", "ratio");
    ("txn.attempts_per_commit", "ratio");
    ("txn.retry_ns", "ns/op");
    ("txn.members_per_commit", "ratio");
    ("repl.wait_ns", "ns/op");
    ("repl.ship_fill", "entries/msg");
    ("repl.ship_bytes", "B/op");
    ("repl.msgs", "1/op");
    ("repl.lag_max", "entries");
    ("repl.apply_fill", "entries/batch");
    ("repl.apply_queue_ns", "ns/op");
    ("host.ns_per_op", "ns");
    ("host.trace_overhead_pct", "%");
    ("host.trace_alloc_words_per_op", "words");
    ("host.major_gcs", "count");
    ("host.peak_heap_mb", "MB");
  ]

let side_of name =
  match List.find_opt (fun (n, _, _) -> n = name) end_to_end with
  | Some (_, _, s) -> s
  | None -> if String.starts_with ~prefix:"host." name then Host else Virtual

let unit_of name =
  match List.find_opt (fun (n, _, _) -> n = name) end_to_end with
  | Some (_, u, _) -> u
  | None -> List.assoc name per_layer

(* --- run shape --- *)

let reps = 7

(* Repetition [i] of a run draws from its own seed, so the windows are
   independent samples of the same workload. *)
let rep_seed seed i = (seed * 1000) + i

let ladder_step_ns = 250_000_000

type shape = { seconds : int; smoke : bool }

let reps_of shape = if shape.smoke then 1 else reps

(* One repetition's virtual window; --smoke runs 1/50 of a whole run's
   windows in a single repetition. *)
let window shape (w : W.workload) =
  let ns = w.W.ns_per_s * shape.seconds in
  if shape.smoke then ns / 50 else ns / reps

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let per_op x (r : W.rep) =
  if r.W.attempted = 0 then 0.0 else x /. float_of_int r.W.attempted

let log fmt = Printf.ksprintf print_endline fmt

(* Failures go to stderr, so they show when stdout is discarded. *)
let error fmt = Printf.ksprintf prerr_endline fmt

(* --- end-to-end --- *)

(* Latencies are pooled over every repetition's samples. Allocation and
   set-up time are the median repetition's. Host CPU per op is not an
   end-to-end metric: on a shared machine it drifts by tens of percent
   between whole runs, wider than any bound; the per-layer pass reports
   it as [host.ns_per_op]. *)
let e2e_of (rs : W.rep list) =
  let lat = Samples.create () in
  List.iter (fun r -> Samples.append ~dst:lat r.W.lat) rs;
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let window_s = float_of_int (sum (fun r -> r.W.window_ns)) /. 1e9 in
  let metrics =
    [
      ("throughput_kops", float_of_int (sum (fun r -> r.W.completed)) /. window_s /. 1e3);
      ("mean_us", Samples.mean lat /. 1e3);
      ("tail99_us", Samples.tail_mean lat 99.0 /. 1e3);
      ("tail999_us", Samples.tail_mean lat 99.9 /. 1e3);
      ("alloc_words_per_op", median (List.map (fun r -> per_op r.W.alloc_words r) rs));
      ("setup_s", median (List.map (fun r -> r.W.setup_s) rs));
    ]
  in
  (metrics, lat)

let virtual_only metrics = List.filter (fun (n, _) -> side_of n = Virtual) metrics

type result = {
  wname : string;
  metrics : (string * float) list;
  attempted : int;
  failed : int;
  errors : string list;
  notes : (string * string) list;  (* per-metric sample counts *)
}

let run_e2e shape ~seed (w : W.workload) =
  let window_ns = window shape w in
  let n = reps_of shape in
  let rs =
    List.init n (fun i ->
        Gc.compact ();
        w.W.run ~seed:(rep_seed seed i) ~window_ns ~traced:false)
  in
  let metrics, lat = e2e_of rs in
  let pct p =
    Printf.sprintf "p%g %.2f us with %d beyond" p (Samples.us lat p) (Samples.beyond lat p)
  in
  let per_rep f = "per repetition: " ^ String.concat " " (List.map f rs) in
  {
    wname = w.W.name;
    metrics;
    attempted = List.fold_left (fun a r -> a + r.W.attempted) 0 rs;
    failed = List.fold_left (fun a r -> a + r.W.failed) 0 rs;
    errors = List.concat_map (fun r -> r.W.errors) rs;
    notes =
      [
        ("throughput_kops", Printf.sprintf "%d repetitions" n);
        ("mean_us", Printf.sprintf "%d samples; %s" (Samples.count lat) (pct 50.0));
        ("tail99_us", pct 99.0);
        ("tail999_us", pct 99.9 ^ "; " ^ pct 99.99);
        ( "alloc_words_per_op",
          "host ns/op " ^ per_rep (fun r -> Printf.sprintf "%.0f" (per_op r.W.host_ns r)) );
        ("setup_s", per_rep (fun r -> Printf.sprintf "%.3f" r.W.setup_s));
      ];
  }

(* --- per-layer --- *)

(* One repetition untraced, the same one traced. Their virtual end-to-end
   fields must be identical (observability never perturbs the simulated
   store); the host difference is the tracing overhead. *)
let run_layers shape ~seed (w : W.workload) =
  let window_ns = window shape w in
  let go traced =
    Gc.compact ();
    w.W.run ~seed:(rep_seed seed 0) ~window_ns ~traced
  in
  let u = go false in
  let t = go true in
  let virtual_e2e r = virtual_only (fst (e2e_of [ r ])) in
  let identity =
    if virtual_e2e u = virtual_e2e t && u.W.attempted = t.W.attempted then []
    else [ "traced run's virtual end-to-end fields differ from the untraced run's" ]
  in
  let slo =
    if w.W.name <> "ycsb_a_open" then 0.0
    else
      W.slo_ladder ~seed
        ~step_ns:(if shape.smoke then ladder_step_ns / 50 else ladder_step_ns)
  in
  let pct a b = if b = 0.0 then 0.0 else 100.0 *. ((a /. b) -. 1.0) in
  let host =
    [
      ("host.ns_per_op", per_op u.W.host_ns u);
      ("host.trace_overhead_pct", pct (per_op t.W.host_ns t) (per_op u.W.host_ns u));
      ( "host.trace_alloc_words_per_op",
        per_op t.W.alloc_words t -. per_op u.W.alloc_words u );
      ("host.major_gcs", float_of_int t.W.major_gcs);
      ( "host.peak_heap_mb",
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.0 );
      ("workload.slo_kops", slo);
    ]
  in
  let got = t.W.layers @ host in
  {
    wname = w.W.name;
    metrics =
      List.map
        (fun (n, _) -> (n, Option.value ~default:0.0 (List.assoc_opt n got)))
        per_layer;
    attempted = u.W.attempted + t.W.attempted;
    failed = u.W.failed + t.W.failed;
    errors = u.W.errors @ t.W.errors @ identity;
    notes = [];
  }

(* --- output --- *)

let print_result ~pass r =
  log "-- %s (%s) --" r.wname pass;
  List.iter
    (fun (n, v) ->
      let note =
        match List.assoc_opt n r.notes with Some s -> "  (" ^ s ^ ")" | None -> ""
      in
      log "%-36s %16.4f %-12s%s" n v (unit_of n) note)
    r.metrics;
  log "%-36s %16d" "attempted" r.attempted;
  log "%-36s %16d" "failed" r.failed;
  List.iter (fun e -> error "ERROR %s: %s" r.wname e) r.errors

let metric_json (n, v) =
  (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String (unit_of n)) ])

(* --- BENCHMARK.json --- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let names_of key doc =
  match Json.member key doc with
  | Some (Json.List l) ->
      List.filter_map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> Some (n, u)
          | Some (Json.String n), None -> Some (n, "")
          | _ -> None)
        l
  | _ -> []

(* The emitted metric and workload names must equal the declared ones. *)
let declaration_errors doc =
  let check what declared emitted =
    if declared = emitted then []
    else [ Printf.sprintf "BENCHMARK.json %s differ from the ones this program emits" what ]
  in
  check "end_to_end metrics" (names_of "end_to_end" doc)
    (List.map (fun (n, u, _) -> (n, u)) end_to_end)
  @ check "per_layer metrics" (names_of "per_layer" doc) per_layer
  @ check "workloads"
      (List.map fst (names_of "workloads" doc))
      (List.map (fun w -> w.W.name) W.all)

let bounds doc =
  match Json.member "end_to_end" doc with
  | Some (Json.List l) ->
      List.filter_map
        (fun m ->
          match (Json.member "name" m, Json.member "bound" m) with
          | Some (Json.String n), Some (Json.Float b) -> Some (n, b)
          | Some (Json.String n), Some (Json.Int b) -> Some (n, float_of_int b)
          | _ -> None)
        l
  | _ -> []

(* --- ledger --- *)

let ledger_json shape ~seed (e2e : result list) (layers : result list) =
  let side s r =
    Json.Obj (List.map metric_json (List.filter (fun (n, _) -> side_of n = s) r.metrics))
  in
  Json.Obj
    [
      ("seed", Json.Int seed);
      ("seconds", Json.Int shape.seconds);
      ("smoke", Json.Bool shape.smoke);
      ( "workloads",
        Json.Obj
          (List.map2
             (fun e l ->
               let both = { e with metrics = e.metrics @ l.metrics } in
               ( e.wname,
                 Json.Obj
                   [
                     ("attempted", Json.Int e.attempted);
                     ("failed", Json.Int e.failed);
                     ("virtual", side Virtual both);
                     ("host", side Host both);
                   ] ))
             e2e layers) );
    ]

let value_of = function
  | Some (Json.Obj f) -> (
      match List.assoc_opt "value" f with
      | Some (Json.Float v) -> Some v
      | Some (Json.Int v) -> Some (float_of_int v)
      | _ -> None)
  | _ -> None

(* Host times: one run against another moves them by tens of percent on
   a shared machine (the heap a set-up inherits from the workloads before
   it matters too), so only medians over many runs can hold them to a
   bound. *)
let timed = [ "setup_s" ]

(* Virtual fields must match exactly; host fields within the bounds
   BENCHMARK.json declares (not compared for a smoke ledger, whose
   windows are too short for host costs to mean anything). A host time
   past its bound is printed but not counted. Prints one line per
   differing metric and returns the number of failures. *)
let check_ledger ~bounds ~committed ~current =
  let fails = ref 0 in
  let smoke = Json.member "smoke" committed = Some (Json.Bool true) in
  let wl doc = match Json.member "workloads" doc with Some (Json.Obj l) -> l | _ -> [] in
  let fields doc s = match Json.member s doc with Some (Json.Obj l) -> l | _ -> [] in
  List.iter
    (fun (w, cur) ->
      match List.assoc_opt w (wl committed) with
      | None ->
          incr fails;
          error "check %s: not in the committed ledger" w
      | Some old ->
          List.iter
            (fun (n, v) ->
              let a = value_of (List.assoc_opt n (fields old "virtual")) in
              let b = value_of (Some v) in
              if a <> b then begin
                incr fails;
                error "check %s %s: virtual %s -> %s" w n
                  (Option.fold ~none:"absent" ~some:string_of_float a)
                  (Option.fold ~none:"absent" ~some:string_of_float b)
              end)
            (fields cur "virtual");
          List.iter
            (fun (n, v) ->
              let a = value_of (List.assoc_opt n (fields old "host")) in
              match (a, value_of (Some v)) with
              | Some a, Some b ->
                  let change = if a = 0.0 then 0.0 else (b -. a) /. a in
                  let bound = List.assoc_opt n bounds in
                  let over =
                    (not smoke)
                    && match bound with Some bd -> Float.abs change > bd | None -> false
                  in
                  let fail = over && not (List.mem n timed) in
                  if fail then incr fails;
                  (if fail then error else log)
                    "check %s %s: host %.4g -> %.4g (%+.1f%%%s)%s" w n a b (100.0 *. change)
                    (match bound with
                    | Some bd -> Printf.sprintf ", bound %.0f%%" (100.0 *. bd)
                    | None -> "")
                    (if fail then " OVER BOUND"
                     else if over then " over bound, not counted: one run of a host time"
                     else "")
              | _ ->
                  incr fails;
                  error "check %s %s: host field missing" w n)
            (fields cur "host"))
    (wl current);
  !fails

(* --- main --- *)

let int_member key doc =
  match Json.member key doc with
  | Some (Json.Int n) -> n
  | _ -> failwith ("ledger: committed ledger has no integer " ^ key)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 15 and trace = ref 0 in
  let smoke = ref false and out = ref "" and check = ref "" in
  let bench = ref "BENCHMARK.json" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME run one workload, one pass");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_int seconds, "S size a run for S host seconds (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer pass of --workload");
      ("--smoke", Arg.Set smoke, " every window at 1/50, one repetition");
      ("--out", Arg.Set_string out, "FILE write the ledger JSON");
      ("--check", Arg.Set_string check, "FILE rerun a ledger's seed and shape and compare");
      ("--benchmark", Arg.Set_string bench, "FILE declared metrics");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "ledger [options]";
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "ledger: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let committed = if !check = "" then None else Some (Json.of_string (read_file !check)) in
  let seed, shape =
    match committed with
    | Some doc ->
        ( int_member "seed" doc,
          {
            seconds = int_member "seconds" doc;
            smoke = Json.member "smoke" doc = Some (Json.Bool true);
          } )
    | None -> (!seed, { seconds = !seconds; smoke = !smoke })
  in
  let declared =
    if Sys.file_exists !bench then Some (Json.of_string (read_file !bench)) else None
  in
  let decl_errors = Option.fold ~none:[] ~some:declaration_errors declared in
  List.iter (fun e -> error "ERROR %s" e) decl_errors;
  if !workload <> "" then begin
    let w =
      match List.find_opt (fun w -> w.W.name = !workload) W.all with
      | Some w -> w
      | None ->
          prerr_endline ("ledger: unknown workload " ^ !workload);
          exit 2
    in
    let r = if !trace = 0 then run_e2e shape ~seed w else run_layers shape ~seed w in
    print_result ~pass:(if !trace = 0 then "untraced" else "traced") r;
    let correct = r.errors = [] && decl_errors = [] in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool correct);
              ("attempted", Json.Int r.attempted);
              ("failed", Json.Int r.failed);
              ("metrics", Json.Obj (List.map metric_json r.metrics));
            ]));
    exit (if correct then 0 else 1)
  end;
  let pass name run =
    List.map
      (fun w ->
        let r = run shape ~seed w in
        print_result ~pass:name r;
        r)
      W.all
  in
  let e2e = pass "untraced" run_e2e in
  let layers = pass "traced" run_layers in
  let doc = ledger_json shape ~seed e2e layers in
  if !out <> "" then
    Out_channel.with_open_bin !out (fun oc -> output_string oc (Json.pretty doc ^ "\n"));
  let errors = List.concat_map (fun r -> r.errors) (e2e @ layers) @ decl_errors in
  let mismatches =
    match committed with
    | None -> 0
    | Some c ->
        let n =
          check_ledger ~bounds:(Option.fold ~none:[] ~some:bounds declared) ~committed:c
            ~current:doc
        in
        log "ledger check: %d mismatches" n;
        n
  in
  log "%d output check failures" (List.length errors);
  exit (if errors = [] && mismatches = 0 then 0 else 1)
