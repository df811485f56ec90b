(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5). Run all experiments:

     dune exec bench/main.exe

   or a subset, with optional scale overrides:

     dune exec bench/main.exe -- fig7 table5 --clients 28 --seconds 60
     dune exec bench/main.exe -- table3 --objects 50000

   Results are printed as plain-text tables mirroring the paper's layout;
   EXPERIMENTS.md records the paper-vs-measured comparison. *)

open Dstore_experiments

let experiments : (string * string * (Common.opts -> unit)) list =
  [
    ("fig1", "tail latency overhead of checkpoints", Exp_fig1.run);
    ("fig5", "YCSB operation latency", Exp_fig5.run);
    ("fig6", "metadata overhead vs DAX filesystems", Exp_fig6.run);
    ("table3", "write request time breakdown", Exp_table3.run);
    ("fig7", "throughput + bandwidth over the window", Exp_fig7.run);
    ("fig8", "tail latency curves", Exp_fig8.run);
    ("fig9", "effect of optimizations (ablation)", Exp_fig9.run);
    ("table4", "recovery time", Exp_table4.run);
    ("fig10", "storage footprint", Exp_fig10.run);
    ("table5", "achievable SLO summary", Exp_table5.run);
    ("ablation", "DIPPER design-knob ablations (workers/log size/threshold)", Exp_ablation.run);
    ("micro", "real-time software-path microbenchmarks", Exp_micro.run);
    ("shard", "sharded cluster scaling vs shard count", Exp_shard.run);
    ("batch", "group-commit batch-size sweep", Exp_batch.run);
    ("tail", "per-op causal spans + tail-latency attribution", Exp_tail.run);
    ("repl", "replication durability modes / link latency sweep", Exp_repl.run);
    ("txn", "OCC transaction abort/throughput sweep vs contention", Exp_txn.run);
    ("cache", "DRAM object cache: size x zipfian sweep on YCSB-B/C", Exp_cache.run);
  ]

let usage () =
  print_endline "usage: main.exe [experiment ...] [options]";
  print_endline "experiments:";
  List.iter
    (fun (name, descr, _) -> Printf.printf "  %-8s %s\n" name descr)
    experiments;
  print_endline "options:";
  print_endline "  --clients N    workload threads (default 28)";
  print_endline "  --objects N    YCSB records (default 10000)";
  print_endline "  --seconds N    figure-7 window in seconds (default 15)";
  print_endline "  --window-ms N  latency-experiment window (default 2000)";
  print_endline "  --recovery-objects N  table-4 population (default 50000)";
  print_endline "  --shards N     focus shard count for the shard experiment (default 4)";
  print_endline
    "  --batch N      group-commit batch size for DStore runs (default 1)";
  print_endline
    "  --cache-mb N   DRAM object-cache budget for DStore runs (default 0 = off)";
  print_endline
    "  --apply-depth N backup apply-queue depth for the repl experiment (1 = serial)";
  print_endline "  --seed N"

(* A numeric flag's value, at least [min]; anything else exits 2. *)
let int_arg ?(min = 1) flag v =
  match int_of_string_opt v with
  | Some n when n >= min -> n
  | _ ->
      Printf.eprintf "%s expects a %s integer\n" flag
        (if min > 0 then "positive" else "non-negative");
      exit 2

let () =
  let opts = ref Common.default_opts in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--clients" :: v :: rest ->
        opts := { !opts with Common.clients = int_arg "--clients" v };
        parse rest
    | "--objects" :: v :: rest ->
        opts := { !opts with Common.objects = int_arg "--objects" v };
        parse rest
    | "--seconds" :: v :: rest ->
        opts := { !opts with Common.fig7_window_ns = int_arg "--seconds" v * 1_000_000_000 };
        parse rest
    | "--window-ms" :: v :: rest ->
        opts := { !opts with Common.window_ns = int_arg "--window-ms" v * 1_000_000 };
        parse rest
    | "--recovery-objects" :: v :: rest ->
        opts := { !opts with Common.recovery_objects = int_arg "--recovery-objects" v };
        parse rest
    | "--seed" :: v :: rest ->
        opts := { !opts with Common.seed = int_arg ~min:0 "--seed" v };
        parse rest
    | "--shards" :: v :: rest ->
        opts := { !opts with Common.shards = int_arg "--shards" v };
        parse rest
    | "--batch" :: v :: rest ->
        opts := { !opts with Common.batch = int_arg "--batch" v };
        parse rest
    | "--cache-mb" :: v :: rest ->
        opts := { !opts with Common.cache_mb = int_arg ~min:0 "--cache-mb" v };
        parse rest
    | "--apply-depth" :: v :: rest ->
        opts := { !opts with Common.apply_depth = Some (int_arg "--apply-depth" v) };
        parse rest
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | name :: rest when List.exists (fun (n, _, _) -> n = name) experiments ->
        selected := name :: !selected;
        parse rest
    | unknown :: _ ->
        Printf.eprintf "unknown argument %S\n" unknown;
        usage ();
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  let to_run =
    if !selected = [] then experiments
    else List.filter (fun (n, _, _) -> List.mem n !selected) experiments
  in
  Printf.printf
    "DStore/DIPPER reproduction benchmarks (HPDC'21)\n\
     virtual-time discrete-event simulation; device model calibrated from the paper\n\
     clients=%d objects=%d fig7-window=%ds\n"
    !opts.Common.clients !opts.Common.objects
    (!opts.Common.fig7_window_ns / 1_000_000_000);
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, _, f) ->
      let t = Unix.gettimeofday () in
      ignore (Common.take_json ());
      f !opts;
      (* Drain the runs recorded by this experiment into a JSON blob. *)
      (match Common.take_json () with
      | [] -> ()
      | runs ->
          let file = Printf.sprintf "BENCH_%s.json" name in
          let oc = open_out file in
          output_string oc
            (Dstore_obs.Json.pretty
               (Dstore_obs.Json.Obj
                  [
                    ("experiment", Dstore_obs.Json.String name);
                    ("runs", Dstore_obs.Json.List runs);
                  ]));
          output_char oc '\n';
          close_out oc;
          Printf.printf "  [results written to %s]\n%!" file);
      Printf.printf "  [%s completed in %.1fs real time]\n%!" name
        (Unix.gettimeofday () -. t))
    to_run;
  Printf.printf "\nAll experiments completed in %.1fs.\n"
    (Unix.gettimeofday () -. t0)
