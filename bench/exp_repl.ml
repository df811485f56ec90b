(* Replication: throughput and tail vs durability mode, link latency,
   and the shipping pipeline.

   The replicated group puts a network round-trip inside every
   acknowledged write: under Ack_one/Ack_all the op returns only after
   the backup has applied and persisted its span. This experiment sweeps
   the durability mode (none / async / ack-one / ack-all) and the
   simulated link latency, and asks the same question exp_tail asks of
   checkpoints: is the replicated tail *explained*? Every waited
   nanosecond is booked on the op's span as Repl_wait blame, so the
   >=p9999 attribution must name it.

   The last two rows are the pipeline ablation at a WAN-ish link (10x
   base latency): the same ack-all workload with the backup forced
   serial (apply queue depth 1 — the pre-pipeline protocol) and with the
   pipelined backup apply at the config defaults. The primary sends each
   put's payload ahead of its local op and ships every entry at commit
   in both; the pipelined backup writes up to [repl_apply_depth] - 1
   payloads as they arrive (the serial one, at depth 1, writes each at
   apply) and keeps receiving while it applies and acks one entry at a
   time, so the acked throughput at high latency must scale well past
   the serial protocol's round-trip bound.

   Acceptance gates (`@torture` rules grep for these):
   - REPL-ATTRIBUTION: on the ack-all run at base link latency, at
     least 90% of the >=p9999 latency mass must be attributed to named
     causes, with Repl_wait among them.
   - REPL-PIPELINE: at 10x base latency, pipelined ack-all throughput
     must be >= 2x the serial ablation, with peak lag bounded by the
     configured pipeline depth (clients + apply queue). *)

open Dstore_workload
open Common
module Json = Dstore_obs.Json
module Obs = Dstore_obs.Obs
module Metrics = Dstore_obs.Metrics
module Span = Dstore_obs.Span
module Attribution = Dstore_obs.Attribution
module Config = Dstore_core.Config
module Dstore = Dstore_core.Dstore
module Repl = Dstore_repl.Repl
module Group = Dstore_repl.Group
module Backup = Dstore_repl.Backup

let pct_target = 90.0

let pipeline_speedup_target = 2.0

type row = {
  label : string;
  kops : float;
  p99_us : float;
  p9999_us : float;
  final_lag : int;
  wait_us_per_op : float;
  repl_share_pct : float;  (* Repl_wait share of the >=p9999 mass *)
  attributed_pct : float option;
}

let obs_of r =
  match r.Runner.sys_obs with
  | Some o -> o
  | None -> failwith "exp_repl: system exposes no observability handle"

let run_one opts ?tag ?apply_depth ?clients ~mode ~latency_ns () =
  let clients = Option.value clients ~default:opts.clients in
  let apply_depth =
    match apply_depth with Some _ as d -> d | None -> opts.apply_depth
  in
  let label =
    match mode with
    | None -> "no replication"
    | Some m ->
        Printf.sprintf "%s, link %dus%s" (Repl.durability_name m)
          (latency_ns / 1000)
          (match tag with None -> "" | Some s -> ", " ^ s)
  in
  hdr (Printf.sprintf "repl: %s" label);
  (* Hot keyspace, as in the tail experiment: the tail must be made of
     stalls worth attributing, not pipeline noise. *)
  let records = min opts.objects 1_000 in
  let scale = { (scale_of opts) with Systems.objects = records } in
  let backups_ref = ref [] in
  let r =
    (* Zero think time, as in exp_batch: the clients must saturate the
       replication pipeline, or every row is think-bound and the
       serial-vs-pipelined ablation measures nothing. *)
    Runner.run ~seed:opts.seed ~think_ns:0 ~batch:opts.batch
      ~build:(fun p ->
        match mode with
        | None -> Systems.dstore ~label:"DStore (no repl)" p scale
        | Some m ->
            let sys, g =
              Systems.replicated ~mode:m ~link_latency_ns:latency_ns
                ?apply_depth ~label p scale
            in
            backups_ref := Group.backups g;
            sys)
      ~workload:(Ycsb.write_only ~records ())
      ~clients ~duration_ns:opts.window_ns ()
  in
  let obs = obs_of r in
  let m = obs.Obs.metrics in
  let engine_of k = Option.value ~default:0 (Metrics.value m k) in
  let ships = engine_of "repl.ships" in
  let ship_msgs = engine_of "repl.ship_msgs" in
  let ship_bytes = engine_of "repl.ship_bytes" in
  let waits = engine_of "repl.waits" in
  let wait_ns = engine_of "repl.wait_ns" in
  let stage_msgs = engine_of "repl.stage_msgs" in
  let final_lag = engine_of "repl.lag_max" in
  (* Backup-side pipeline stats: the apply loop's gauges live on each
     backup store's own registry (a backup is a separate machine). *)
  let backup_of k =
    List.fold_left
      (fun acc (_, b) ->
        let bm = (Dstore.obs (Backup.store b)).Obs.metrics in
        acc + Option.value ~default:0 (Metrics.value bm k))
      0 !backups_ref
  in
  let apply_entries = backup_of "repl.apply_entries" in
  let apply_drain_ns = backup_of "repl.apply_drain_ns" in
  let wait_us_per_op =
    if waits = 0 then 0.0 else float_of_int wait_ns /. float_of_int waits /. 1e3
  in
  note "%.1f Kops/s, write p99 %.1f us / p9999 %.1f us"
    (r.Runner.throughput /. 1e3)
    (us r.Runner.updates 99.0)
    (us r.Runner.updates 99.99);
  if mode <> None then begin
    note "shipped %d entries in %d msgs after %d stages, durability waits %d \
          (avg %.1f us), peak lag %d entries (drained before stop)"
      ships ship_msgs stage_msgs waits wait_us_per_op final_lag;
    if apply_entries > 0 then
      note "backup apply: %d entries, drain %.1f ms" apply_entries
        (float_of_int apply_drain_ns /. 1e6)
  end;
  let rep = Span.report obs.Obs.spans in
  let repl_share, attributed =
    match Attribution.find_class rep "p9999" with
    | None -> (0.0, None)
    | Some cls ->
        let share =
          if cls.Attribution.mass_ns = 0 then 0.0
          else
            100.0
            *. float_of_int
                 cls.Attribution.by_cause.(Span.cause_index Span.Repl_wait)
            /. float_of_int cls.Attribution.mass_ns
        in
        (share, Some (Attribution.attributed_pct cls))
  in
  (match attributed with
  | Some pct ->
      note ">=p9999 mass: %.1f%% attributed, %.1f%% of it repl_wait" pct
        repl_share
  | None -> note "no p9999 class (too few ops)");
  record_json
    (Json.Obj
       [
         ("label", Json.String label);
         ( "mode",
           Json.String
             (match mode with
             | None -> "none"
             | Some m -> Repl.durability_name m) );
         ("link_latency_ns", Json.Int latency_ns);
         ( "apply_depth",
           Json.Int
             (Option.value apply_depth
                ~default:Config.default.Config.repl_apply_depth) );
         ("ships", Json.Int ships);
         ("ship_msgs", Json.Int ship_msgs);
         ("ship_bytes", Json.Int ship_bytes);
         ("stage_msgs", Json.Int stage_msgs);
         ("apply_entries", Json.Int apply_entries);
         ("apply_drain_ns", Json.Int apply_drain_ns);
         ("waits", Json.Int waits);
         ("wait_ns", Json.Int wait_ns);
         ("lag_max", Json.Int final_lag);
         ("run", Runner.result_json r);
       ]);
  {
    label;
    kops = r.Runner.throughput /. 1e3;
    p99_us = us r.Runner.updates 99.0;
    p9999_us = us r.Runner.updates 99.99;
    final_lag;
    wait_us_per_op;
    repl_share_pct = repl_share;
    attributed_pct = attributed;
  }

let base_latency = 5_000

let run opts =
  let wan = 10 * base_latency in
  (* The WAN ablation measures protocol *capacity*: at low concurrency
     both protocols sit at the clients/RTT ceiling and the comparison
     says nothing, so these two rows always run with a saturating
     client pool even when the cheaper rows are scaled down. *)
  let ablation_clients = max opts.clients 28 in
  let rows =
    [
      run_one opts ~mode:None ~latency_ns:0 ();
      run_one opts ~mode:(Some Repl.Async) ~latency_ns:base_latency ();
      run_one opts ~mode:(Some Repl.Ack_one) ~latency_ns:base_latency ();
      run_one opts ~mode:(Some Repl.Ack_all) ~latency_ns:base_latency ();
      run_one opts ~tag:"serial" ~apply_depth:1
        ~clients:ablation_clients ~mode:(Some Repl.Ack_all) ~latency_ns:wan ();
      run_one opts ~tag:"pipelined" ~clients:ablation_clients
        ~mode:(Some Repl.Ack_all) ~latency_ns:wan ();
    ]
  in
  hdr "repl: summary (write-only, Zipfian hot keys)";
  note "%-28s %10s %9s %9s %7s %9s %10s" "mode" "Kops/s" "p99(us)"
    "p9999(us)" "lag" "wait(us)" "repl%p9999";
  List.iter
    (fun row ->
      note "%-28s %10.1f %9.1f %9.1f %7d %9.1f %10.1f" row.label row.kops
        row.p99_us row.p9999_us row.final_lag row.wait_us_per_op
        row.repl_share_pct)
    rows;
  print_newline ();
  (* Gate 1: attribution on the ack-all run at base latency (4th row). *)
  let gate = List.nth rows 3 in
  (match gate.attributed_pct with
  | Some pct when pct >= pct_target && gate.repl_share_pct > 0.0 ->
      Printf.printf
        "REPL-ATTRIBUTION OK: %.1f%% of >=p9999 mass attributed (repl_wait \
         %.1f%%)\n"
        pct gate.repl_share_pct
  | Some pct ->
      Printf.printf
        "REPL-ATTRIBUTION LOW: %.1f%% attributed, repl_wait %.1f%% (target \
         %.0f%% with repl_wait > 0)\n"
        pct gate.repl_share_pct pct_target
  | None -> print_endline "REPL-ATTRIBUTION LOW: no p9999 class");
  (* Gate 2: the shipping pipeline at WAN latency (last two rows).
     Pipelining must buy at least 2x acked throughput over the serial
     protocol, and the peak lag must stay bounded by the configured
     pipeline: the clients' outstanding ops plus the backup's apply
     queue. *)
  let serial = List.nth rows 4 and piped = List.nth rows 5 in
  let depth =
    Option.value opts.apply_depth ~default:Config.default.Config.repl_apply_depth
  in
  let lag_bound = ablation_clients + depth in
  let speedup =
    if serial.kops > 0.0 then piped.kops /. serial.kops else infinity
  in
  if speedup >= pipeline_speedup_target && piped.final_lag <= lag_bound then
    Printf.printf
      "REPL-PIPELINE OK: %.1fx over serial at link %dus (%.1f vs %.1f \
       Kops/s), peak lag %d <= bound %d\n"
      speedup (wan / 1000) piped.kops serial.kops piped.final_lag lag_bound
  else
    Printf.printf
      "REPL-PIPELINE LOW: %.1fx over serial (target %.1fx), peak lag %d \
       (bound %d)\n"
      speedup pipeline_speedup_target piped.final_lag lag_bound;
  note "ack-all puts the link round-trip inside every acked write; the";
  note "span partition books that wait as repl_wait, so the tail stays";
  note "explained end to end. The pipelined backup overlaps receive with";
  note "apply and writes payloads ahead of their entries - serial vs";
  note "pipelined is the last two rows."
