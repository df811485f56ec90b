(* Tail forensics: per-op causal spans + stall attribution.

   The fig1 write workload with checkpoints enabled is the scenario the
   paper opens with — what makes p9999 spike? This experiment answers
   with data instead of inference: every operation carries a span that
   partitions its latency exactly into pipeline segments plus blame
   intervals (checkpoint interference, log-full stalls, conflict
   retries, batch waits, SSD queueing), and the attribution report
   decomposes the >=p99 / >=p9999 latency mass by cause.

   Acceptance gate (a `@torture` rule greps for it): at least 90% of the
   >=p9999 mass must be attributed to a named cause — the tail must be
   explained, not merely measured. The report is cross-checked against
   the engine's own dipper.* stall counters: each blame event is booked
   at the same site as the matching counter increment, so the event
   counts must agree exactly on this read-free workload. *)

open Dstore_core
open Dstore_workload
open Common
module Json = Dstore_obs.Json
module Obs = Dstore_obs.Obs
module Metrics = Dstore_obs.Metrics
module Span = Dstore_obs.Span
module Attribution = Dstore_obs.Attribution

let pct_target = 90.0

(* The recorder and registry of the run's store; the tail experiment is
   meaningless without them, so a system built with obs disabled fails
   loudly rather than printing an empty report. *)
let obs_of r =
  match r.Runner.sys_obs with
  | Some o -> o
  | None -> failwith "exp_tail: system exposes no observability handle"

let consistency_line label ~spans ~engine =
  note "%-22s span events %-8d dipper counter %-8d %s" label spans engine
    (if spans = engine then "consistent"
     else if spans > engine then "consistent (+read-side retries)"
     else "MISMATCH")

(* Checkpoint-pressured DStore: a log sized so the write workload
   cycles it several times per window. This is the fig1 stress case —
   checkpoints genuinely interleave with the foreground, so the tail is
   made of log-full stalls, checkpoint bandwidth interference and
   conflict retries rather than bare pipeline noise. *)
let pressured_tweak cfg =
  { cfg with Config.log_slots = max 512 (cfg.Config.log_slots / 16) }

let run_one opts ~label ~batch ?tweak ?records ?clients () =
  hdr (Printf.sprintf "tail: %s" label);
  let records = Option.value records ~default:opts.objects in
  let clients = Option.value clients ~default:opts.clients in
  let r =
    Runner.run ~seed:opts.seed ~batch
      ~build:(fun p ->
        Systems.dstore ?tweak ~label:(sys_name DStore) p
          { (scale_of opts) with Systems.objects = records })
      ~workload:(Ycsb.write_only ~records ())
      ~clients ~duration_ns:opts.window_ns ()
  in
  let obs = obs_of r in
  let recorder = obs.Obs.spans in
  note "%.1f Kops/s, write p99 %.1f us / p9999 %.1f us, %d spans recorded"
    (r.Runner.throughput /. 1e3)
    (us r.Runner.updates 99.0)
    (us r.Runner.updates 99.99)
    (Span.finished recorder);
  print_newline ();
  Span.print_report recorder;
  print_newline ();
  note "slowest recorded spans:";
  Span.print_spans ~n:8 recorder;
  (* Blame events vs the engine's own stall counters. *)
  let m = obs.Obs.metrics in
  let engine_of k = Option.value ~default:0 (Metrics.value m k) in
  print_newline ();
  consistency_line "log_full"
    ~spans:(Span.cause_events recorder (Span.cause_index Span.Log_full))
    ~engine:(engine_of "dipper.log_full_stalls");
  consistency_line "conflict_retry"
    ~spans:(Span.cause_events recorder (Span.cause_index Span.Conflict_retry))
    ~engine:(engine_of "dipper.conflict_waits");
  record_json
    (Json.Obj
       [
         ("label", Json.String label);
         ("batch", Json.Int batch);
         ("run", Runner.result_json r);
       ]);
  (* The acceptance gate: the >=p9999 class of the attribution report. *)
  let rep = Span.report recorder in
  match Attribution.find_class rep "p9999" with
  | None ->
      note "no p9999 class (too few ops for a p9999 threshold)";
      None
  | Some cls -> Some (Attribution.attributed_pct cls)

let run opts =
  (* The gate run dissects a tail, so it must have one worth dissecting:
     hot keys (<=1000 records) and an oversubscribed client count push
     p9999 well past the intrinsic pipeline time, where the latency mass
     is stalls — exactly the fig1 stress regime. User --objects/--clients
     still apply when they are already hotter than this floor. *)
  let records = min opts.objects 1_000 in
  let clients = max opts.clients 48 in
  let pct =
    run_one opts ~batch:1 ~tweak:pressured_tweak ~records ~clients
      ~label:
        (Printf.sprintf
           "write-only, Zipfian over %d hot keys, checkpoints on, %d clients \
            (fig1 stress regime)"
           records clients)
      ()
  in
  print_newline ();
  (* A batched run makes group-commit waits visible as Batch_wait blame
     (each op is co-batched with batch-1 others); not part of the gate. *)
  ignore
    (run_one opts ~batch:8 ~label:"same workload, group commit batch=8" ());
  print_newline ();
  (match pct with
  | Some pct when pct >= pct_target ->
      Printf.printf "TAIL-ATTRIBUTION OK: %.1f%% of >=p9999 mass attributed\n"
        pct
  | Some pct ->
      Printf.printf
        "TAIL-ATTRIBUTION LOW: only %.1f%% of >=p9999 mass attributed (target \
         %.0f%%)\n"
        pct pct_target
  | None -> print_endline "TAIL-ATTRIBUTION LOW: no p9999 class");
  note "every span satisfies sum(segments) + sum(blames) = latency exactly;";
  note "unattributed tail mass is pipeline work (segments), not lost time."
