(* Tests for the observability layer: metrics registry semantics,
   per-thread shard merging, trace ring wraparound, the JSON encoder, and
   an end-to-end sim integration test asserting that one oput emits the
   nine write-path events in order and a checkpoint emits its phases. *)

open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_core
open Dstore_util
module Obs = Dstore_obs.Obs
module Metrics = Dstore_obs.Metrics
module Trace = Dstore_obs.Trace
module Json = Dstore_obs.Json
module Span = Dstore_obs.Span

let check = Alcotest.check

(* --- registry ------------------------------------------------------------- *)

let test_counters_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Metrics.incr c;
  Metrics.add c 5;
  check Alcotest.int "counter accumulates" 6 (Metrics.counter_value c);
  (* Same name returns the same instrument. *)
  Metrics.incr (Metrics.counter m "c");
  check Alcotest.int "shared by name" 7 (Metrics.counter_value c);
  let g = Metrics.gauge m "g" in
  Metrics.set_gauge g 42;
  check Alcotest.int "gauge" 42 (Metrics.gauge_value g);
  Metrics.gauge_fn m "fn" (fun () -> 99);
  check (Alcotest.option Alcotest.int) "scalar lookup" (Some 7)
    (Metrics.value m "c");
  check (Alcotest.option Alcotest.int) "callback gauge" (Some 99)
    (Metrics.value m "fn");
  (* Kind mismatch rejected. *)
  (match Metrics.gauge m "c" with
  | _ -> Alcotest.fail "kind mismatch accepted"
  | exception Invalid_argument _ -> ());
  Metrics.reset m;
  check Alcotest.int "reset zeroes counters" 0 (Metrics.counter_value c);
  check (Alcotest.option Alcotest.int) "callback gauges survive reset"
    (Some 99) (Metrics.value m "fn")

let test_disabled_registry () =
  let m = Metrics.create ~enabled:false () in
  let c = Metrics.counter m "c" in
  let h = Metrics.histogram m "h" in
  Metrics.incr c;
  Metrics.observe h 100;
  check Alcotest.int "disabled counter" 0 (Metrics.counter_value c);
  check Alcotest.int "disabled histogram" 0
    (Histogram.count (Metrics.histo_data h));
  Metrics.set_enabled m true;
  Metrics.incr c;
  check Alcotest.int "re-enabled counter" 1 (Metrics.counter_value c)

let test_shard_merge () =
  (* Per-thread sharding: record privately, merge into an aggregate;
     percentiles over the union must be exact. *)
  let agg = Metrics.create () in
  let reference = Histogram.create () in
  let shards =
    List.init 4 (fun i ->
        let s = Metrics.create () in
        let c = Metrics.counter s "ops" in
        let h = Metrics.histogram s "lat" in
        for v = 1 to 100 do
          let x = (i * 1000) + (v * 7) in
          Metrics.incr c;
          Metrics.observe h x;
          Histogram.record reference x
        done;
        s)
  in
  List.iter (fun s -> Metrics.merge_into ~dst:agg s) shards;
  check (Alcotest.option Alcotest.int) "counters add" (Some 400)
    (Metrics.value agg "ops");
  let merged = Metrics.histo_data (Metrics.histogram agg "lat") in
  check Alcotest.int "histogram count" (Histogram.count reference)
    (Histogram.count merged);
  List.iter
    (fun p ->
      check Alcotest.int
        (Printf.sprintf "p%.2f matches union" p)
        (Histogram.percentile reference p)
        (Histogram.percentile merged p))
    [ 50.0; 99.0; 99.9 ]

let test_histogram_buckets () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 1; 5; 1000; 100000 ];
  let buckets = Histogram.buckets h in
  check Alcotest.int "bucket counts sum to count" (Histogram.count h)
    (List.fold_left (fun a (_, c) -> a + c) 0 buckets);
  check Alcotest.bool "bounds ascending" true
    (let rec mono = function
       | (a, _) :: ((b, _) :: _ as rest) -> a < b && mono rest
       | _ -> true
     in
     mono buckets)

(* --- trace ring ------------------------------------------------------------ *)

let test_trace_wraparound () =
  let now = ref 0 in
  let tr = Trace.create ~capacity:8 ~now:(fun () -> !now) () in
  for i = 0 to 19 do
    now := i * 10;
    Trace.emit tr (Trace.Note (string_of_int i))
  done;
  check Alcotest.int "emitted keeps counting" 20 (Trace.emitted tr);
  check Alcotest.int "length bounded" 8 (Trace.length tr);
  let entries = Trace.to_list tr in
  check (Alcotest.list Alcotest.int) "newest 8, oldest first"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun e -> e.Trace.seq) entries);
  List.iter
    (fun e ->
      match e.Trace.ev with
      | Trace.Note s ->
          check Alcotest.int "timestamp matches emission"
            (int_of_string s * 10) e.Trace.t_ns
      | _ -> Alcotest.fail "unexpected event")
    entries;
  check (Alcotest.list Alcotest.int) "last n" [ 18; 19 ]
    (List.map (fun e -> e.Trace.seq) (Trace.last tr 2));
  Trace.clear tr;
  check Alcotest.int "clear empties" 0 (Trace.length tr);
  check Alcotest.int "clear resets emitted" 0 (Trace.emitted tr)

let test_trace_disabled () =
  let tr = Trace.create ~capacity:8 ~now:(fun () -> 0) () in
  Trace.set_enabled tr false;
  Trace.emit tr Trace.Log_full_stall;
  check Alcotest.int "disabled emit is a no-op" 0 (Trace.emitted tr)

(* --- JSON ------------------------------------------------------------------- *)

let test_json_escaping () =
  check Alcotest.string "control chars and quotes"
    "\"a\\\"b\\\\c\\n\\t\\u0001\""
    (Json.to_string (Json.String "a\"b\\c\n\t\001"));
  check Alcotest.string "nan is null" "null" (Json.to_string (Json.Float nan))

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("s", Json.String "he said \"hi\"\n");
        ("i", Json.Int (-42));
        ("f", Json.Float 2.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Int 2; Json.Obj [] ]);
      ]
  in
  check Alcotest.bool "compact round-trips" true
    (Json.of_string (Json.to_string j) = j);
  check Alcotest.bool "pretty round-trips" true
    (Json.of_string (Json.pretty j) = j)

(* --- sim integration -------------------------------------------------------- *)

let small_cfg =
  {
    Config.default with
    log_slots = 512;
    space_bytes = 4 * 1024 * 1024;
    meta_entries = 1024;
    ssd_blocks = 4096;
    checkpoint_workers = 2;
  }

let with_store ?(cfg = small_cfg) f =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let pm =
    Pmem.create p
      { Pmem.default_config with size = Dipper.layout_bytes cfg; crash_model = true }
  in
  let ssd = Ssd.create p { Ssd.default_config with pages = cfg.Config.ssd_blocks } in
  let result = ref None in
  Sim.spawn sim "test" (fun () ->
      let st = Dstore.create p pm ssd cfg in
      let ctx = Dstore.ds_init st in
      result := Some (f (sim, p, pm, ssd) st ctx);
      Dstore.ds_finalize ctx;
      Dstore.stop st);
  Sim.run sim;
  Option.get !result

(* Every segment of a finished span, in [Span.seg_index] order. *)
let all_segs =
  Span.
    [
      S_index; S_ticket; S_lock; S_append; S_fence; S_data; S_structs; S_stage;
      S_commit; S_ckpt_archive; S_ckpt_clone; S_ckpt_replay; S_ckpt_persist;
      S_ckpt_publish; S_rec_metadata; S_rec_replay; S_cache_fill; S_other;
    ]

let segments sp = List.map (Span.segment sp) all_segs

let last_span obs = List.hd (Span.last obs.Obs.spans 1)

(* A put's nine steps are its span's segments: the staged payload
   (data), the lock hold (lock), the record flush (append), the metadata
   entry (structs), the B-tree insert (index) and the single-record
   commit (fence) take time; the claim and, with one client, the reader
   drain take none. [oput] is the group of one: a one-op [obatch] books
   the same vector. *)
let test_put_span_segments () =
  with_store (fun _ st ctx ->
      let obs = Dstore.obs st in
      let v = Bytes.make 4096 'v' in
      Dstore.oput ctx "a" v;
      let put = last_span obs in
      check Alcotest.bool "put span" true (Span.span_kind put = Span.Put);
      let nonzero =
        List.filter (fun sg -> Span.segment put sg > 0) all_segs
      in
      check Alcotest.bool "non-zero segments" true
        (nonzero = Span.[ S_index; S_lock; S_append; S_fence; S_data; S_structs ]);
      check Alcotest.int "segments partition the put" (Span.duration put)
        (Span.segments_total put + Span.blame_total put);
      ignore (Dstore.obatch ctx [ Dstore.Bput ("b", v) ]);
      let batch = last_span obs in
      check Alcotest.bool "batch span" true (Span.span_kind batch = Span.Batch);
      check (Alcotest.list Alcotest.int) "oput = obatch of one" (segments put)
        (segments batch);
      check
        (Alcotest.option Alcotest.string)
        "value readable" (Some (Bytes.to_string v))
        (Option.map Bytes.to_string (Dstore.oget ctx "a")))

let test_checkpoint_events () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "a" (Bytes.of_string "1");
      Dstore.checkpoint_now st;
      let obs = Dstore.obs st in
      let phases =
        List.filter_map
          (fun e ->
            match e.Trace.ev with Trace.Ckpt p -> Some p | _ -> None)
          (Trace.to_list obs.Obs.trace)
      in
      check Alcotest.bool "all phases in order" true
        (phases
        = [
            Trace.C_trigger;
            Trace.C_archive;
            Trace.C_clone;
            Trace.C_replay;
            Trace.C_persist;
            Trace.C_publish;
          ]);
      check Alcotest.bool "log swap traced" true
        (List.exists
           (fun e ->
             match e.Trace.ev with Trace.Log_swap _ -> true | _ -> false)
           (Trace.to_list obs.Obs.trace)))

let test_metrics_integration () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "k1" (Bytes.of_string "v1");
      Dstore.oput ctx "k2" (Bytes.of_string "v2");
      ignore (Dstore.oget ctx "k1");
      ignore (Dstore.odelete ctx "k2");
      Dstore.checkpoint_now st;
      let m = (Dstore.obs st).Obs.metrics in
      let v name = Option.value (Metrics.value m name) ~default:0 in
      check Alcotest.bool "pmem flushes counted" true (v "pmem.flush_calls" > 0);
      check Alcotest.bool "pmem fences counted" true (v "pmem.fence_calls" > 0);
      check Alcotest.bool "ssd writes counted" true (v "ssd.bytes_written" > 0);
      (* Registry views agree with the engine's own stats record. *)
      let est = Dipper.stats (Dstore.engine st) in
      check Alcotest.int "dipper view = stats record"
        est.Dipper.records_appended
        (v "dipper.records_appended");
      check Alcotest.int "oplog counter = stats" est.Dipper.records_appended
        (v "oplog.records_written");
      (* Per-op latency histograms. *)
      let count name =
        Histogram.count (Metrics.histo_data (Metrics.histogram m name))
      in
      check Alcotest.int "op.put count" 2 (count "op.put");
      check Alcotest.int "op.get count" 1 (count "op.get");
      check Alcotest.int "op.delete count" 1 (count "op.delete");
      check Alcotest.bool "put latency recorded" true
        (Histogram.percentile
           (Metrics.histo_data (Metrics.histogram m "op.put"))
           50.0
        > 0);
      (* The whole handle exports as valid JSON. *)
      match Json.of_string (Json.to_string (Obs.to_json (Dstore.obs st))) with
      | Json.Obj fields ->
          check Alcotest.bool "metrics key present" true
            (List.mem_assoc "metrics" fields);
          check Alcotest.bool "trace key present" true
            (List.mem_assoc "trace" fields)
      | _ -> Alcotest.fail "export is not a JSON object")

let test_obs_disabled_store () =
  with_store
    ~cfg:{ small_cfg with Config.obs_enabled = false }
    (fun _ st ctx ->
      Dstore.oput ctx "k" (Bytes.of_string "v");
      Dstore.checkpoint_now st;
      let obs = Dstore.obs st in
      check Alcotest.int "no trace events" 0 (Trace.emitted obs.Obs.trace);
      let m = obs.Obs.metrics in
      check Alcotest.int "no latency samples" 0
        (Histogram.count (Metrics.histo_data (Metrics.histogram m "op.put")));
      (* Protocol-meaningful stats are NOT silenced by the opt-out; the
         callback-gauge views still read the live record. *)
      let est = Dipper.stats (Dstore.engine st) in
      check Alcotest.int "stats still count" 1 est.Dipper.records_appended;
      check (Alcotest.option Alcotest.int) "views still live" (Some 1)
        (Metrics.value m "dipper.records_appended"))

let test_trace_survives_recovery () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let cfg = small_cfg in
  let pm =
    Pmem.create p
      { Pmem.default_config with size = Dipper.layout_bytes cfg; crash_model = true }
  in
  let ssd = Ssd.create p { Ssd.default_config with pages = cfg.Config.ssd_blocks } in
  let obs =
    Obs.create ~trace_capacity:256 ~now:(fun () -> p.Platform.now ()) ()
  in
  let done_ = ref false in
  Sim.spawn sim "phase1" (fun () ->
      let st = Dstore.create ~obs p pm ssd cfg in
      let ctx = Dstore.ds_init st in
      Dstore.oput ctx "k" (Bytes.of_string "v");
      done_ := true);
  Sim.run sim;
  check Alcotest.bool "phase1 ran" true !done_;
  Pmem.crash pm Pmem.Keep_all;
  Sim.clear_pending sim;
  let recovered = ref None in
  Sim.spawn sim "phase2" (fun () ->
      let st = Dstore.recover ~obs p pm ssd cfg in
      let ctx = Dstore.ds_init st in
      recovered := Option.map Bytes.to_string (Dstore.oget ctx "k"));
  Sim.run sim;
  check (Alcotest.option Alcotest.string) "value recovered" (Some "v")
    !recovered;
  let evs = List.map (fun e -> e.Trace.ev) (Trace.to_list obs.Obs.trace) in
  check Alcotest.bool "crash injected traced" true
    (List.mem Trace.Crash_injected evs);
  let phases =
    List.filter_map
      (function Trace.Recovery r -> Some r | _ -> None)
      evs
  in
  check Alcotest.bool "recovery phases in order" true
    (phases = [ Trace.R_start; Trace.R_rebuild; Trace.R_replay; Trace.R_done ]);
  (* The put from before the crash is still in the span ring, ahead of
     the recovery span. *)
  let kinds =
    List.map
      (fun sp -> (Span.span_kind sp, Span.span_key sp))
      (Span.spans obs.Obs.spans)
  in
  check Alcotest.bool "pre-crash put span retained" true
    (match kinds with
    | (Span.Put, "k") :: rest -> List.mem_assoc Span.Recovery rest
    | _ -> false)

(* --- spans ------------------------------------------------------------------ *)

(* A mixed op sequence exercising every spanned path: puts, gets,
   deletes, group-commit batches, and the filesystem-style object API
   (owrite/oread), with optional forced checkpoints sprinkled in. *)
let drive_ops ?(checkpoints = false) st ctx seed n =
  let r = Rng.create seed in
  for i = 0 to n - 1 do
    let key = Printf.sprintf "k%d" (Rng.int r 12) in
    (match Rng.int r 6 with
    | 0 -> Dstore.oput ctx key (Bytes.make (1 + Rng.int r 200) 'x')
    | 1 -> ignore (Dstore.oget ctx key)
    | 2 -> ignore (Dstore.odelete ctx key)
    | 3 ->
        Dstore.oput_batch ctx
          [ (key, Bytes.make 32 'b'); (key ^ "b", Bytes.make 32 'c') ]
    | 4 ->
        let o = Dstore.oopen ctx ("obj" ^ key) Dstore.Rdwr in
        ignore
          (Dstore.owrite o (Bytes.make 300 'w') ~size:300
             ~off:(Rng.int r 4096));
        Dstore.oclose o
    | _ ->
        let o = Dstore.oopen ctx ("obj" ^ key) Dstore.Rdwr in
        let buf = Bytes.create 256 in
        ignore (Dstore.oread o buf ~size:256 ~off:0);
        Dstore.oclose o);
    if checkpoints && i mod 25 = 24 then Dstore.checkpoint_now st
  done

(* Spans are pure observers: the exact same op sequence must land on the
   exact same virtual timeline whether observability is on or off, and
   with it off the recorder must hand out the shared dead span (one
   physical value, no allocation) and record nothing. *)
let test_span_zero_cost_when_disabled () =
  let run enabled =
    with_store
      ~cfg:{ small_cfg with Config.obs_enabled = enabled }
      (fun (_, p, _, _) st ctx ->
        drive_ops ~checkpoints:true st ctx 7 120;
        (p.Platform.now (), Dipper.stats (Dstore.engine st)))
  in
  let t_on, s_on = run true in
  let t_off, s_off = run false in
  check Alcotest.int "identical virtual end time" t_on t_off;
  check Alcotest.int "identical appends" s_on.Dipper.records_appended
    s_off.Dipper.records_appended;
  check Alcotest.int "identical checkpoints" s_on.Dipper.checkpoints
    s_off.Dipper.checkpoints;
  check Alcotest.int "identical conflict waits" s_on.Dipper.conflict_waits
    s_off.Dipper.conflict_waits;
  with_store
    ~cfg:{ small_cfg with Config.obs_enabled = false }
    (fun _ st ctx ->
      Dstore.oput ctx "k" (Bytes.of_string "v");
      let rc = (Dstore.obs st).Obs.spans in
      check Alcotest.int "nothing recorded" 0 (Span.finished rc);
      let sp = Span.start rc Span.Put "k" in
      check Alcotest.bool "start returns the shared none" true
        (sp == Span.none);
      check Alcotest.bool "none is dead" false (Span.live sp);
      (* Mutating the dead span is a no-op, not a crash. *)
      Span.seg sp Span.S_index;
      Span.stall sp Span.Log_full 100;
      Span.finish sp;
      check Alcotest.int "still nothing recorded" 0 (Span.finished rc))

(* The tentpole invariant, property-checked over random op sequences:
   every finished span partitions its latency exactly — no time invented,
   none lost. *)
let prop_span_partition =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"span partition: segments + blame = duration"
       ~count:15
       QCheck.(int_range 0 100_000)
       (fun seed ->
         with_store (fun _ st ctx ->
             drive_ops ~checkpoints:true st ctx seed 150;
             let rc = (Dstore.obs st).Obs.spans in
             Span.finished rc > 0
             && List.for_all
                  (fun s ->
                    Span.duration s >= 0
                    && Span.segments_total s + Span.blame_total s
                       = Span.duration s)
                  (Span.spans rc))))

let test_span_ring_wraparound () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let cfg = small_cfg in
  let pm =
    Pmem.create p
      { Pmem.default_config with size = Dipper.layout_bytes cfg; crash_model = true }
  in
  let ssd = Ssd.create p { Ssd.default_config with pages = cfg.Config.ssd_blocks } in
  let obs = Obs.create ~span_capacity:8 ~now:(fun () -> p.Platform.now ()) () in
  Sim.spawn sim "w" (fun () ->
      let st = Dstore.create ~obs p pm ssd cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 19 do
        Dstore.oput ctx (Printf.sprintf "k%d" i) (Bytes.of_string "v")
      done;
      Dstore.stop st);
  Sim.run sim;
  let rc = obs.Obs.spans in
  check Alcotest.int "finished keeps counting" 20 (Span.finished rc);
  let buffered = Span.spans rc in
  check Alcotest.int "ring bounded by capacity" (Span.capacity rc)
    (List.length buffered);
  check (Alcotest.list Alcotest.int) "newest 8, oldest first"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map Span.span_seq buffered);
  check (Alcotest.list Alcotest.string) "keys track the survivors"
    (List.init 8 (fun i -> Printf.sprintf "k%d" (12 + i)))
    (List.map Span.span_key buffered);
  check Alcotest.int "last n" 2 (List.length (Span.last rc 2));
  (* The histogram keeps every op even after the ring forgets it. *)
  check Alcotest.int "all ops in the histogram" 20 (Span.ops rc)

(* Blame events are booked at the same program points as the engine's own
   stall counters, so on a read-free workload the counts must agree
   exactly — the attribution report is cross-checkable against dipper.*
   gauges, not a parallel truth. *)
let test_span_blame_matches_counters () =
  let r =
    Dstore_workload.Runner.run ~seed:11 ~think_ns:0
      ~build:(fun p ->
        Dstore_workload.Systems.dstore p
          { Dstore_workload.Systems.default_scale with
            Dstore_workload.Systems.objects = 8 })
      ~workload:(Dstore_workload.Ycsb.write_only ~records:8 ())
      ~clients:8 ~duration_ns:3_000_000 ()
  in
  let obs = Option.get r.Dstore_workload.Runner.sys_obs in
  let v name = Option.value ~default:0 (Metrics.value obs.Obs.metrics name) in
  let ev c = Span.cause_events obs.Obs.spans (Span.cause_index c) in
  check Alcotest.bool "hot keys actually conflicted" true
    (ev Span.Conflict_retry > 0);
  check Alcotest.int "conflict events = dipper.conflict_waits"
    (v "dipper.conflict_waits")
    (ev Span.Conflict_retry);
  check Alcotest.int "log-full events = dipper.log_full_stalls"
    (v "dipper.log_full_stalls")
    (ev Span.Log_full)

(* Runner.result_json must be byte-stable: two runs with the same seed
   serialize identically (deterministic sim AND deterministic JSON key
   order), and the blob carries the tail attribution section. *)
let test_result_json_deterministic () =
  let run () =
    Dstore_workload.Runner.run ~seed:42
      ~build:(fun p ->
        Dstore_workload.Systems.dstore p
          { Dstore_workload.Systems.default_scale with
            Dstore_workload.Systems.objects = 64 })
      ~workload:(Dstore_workload.Ycsb.write_only ~records:64 ())
      ~clients:4 ~duration_ns:2_000_000 ()
  in
  let j1 = Json.to_string (Dstore_workload.Runner.result_json (run ())) in
  let j2 = Json.to_string (Dstore_workload.Runner.result_json (run ())) in
  check Alcotest.bool "byte-identical across identical runs" true (j1 = j2);
  match Json.of_string j1 with
  | Json.Obj fields -> (
      check Alcotest.bool "tail key present" true (List.mem_assoc "tail" fields);
      match List.assoc "tail" fields with
      | Json.Obj tail ->
          check Alcotest.bool "attribution present" true
            (List.mem_assoc "attribution" tail);
          check Alcotest.bool "timeseries present" true
            (List.mem_assoc "timeseries" tail)
      | _ -> Alcotest.fail "tail is not an object")
  | _ -> Alcotest.fail "result_json is not an object"

let suite =
  [
    Alcotest.test_case "registry counters and gauges" `Quick
      test_counters_gauges;
    Alcotest.test_case "disabled registry" `Quick test_disabled_registry;
    Alcotest.test_case "per-thread shard merge" `Quick test_shard_merge;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "trace ring wraparound" `Quick test_trace_wraparound;
    Alcotest.test_case "trace disabled" `Quick test_trace_disabled;
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "write path: put span segments" `Quick
      test_put_span_segments;
    Alcotest.test_case "checkpoint emits phases" `Quick test_checkpoint_events;
    Alcotest.test_case "metrics across the stack" `Quick
      test_metrics_integration;
    Alcotest.test_case "obs opt-out" `Quick test_obs_disabled_store;
    Alcotest.test_case "trace survives crash recovery" `Quick
      test_trace_survives_recovery;
    Alcotest.test_case "spans: zero cost when disabled" `Quick
      test_span_zero_cost_when_disabled;
    prop_span_partition;
    Alcotest.test_case "spans: ring wraparound" `Quick
      test_span_ring_wraparound;
    Alcotest.test_case "spans: blame events match dipper counters" `Quick
      test_span_blame_matches_counters;
    Alcotest.test_case "result_json deterministic, carries tail" `Quick
      test_result_json_deterministic;
  ]
