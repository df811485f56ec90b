(* Group-commit batch-size sweep.

   The DIPPER write path spends two persistence rounds per operation: the
   record append (payload flush + fence, LSN flush + fence) and the commit
   word persist (flush + fence). Group commit amortizes all of them: a
   batch of N updates stages N records in consecutive log slots, flushes
   the whole span twice (2 fences) and persists every commit word with one
   more flush + fence — 3 fences per batch instead of 2N. Like every
   put, the batch stages its SSD payload writes (concurrently, once per
   call) BEFORE the locked append, so the records' in-flight window —
   what a conflicting writer of the same key must wait out — holds
   fences and structure updates only, no device time.

   The primary sweep is the paper's write-only workload (scrambled
   Zipfian, small values): with payloads staged, even the unbatched
   baseline runs at the SSD channel ceiling, so batching trades group
   acknowledgement latency for fewer fences. A secondary uniform-keys
   table isolates the fence arithmetic:
   with no hot keys the baseline already saturates the SSD channels, so
   throughput is flat and the win shows up purely in fences/op, while
   per-op latency grows with the batch (group-commit acknowledgement
   charges every member the whole call). *)

open Dstore_util
open Dstore_workload
open Common
module Json = Dstore_obs.Json

let sweep_table opts ~label ~json_tag ~sizes wl =
  hdr label;
  let t =
    Tablefmt.create
      [
        "batch"; "Kops/s"; "p50 (us)"; "p99 (us)"; "p999 (us)"; "p9999 (us)";
        "fences/op"; "flushes/op"; "flushed B/op";
      ]
  in
  List.iter
    (fun b ->
      let r =
        Runner.run ~seed:opts.seed ~think_ns:0 ~batch:b
          ~build:(fun p -> Systems.dstore p (scale_of opts))
          ~workload:wl ~clients:opts.clients ~duration_ns:opts.window_ns ()
      in
      let pe = r.Runner.persistence in
      Tablefmt.row t
        [
          string_of_int b;
          Tablefmt.f1 (r.Runner.throughput /. 1e3);
          Tablefmt.f1 (us r.Runner.updates 50.0);
          Tablefmt.f1 (us r.Runner.updates 99.0);
          Tablefmt.f1 (us r.Runner.updates 99.9);
          Tablefmt.f1 (us r.Runner.updates 99.99);
          Tablefmt.f2 pe.Runner.fences_per_op;
          Tablefmt.f2 pe.Runner.flushes_per_op;
          Tablefmt.f1 pe.Runner.flushed_bytes_per_op;
        ];
      record_json
        (Json.Obj
           [
             ("distribution", Json.String json_tag);
             ("batch", Json.Int b);
             ("run", Runner.result_json r);
           ]))
    sizes;
  Tablefmt.print t

let run opts =
  sweep_table opts
    ~label:"batch: group-commit sweep (write-only, Zipfian, small values)"
    ~json_tag:"zipfian"
    ~sizes:[ 1; 2; 4; 8; 16 ]
    (Ycsb.write_only ~records:opts.objects ~value_bytes:64 ());
  note "3 fences per batch (2 append + 1 commit) vs 2 per op unbatched;";
  note "every put stages its SSD write before the append, so hot-key";
  note "conflict windows hold no device time with or without batching.";
  print_newline ();
  sweep_table opts
    ~label:"batch: same sweep, uniform keys (fence arithmetic isolated)"
    ~json_tag:"uniform"
    ~sizes:[ 1; 8 ]
    (Ycsb.write_only_uniform ~records:opts.objects ~value_bytes:64 ());
  note "No hot keys: the baseline already saturates the SSD channels, so";
  note "throughput is pinned at the device ceiling and batching shows up";
  note "as fences/op falling while group acknowledgement raises latency."
