(* Shared infrastructure for the paper-reproduction experiments: the
   system roster, measurement helpers, and option parsing. *)

open Dstore_util
open Dstore_workload

type opts = {
  clients : int;  (* paper: 28 (full subscription) *)
  objects : int;  (* paper: records in the YCSB table *)
  window_ns : int;  (* measurement window for latency experiments *)
  fig7_window_ns : int;  (* paper: 60 s *)
  recovery_objects : int;  (* paper: 2 M *)
  seed : int;
  shards : int;  (* focus shard count for the sharding experiment *)
  batch : int;  (* group-commit batch size (1 = per-op commit) *)
  cache_mb : int;  (* DRAM object-cache budget for DStore runs (0 = off) *)
  apply_depth : int option;  (* backup apply-queue depth override (1 = serial) *)
}

let default_opts =
  {
    clients = 28;
    objects = 10_000;
    window_ns = 2_000_000_000;
    fig7_window_ns = 15_000_000_000;
    recovery_objects = 50_000;
    seed = 42;
    shards = 4;
    batch = 1;
    cache_mb = 0;
    apply_depth = None;
  }

let scale_of opts =
  {
    Systems.default_scale with
    objects = opts.objects;
    cache_mb = opts.cache_mb;
  }

(* The comparison roster of the paper's evaluation (§5.1). *)
type sys_id = DStore | DStore_cow | Cached | Lsm | Inline

let sys_name = function
  | DStore -> "DStore"
  | DStore_cow -> "DStore (CoW)"
  | Cached -> "MongoDB-PM"
  | Lsm -> "PMEM-RocksDB"
  | Inline -> "MongoDB-PMSE"

let all_systems = [ Cached; Lsm; Inline; DStore_cow; DStore ]

let build ?(checkpoints = true) id opts p =
  let scale = scale_of opts in
  match (id, checkpoints) with
  | DStore, true -> Systems.dstore ~label:(sys_name DStore) p scale
  | DStore, false ->
      Systems.dstore ~tweak:Systems.no_ckpt_tweak ~label:(sys_name DStore) p scale
  | DStore_cow, true ->
      Systems.dstore ~tweak:Systems.cow_tweak ~label:(sys_name DStore_cow) p scale
  | DStore_cow, false ->
      Systems.dstore ~tweak:Systems.no_ckpt_tweak ~label:(sys_name DStore_cow) p
        scale
  | Cached, true -> Systems.cached ~label:(sys_name Cached) p scale
  | Cached, false ->
      (* "Checkpoints disabled": journal provisioned to outlast the run
         and the periodic trigger pushed past it. *)
      Systems.cached ~label:(sys_name Cached)
        ~tweak:(fun c ->
          {
            c with
            Dstore_baselines.Cached_store.journal_bytes = 2048 * 1024 * 1024;
            ckpt_interval_ns = max_int / 2;
          })
        p scale
  | Lsm, true -> Systems.lsm ~label:(sys_name Lsm) p scale
  | Lsm, false ->
      (* "Checkpoints disabled" for an LSM: flushes still happen (an LSM
         cannot run without them) but never stall writers — a deep L0 and
         no major compaction. *)
      Systems.lsm_no_stall ~label:(sys_name Lsm) p scale
  | Inline, _ -> Systems.inline ~label:(sys_name Inline) p scale

(* JSON results accumulator: every [measure] call appends its results
   blob; the harness drains the buffer after each experiment and writes a
   BENCH_<experiment>.json file. *)
let json_results : Dstore_obs.Json.t list ref = ref []

let record_json j = json_results := j :: !json_results

let take_json () =
  let l = List.rev !json_results in
  json_results := [];
  l

let measure ?(timeline = false) ?(checkpoints = true) ?workload ?window id opts =
  let wl =
    match workload with Some w -> w | None -> Ycsb.a ~records:opts.objects ()
  in
  let window = Option.value window ~default:opts.window_ns in
  let r =
    Runner.run ~seed:opts.seed ~batch:opts.batch
      ?timeline_bin_ns:(if timeline then Some 1_000_000_000 else None)
      ~build:(build ~checkpoints id opts)
      ~workload:wl ~clients:opts.clients ~duration_ns:window ()
  in
  record_json (Runner.result_json r);
  r

let pcts = Histogram.percentile_labels

let hdr title =
  let line = String.make 78 '=' in
  Printf.printf "\n%s\n%s\n%s\n%!" line title line

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n%!")

let us h p = float_of_int (Histogram.percentile h p) /. 1e3

let mean_us h = Histogram.mean h /. 1e3
