(* DRAM object cache sweep: cache size x request skew on the read-heavy
   YCSB workloads (B: 95% read, C: 100% read).

   The cache turns the read path from an index walk + SSD page read
   (~10 us) into a DRAM probe (~lookup_ns) plus, on the zero-copy
   [oget_view] seam used here, no copy at all — so read-mostly
   throughput should scale with the hit rate, and the hit rate with the
   fraction of the working set the byte budget holds. The sweep measures
   exactly that surface: {YCSB-B, YCSB-C} x theta {0.7, 0.99} x cache
   size {0, 1/16, 1/4, full} of the dataset.

   Acceptance (a `@torture` rule greps for CACHE-SWEEP OK): within each
   (workload, theta) series the measured hit rate must be nondecreasing
   in cache size, and on YCSB-C the full-size cache must deliver >= 2x
   the uncached cell's throughput with >= 90% hits. *)

open Dstore_platform
open Dstore_util
open Dstore_core
open Dstore_workload
open Common
module Json = Dstore_obs.Json

type cell = {
  ops : int;
  elapsed_ns : int;
  hit_rate : float;  (* over the measurement window; 0 when uncached *)
  hits : int;
  misses : int;
  evictions : int;
  cache_bytes : int;  (* resident bytes at window close *)
}

(* One simulated run: load [records] objects, then [opts.clients] clients
   loop zipf-drawn reads (via the zero-copy view) and writes until the
   window closes. Hit/miss counters are deltas over the window, so the
   load phase's write-through warmup does not inflate the hit rate. *)
let run_cell opts ~records ~read_pct ~theta ~cache_mb =
  let sim = Sim.create () in
  let p = Sim_platform.make ~parallelism:opts.clients sim in
  let rng = Rng.create opts.seed in
  let scale = { (scale_of opts) with Systems.objects = records; cache_mb } in
  let built = ref None in
  Sim.spawn sim "setup" (fun () -> built := Some (Systems.dstore_store p scale));
  Sim.run sim;
  let st, _, _, _ = Option.get !built in
  let value_bytes = scale.Systems.value_bytes in
  let loaders = 8 in
  let per = (records + loaders - 1) / loaders in
  for l = 0 to loaders - 1 do
    let lr = Rng.split rng in
    Sim.spawn sim "loader" (fun () ->
        let ctx = Dstore.ds_init st in
        let v = Rng.bytes lr value_bytes in
        for i = l * per to min records ((l + 1) * per) - 1 do
          Dstore.oput ctx (Ycsb.key i) v
        done)
  done;
  Sim.run sim;
  let stats0 = Dstore.cache_stats st in
  let t0 = Sim.now sim in
  let t_end = t0 + opts.window_ns in
  let ops = ref 0 in
  for _ = 1 to opts.clients do
    let cr = Rng.split rng in
    Sim.spawn sim "client" (fun () ->
        let ctx = Dstore.ds_init st in
        let zipf = Zipf.create ~theta records in
        let value = Rng.bytes cr value_bytes in
        let scratch = Bytes.create (2 * value_bytes) in
        while Sim.now sim < t_end do
          let key = Ycsb.key (Zipf.draw_scrambled zipf cr) in
          if Rng.int cr 100 < read_pct then
            ignore (Dstore.oget_view ctx key scratch)
          else Dstore.oput ctx key value;
          incr ops
        done)
  done;
  Sim.run sim;
  let elapsed_ns = Sim.now sim - t0 in
  let c =
    match (stats0, Dstore.cache_stats st) with
    | Some s0, Some s1 ->
        let module C = Dstore_cache.Cache in
        let hits = s1.C.hits - s0.C.hits in
        let misses = s1.C.misses - s0.C.misses in
        let looked = hits + misses in
        {
          ops = !ops;
          elapsed_ns;
          hit_rate =
            (if looked = 0 then 0.0
             else float_of_int hits /. float_of_int looked);
          hits;
          misses;
          evictions = s1.C.evictions - s0.C.evictions;
          cache_bytes = s1.C.bytes;
        }
    | _ ->
        {
          ops = !ops;
          elapsed_ns;
          hit_rate = 0.0;
          hits = 0;
          misses = 0;
          evictions = 0;
          cache_bytes = 0;
        }
  in
  Sim.spawn sim "stopper" (fun () -> Dstore.stop st);
  Sim.run sim;
  c

let ktps c = float_of_int c.ops /. (float_of_int c.elapsed_ns /. 1e9) /. 1e3

let thetas = [ 0.7; 0.99 ]

let workloads = [ ("ycsb-b", 95); ("ycsb-c", 100) ]

let cell_json ~wl ~theta ~cache_mb c =
  Json.Obj
    [
      ("workload", Json.String wl);
      ("theta", Json.Float theta);
      ("cache_mb", Json.Int cache_mb);
      ("kops_per_s", Json.Float (ktps c));
      ("hit_rate", Json.Float c.hit_rate);
      ("hits", Json.Int c.hits);
      ("misses", Json.Int c.misses);
      ("evictions", Json.Int c.evictions);
      ("cache_bytes", Json.Int c.cache_bytes);
    ]

let run opts =
  let records = opts.objects in
  let value_bytes = (scale_of opts).Systems.value_bytes in
  let total_mb = records * value_bytes / (1024 * 1024) in
  (* Budgets as dataset fractions. Entries round buffer capacities up to
     a power of two, so "full" carries a 50% headroom to actually hold
     every object (plus CLOCK never packs perfectly). *)
  let sizes_mb =
    List.sort_uniq compare
      [ 0; max 1 (total_mb / 16); max 1 (total_mb / 4); (3 * total_mb / 2) + 1 ]
  in
  let full_mb = List.fold_left max 0 sizes_mb in
  hdr
    (Printf.sprintf
       "cache: DRAM object cache sweep (%d x %dB objects = %d MB, %d clients)"
       records value_bytes total_mb opts.clients);
  let t =
    Tablefmt.create
      [
        "workload"; "theta"; "cache MB"; "Kops/s"; "hit rate"; "evictions";
        "resident MB";
      ]
  in
  let monotone = ref true in
  let speedup_ok = ref true in
  let hits_ok = ref true in
  let worst_speedup = ref infinity in
  List.iter
    (fun (wl, read_pct) ->
      List.iter
        (fun theta ->
          let prev_rate = ref (-1.0) in
          let base_tp = ref 0.0 in
          List.iter
            (fun cache_mb ->
              let c = run_cell opts ~records ~read_pct ~theta ~cache_mb in
              let tp = ktps c in
              if cache_mb = 0 then base_tp := tp;
              (* Hit rate nondecreasing in budget, with a hair of slack
                 for sampling noise between near-saturated cells. *)
              if c.hit_rate < !prev_rate -. 0.01 then monotone := false;
              prev_rate := max !prev_rate c.hit_rate;
              if cache_mb = full_mb && read_pct = 100 then begin
                let speedup = if !base_tp > 0.0 then tp /. !base_tp else 0.0 in
                worst_speedup := min !worst_speedup speedup;
                if speedup < 2.0 then speedup_ok := false;
                if c.hit_rate < 0.90 then hits_ok := false
              end;
              Tablefmt.row t
                [
                  wl;
                  Printf.sprintf "%.2f" theta;
                  string_of_int cache_mb;
                  Tablefmt.f1 tp;
                  Printf.sprintf "%.1f%%" (100.0 *. c.hit_rate);
                  string_of_int c.evictions;
                  Tablefmt.f1 (float_of_int c.cache_bytes /. 1048576.0);
                ];
              record_json (cell_json ~wl ~theta ~cache_mb c))
            sizes_mb)
        thetas)
    workloads;
  Tablefmt.print t;
  note "hit rate = cache hits / lookups over the measurement window only";
  note "(the load phase's write-through warmup is excluded).";
  print_newline ();
  if !monotone && !speedup_ok && !hits_ok then
    Printf.printf
      "CACHE-SWEEP OK: hit rate monotone in cache size for every \
       (workload, theta); full-size YCSB-C >= %.1fx uncached with >= 90%% hits\n"
      !worst_speedup
  else begin
    if not !monotone then
      print_endline
        "CACHE-SWEEP FAIL: hit rate not monotone in cache size (see table)";
    if not !speedup_ok then
      Printf.printf
        "CACHE-SWEEP FAIL: full-size YCSB-C speedup %.2fx < 2x uncached\n"
        !worst_speedup;
    if not !hits_ok then
      print_endline "CACHE-SWEEP FAIL: full-size YCSB-C hit rate < 90%"
  end
