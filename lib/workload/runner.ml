open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_util
module Metrics = Dstore_obs.Metrics
module Obs = Dstore_obs.Obs
module Json = Dstore_obs.Json

type sample = { t_ns : int; ops : int; ssd_bytes : int; pmem_bytes : int }

(* Persistence efficiency over the measurement window, summed across the
   system's PMEM devices: group commit's whole point is driving the
   per-operation fence count down, so the runner reports it directly. *)
type persistence = {
  fence_calls : int;
  flush_calls : int;
  flushed_bytes : int;
  fences_per_op : float;
  flushes_per_op : float;
  flushed_bytes_per_op : float;
}

type result = {
  system : string;
  workload : string;
  clients : int;
  duration_ns : int;
  reads : Histogram.t;
  updates : Histogram.t;
  total_ops : int;
  throughput : float;
  timeline : sample list;
  footprint : int * int * int;
  load_ns : int;
  metrics : Metrics.t;
  sys_obs : Obs.t option;
  persistence : persistence;
}

let pmem_traffic pms =
  List.fold_left
    (fun acc pm ->
      let st = Pmem.stats pm in
      acc + st.Pmem.bytes_flushed + st.Pmem.bytes_read_bulk)
    0 pms

let ssd_traffic ssds =
  List.fold_left
    (fun acc ssd ->
      let st = Ssd.stats ssd in
      acc + st.Ssd.bytes_read + st.Ssd.bytes_written)
    0 ssds

let pm_persist_totals pms =
  List.fold_left
    (fun (fe, fl, b) pm ->
      let st = Pmem.stats pm in
      ( fe + st.Pmem.fence_calls,
        fl + st.Pmem.flush_calls,
        b + st.Pmem.bytes_flushed ))
    (0, 0, 0) pms

let run ?(seed = 42) ?timeline_bin_ns ?(load = true) ?(loaders = 8)
    ?(think_ns = 100_000) ?(batch = 1) ~build ~(workload : Ycsb.t) ~clients
    ~duration_ns () =
  let sim = Sim.create () in
  let p = Sim_platform.make ~parallelism:clients sim in
  let rng = Rng.create seed in
  (* Phase 0: construct the system (device formatting consumes time). *)
  let sys = ref None in
  Sim.spawn sim "setup" (fun () -> sys := Some (build p));
  Sim.run sim;
  let sys = Option.get !sys in
  (* Phase 1: load. *)
  let t_load0 = Sim.now sim in
  if load then begin
    let loaders = max 1 (min loaders clients) in
    let per = (workload.Ycsb.records + loaders - 1) / loaders in
    for l = 0 to loaders - 1 do
      let lr = Rng.split rng in
      Sim.spawn sim "loader" (fun () ->
          let c = sys.Kv_intf.client () in
          let value = Rng.bytes lr workload.Ycsb.value_bytes in
          let lo = l * per and hi = min workload.Ycsb.records ((l + 1) * per) in
          for i = lo to hi - 1 do
            c.Kv_intf.put (Ycsb.key i) value
          done)
    done;
    Sim.run sim
  end;
  let load_ns = Sim.now sim - t_load0 in
  (* Phase 2: measurement window. Each client records latencies into its
     own private registry shard (no cross-client sharing on the hot path);
     shards are merged into one aggregate after the window, so the
     reported percentiles are exact over the union. *)
  let t0 = Sim.now sim in
  let t_end = t0 + duration_ns in
  let fe0, fl0, b0 = pm_persist_totals sys.Kv_intf.pms in
  let agg = Metrics.create () in
  let shards = ref [] in
  let ops_done = ref 0 in
  for _ = 1 to clients do
    let cr = Rng.split rng in
    let shard = Metrics.create () in
    shards := shard :: !shards;
    let h_read = Metrics.histogram shard "client.read_ns" in
    let h_update = Metrics.histogram shard "client.update_ns" in
    Sim.spawn sim "client" (fun () ->
        let c = sys.Kv_intf.client () in
        let g = Ycsb.gen workload cr in
        let value = Rng.bytes cr workload.Ycsb.value_bytes in
        let buf = Bytes.create (max workload.Ycsb.value_bytes 4096) in
        (* Group commit: with [batch > 1] on a system exposing a batched
           endpoint, updates accumulate client-side and go down as one
           [put_batch] per [batch] ops. Every op in the batch is charged
           the whole call's duration — an op is not acknowledged until
           its batch commit returns. Reads flush first so read-your-write
           holds inside one client. *)
        let put_batch = if batch > 1 then c.Kv_intf.put_batch else None in
        (* Zero-copy reads: on systems exposing [read_view] the hot read
           loop borrows the store's cached buffer on a hit and only uses
           the scratch buffer on a miss — no per-op copy, no allocation. *)
        let read =
          match c.Kv_intf.read_view with
          | Some rv -> fun k -> ignore (rv k buf)
          | None -> fun k -> ignore (c.Kv_intf.get k buf)
        in
        let pending = ref [] in
        let npending = ref 0 in
        let flush_updates () =
          if !npending > 0 then begin
            let kvs = List.rev !pending in
            pending := [];
            let n = !npending in
            npending := 0;
            let t_op = Sim.now sim in
            (Option.get put_batch) kvs;
            let dt = Sim.now sim - t_op in
            for _ = 1 to n do
              Metrics.observe h_update dt;
              incr ops_done
            done
          end
        in
        while Sim.now sim < t_end do
          (* Client-side harness overhead (the YCSB loop): the paper's
             Table 5 rates at 28 threads imply ~110 us per operation while
             Table 3 puts the server-side write at ~10 us — the difference
             lives in the client. Jittered to avoid lockstep. *)
          if think_ns > 0 then
            p.Platform.consume (think_ns * (90 + Rng.int cr 21) / 100);
          match Ycsb.next g with
          | Ycsb.Read k ->
              flush_updates ();
              let t_op = Sim.now sim in
              read k;
              Metrics.observe h_read (Sim.now sim - t_op);
              incr ops_done
          | Ycsb.Update k -> (
              match put_batch with
              | Some _ ->
                  pending := (k, value) :: !pending;
                  incr npending;
                  if !npending >= batch then flush_updates ()
              | None ->
                  let t_op = Sim.now sim in
                  c.Kv_intf.put k value;
                  Metrics.observe h_update (Sim.now sim - t_op);
                  incr ops_done)
        done;
        flush_updates ())
  done;
  let timeline = ref [] in
  (match timeline_bin_ns with
  | None -> ()
  | Some bin ->
      Sim.spawn sim "sampler" (fun () ->
          let last_ops = ref 0 in
          let last_ssd = ref (ssd_traffic sys.Kv_intf.ssds) in
          let last_pm = ref (pmem_traffic sys.Kv_intf.pms) in
          while Sim.now sim < t_end do
            Sim.wait sim (min bin (t_end - Sim.now sim));
            let o = !ops_done and s = ssd_traffic sys.Kv_intf.ssds in
            let m = pmem_traffic sys.Kv_intf.pms in
            timeline :=
              {
                t_ns = Sim.now sim - t0;
                ops = o - !last_ops;
                ssd_bytes = s - !last_ssd;
                pmem_bytes = m - !last_pm;
              }
              :: !timeline;
            last_ops := o;
            last_ssd := s;
            last_pm := m
          done));
  (* Drive to the deadline; polling-style background managers (the cached
     baseline's checkpointer) schedule events forever, so we cannot wait
     for a natural drain before stopping them. *)
  Sim.run_until sim t_end;
  (* Persistence efficiency: deltas over the measurement window, divided
     by the ops completed inside it (staged tail batches drain during the
     stop phase and are excluded from both sides). *)
  let fe1, fl1, b1 = pm_persist_totals sys.Kv_intf.pms in
  let ops_win = max 1 !ops_done in
  let per x = float_of_int x /. float_of_int ops_win in
  let persistence =
    {
      fence_calls = fe1 - fe0;
      flush_calls = fl1 - fl0;
      flushed_bytes = b1 - b0;
      fences_per_op = per (fe1 - fe0);
      flushes_per_op = per (fl1 - fl0);
      flushed_bytes_per_op = per (b1 - b0);
    }
  in
  Sim.spawn sim "stopper" (fun () -> sys.Kv_intf.stop ());
  Sim.run sim;
  let footprint = sys.Kv_intf.footprint () in
  List.iter (fun shard -> Metrics.merge_into ~dst:agg shard) !shards;
  let reads = Metrics.histo_data (Metrics.histogram agg "client.read_ns") in
  let updates = Metrics.histo_data (Metrics.histogram agg "client.update_ns") in
  {
    system = sys.Kv_intf.name;
    workload = workload.Ycsb.name;
    clients;
    duration_ns;
    reads;
    updates;
    total_ops = !ops_done;
    throughput = float_of_int !ops_done /. (float_of_int duration_ns /. 1e9);
    timeline = List.rev !timeline;
    footprint;
    load_ns;
    metrics = agg;
    sys_obs = sys.Kv_intf.obs;
    persistence;
  }

(* --- JSON export ------------------------------------------------------------- *)

let sample_json s =
  Json.Obj
    [
      ("t_ns", Json.Int s.t_ns);
      ("ops", Json.Int s.ops);
      ("ssd_bytes", Json.Int s.ssd_bytes);
      ("pmem_bytes", Json.Int s.pmem_bytes);
    ]

let result_json r =
  let dram, pmem, ssd = r.footprint in
  Json.Obj
    [
      ("system", Json.String r.system);
      ("workload", Json.String r.workload);
      ("clients", Json.Int r.clients);
      ("duration_ns", Json.Int r.duration_ns);
      ("load_ns", Json.Int r.load_ns);
      ("total_ops", Json.Int r.total_ops);
      ("throughput_ops_s", Json.Float r.throughput);
      ( "footprint",
        Json.Obj
          [
            ("dram", Json.Int dram);
            ("pmem", Json.Int pmem);
            ("ssd", Json.Int ssd);
          ] );
      ("timeline", Json.List (List.map sample_json r.timeline));
      ( "persistence",
        Json.Obj
          [
            ("fence_calls", Json.Int r.persistence.fence_calls);
            ("flush_calls", Json.Int r.persistence.flush_calls);
            ("flushed_bytes", Json.Int r.persistence.flushed_bytes);
            ("fences_per_op", Json.Float r.persistence.fences_per_op);
            ("flushes_per_op", Json.Float r.persistence.flushes_per_op);
            ( "flushed_bytes_per_op",
              Json.Float r.persistence.flushed_bytes_per_op );
          ] );
      ("client_metrics", Metrics.to_json r.metrics);
      ( "store",
        match r.sys_obs with
        | Some o -> Obs.to_json o
        | None -> Json.Null );
      (* Tail forensics: where the slow ops' time went (attribution) and
         when it went there (virtual-time buckets). *)
      ( "tail",
        match r.sys_obs with
        | Some o ->
            let module Span = Dstore_obs.Span in
            Json.Obj
              [
                ("attribution", Span.report_json o.Obs.spans);
                ("timeseries", Span.timeseries_json o.Obs.spans);
              ]
        | None -> Json.Null );
    ]
