(* The five ledger workloads. Each [run] builds its system on a fresh
   simulator through the public [Systems] / [Dstore] / [Dstore_txn] /
   [Group] APIs, loads it, drives one measurement window with its own
   loop, checks the store's outputs, and measures every layer from
   outside: by timing its own calls, by diffing each layer's public
   counters across the window, and (traced runs only) by harvesting the
   store's finished spans. *)

open Dstore_platform
open Dstore_util
open Dstore_pmem
open Dstore_ssd
open Dstore_core
open Dstore_workload
module Obs = Dstore_obs.Obs
module Span = Dstore_obs.Span
module Metrics = Dstore_obs.Metrics
module Attribution = Dstore_obs.Attribution
module Cache = Dstore_cache.Cache
module Group = Dstore_repl.Group
module Backup = Dstore_repl.Backup

type rep = {
  attempted : int;
  failed : int;
  completed : int;  (* ops (committed transactions on txn_rmw) *)
  window_ns : int;
  lat : Samples.t;
  setup_s : float;  (* host CPU s to build the devices and load *)
  host_ns : float;  (* host CPU ns over the measurement window *)
  alloc_words : float;  (* minor-heap words allocated in the window *)
  major_gcs : int;
  layers : (string * float) list;
  errors : string list;
}

(* --- helpers --- *)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let us ns = float_of_int ns /. 1e3

let drain_ns = 1_000_000_000

type mark = { cpu : float; words : float; majors : int }

let mark () =
  {
    cpu = Sys.time ();
    words = Gc.minor_words ();
    majors = (Gc.quick_stat ()).Gc.major_collections;
  }

(* Run [f] as a simulated process named [what] and return its result. *)
let fiber sim what f =
  let r = ref None in
  Sim.spawn sim what (fun () -> r := Some (f ()));
  Sim.run sim;
  match !r with Some v -> v | None -> failwith ("ledger: " ^ what ^ " never finished")

(* Eight loader fibers insert records [0, records); [put ()] runs in each
   loader's fiber and returns its insert function. *)
let load sim ~records put =
  let loaders = 8 in
  let per = (records + loaders - 1) / loaders in
  for l = 0 to loaders - 1 do
    Sim.spawn sim "loader" (fun () ->
        let put = put () in
        for i = l * per to min records ((l + 1) * per) - 1 do
          put i
        done)
  done;
  Sim.run sim

(* Build a store with [build] and load it, timing the host side. Tracing
   stays off until the measurement window opens. *)
let setup ~records ~obs build fill =
  let t0 = Sys.time () in
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let sys = fiber sim "build" (fun () -> build p) in
  List.iter (fun o -> Obs.set_enabled o false) (obs sys);
  load sim ~records (fill sys);
  (sim, p, sys, Sys.time () -. t0)

(* Tracing switch at the window's open: the store's own recorder is
   harvested for segments and blame; every other handle (a backup's)
   is enabled for its cause totals. *)
let arm ~traced = function
  | [] -> None
  | main :: others ->
      if traced then begin
        List.iter Loops.arm (main :: others);
        Some (Loops.spans main.Obs.spans)
      end
      else None

(* --- layer counters --- *)

type snap = {
  dip : Dipper.stats;
  pm : int array;  (* fences, flushes, flushed bytes, written bytes, bulk reads *)
  ssd : int array;  (* reads, writes, bytes written *)
  cache : Cache.stats option;
}

let snap store pms ssds =
  let s = Dipper.stats (Dstore.engine store) in
  let pm = Array.make 5 0 and sd = Array.make 3 0 in
  List.iter
    (fun d ->
      let st = Pmem.stats d in
      pm.(0) <- pm.(0) + st.Pmem.fence_calls;
      pm.(1) <- pm.(1) + st.Pmem.flush_calls;
      pm.(2) <- pm.(2) + st.Pmem.bytes_flushed;
      pm.(3) <- pm.(3) + st.Pmem.bytes_written;
      pm.(4) <- pm.(4) + st.Pmem.bytes_read_bulk)
    pms;
  List.iter
    (fun d ->
      let st = Ssd.stats d in
      sd.(0) <- sd.(0) + st.Ssd.reads;
      sd.(1) <- sd.(1) + st.Ssd.writes;
      sd.(2) <- sd.(2) + st.Ssd.bytes_written)
    ssds;
  {
    dip = { s with Dipper.checkpoints = s.Dipper.checkpoints };
    pm;
    ssd = sd;
    cache = Dstore.cache_stats store;
  }

(* Span-derived figures are per store op span, so segments plus blame add
   up to the mean op latency of the store's span histogram; device and
   engine counts are per client op. *)
let core_layers ~store ~ops ~window_ns ~user_bytes ~call s0 s1 h =
  let open Loops in
  let dip f = f s1.dip - f s0.dip in
  let ckpts = dip (fun s -> s.Dipper.checkpoints) in
  let per_ckpt f = ratio (dip f) ckpts in
  let per_op x = ratio x ops in
  let spans =
    match h with
    | None -> []
    | Some h ->
        let seg sg = ratio h.segs.(Span.seg_index sg) h.ops in
        let blame c = ratio h.blames.(Span.cause_index c) h.ops in
        let events c = ratio h.events.(Span.cause_index c) h.ops in
        let tail =
          match Attribution.find_class (Span.report h.rec_) "p9999" with
          | Some c -> Attribution.attributed_pct c
          | None -> 0.0
        in
        [
          ("core.seg.index_ns", seg Span.S_index);
          ("core.seg.ticket_ns", seg Span.S_ticket);
          ("core.seg.lock_ns", seg Span.S_lock);
          ("core.seg.append_ns", seg Span.S_append);
          ("core.seg.fence_ns", seg Span.S_fence);
          ("core.seg.data_ns", seg Span.S_data);
          ("core.seg.structs_ns", seg Span.S_structs);
          ("core.seg.stage_ns", seg Span.S_stage);
          ("core.seg.commit_ns", seg Span.S_commit);
          ("core.seg.other_ns", seg Span.S_other);
          ("core.blame.conflict_retry_ns", blame Span.Conflict_retry);
          ("core.blame.log_full_ns", blame Span.Log_full);
          ("core.blame.ckpt_interference_ns", blame Span.Ckpt_interference);
          ("core.blame.batch_wait_ns", blame Span.Batch_wait);
          ("core.blame.conflict_retry_events", events Span.Conflict_retry);
          ("core.blame.log_full_events", events Span.Log_full);
          ("core.tail_attributed_pct", tail);
          ("cache.fill_ns", seg Span.S_cache_fill);
          ("ssd.queue_ns", blame Span.Ssd_queue);
          ("txn.retry_ns", blame Span.Txn_retry);
          ("repl.wait_ns", blame Span.Repl_wait);
        ]
  in
  let cache =
    match (s0.cache, s1.cache) with
    | Some a, Some b ->
        let d f = f b - f a in
        let hits = d (fun c -> c.Cache.hits) and misses = d (fun c -> c.Cache.misses) in
        let fills = d (fun c -> c.Cache.fills) in
        [
          ("cache.hit_ratio", ratio hits (hits + misses));
          ("cache.evictions", per_op (d (fun c -> c.Cache.evictions)));
          ("cache.invalidations", per_op (d (fun c -> c.Cache.invalidations)));
          ("cache.fills", per_op fills);
          ("cache.recycled_ratio", ratio (d (fun c -> c.Cache.recycled)) fills);
        ]
    | _ -> []
  in
  let pm i = per_op (s1.pm.(i) - s0.pm.(i)) in
  let fp = Dstore.footprint store and objects = Dstore.object_count store in
  let cloned = dip (fun s -> s.Dipper.ckpt_bytes_cloned) in
  let skipped = dip (fun s -> s.Dipper.ckpt_bytes_skipped) in
  [
    ("core.call_p50_us", Samples.us call 50.0);
    ("core.call_p999_us", Samples.us call 99.9);
    ("core.records_appended", per_op (dip (fun s -> s.Dipper.records_appended)));
    ("core.conflict_waits", per_op (dip (fun s -> s.Dipper.conflict_waits)));
    ("core.log_full_stalls", per_op (dip (fun s -> s.Dipper.log_full_stalls)));
    ("core.ckpt_per_s", float_of_int ckpts /. (float_of_int window_ns /. 1e9));
    ( "core.ckpt_busy_pct",
      100.0 *. ratio (dip (fun s -> s.Dipper.ckpt_total_ns)) window_ns );
    ("core.ckpt_clone_us", per_ckpt (fun s -> s.Dipper.ckpt_clone_ns) /. 1e3);
    ("core.ckpt_replay_us", per_ckpt (fun s -> s.Dipper.ckpt_replay_ns) /. 1e3);
    ("core.ckpt_persist_us", per_ckpt (fun s -> s.Dipper.ckpt_persist_ns) /. 1e3);
    ("core.ckpt_bytes_cloned", ratio cloned ckpts);
    ("core.ckpt_delta_skip_ratio", ratio skipped (cloned + skipped));
    ("core.dram_bytes_per_object", ratio fp.Dstore.dram objects);
    ("core.pmem_bytes_per_object", ratio fp.Dstore.pmem objects);
    ("pmem.fences", pm 0);
    ("pmem.flushes", pm 1);
    ("pmem.flushed_bytes", pm 2);
    ("pmem.written_bytes", pm 3);
    ("pmem.bulk_read_bytes", pm 4);
    ("ssd.reads", per_op (s1.ssd.(0) - s0.ssd.(0)));
    ("ssd.writes", per_op (s1.ssd.(1) - s0.ssd.(1)));
    ("ssd.bytes_written_per_user_byte", ratio (s1.ssd.(2) - s0.ssd.(2)) user_bytes);
  ]
  @ cache @ spans

(* The partition check: segments plus blame, per op, must add up to the
   mean of the store's own span-latency histogram, and the harvest must
   have seen every op span the recorder finished. *)
let span_errors = function
  | None -> []
  | Some (h : Loops.spans) ->
      let parts =
        Array.fold_left ( + ) 0 h.Loops.segs + Array.fold_left ( + ) 0 h.Loops.blames
      in
      let mine = ratio parts h.Loops.ops in
      let theirs = Histogram.mean (Span.hist h.Loops.rec_) in
      List.concat
        [
          (if h.Loops.lost > 0 then
             [ Printf.sprintf "span harvest lost %d spans" h.Loops.lost ]
           else []);
          (if h.Loops.ops <> Span.ops h.Loops.rec_ then
             [
               Printf.sprintf "span harvest saw %d op spans, recorder %d" h.Loops.ops
                 (Span.ops h.Loops.rec_);
             ]
           else []);
          (if h.Loops.ops > 0 && Float.abs (mine -. theirs) > 0.01 *. theirs then
             [
               Printf.sprintf
                 "segments + blame = %.1f ns/op, span histogram mean %.1f ns/op" mine
                 theirs;
             ]
           else []);
        ]

let workload_layers (t : Loops.tally) ~window_ns =
  [
    ("workload.offered_kops", ratio t.Loops.attempted window_ns *. 1e6);
    ("workload.p50_us", Samples.us t.Loops.lat 50.0);
    ("workload.p99_us", Samples.us t.Loops.lat 99.0);
    ("workload.p999_us", Samples.us t.Loops.lat 99.9);
    ("workload.p9999_us", Samples.us t.Loops.lat 99.99);
    ("workload.read_p999_us", Samples.us t.Loops.reads 99.9);
    ("workload.write_p999_us", Samples.us t.Loops.writes 99.9);
    ("workload.error_rate", ratio t.Loops.failed t.Loops.attempted);
  ]

(* The window's close: the last span harvest, the counters, and every
   span-derived figure, taken before any post-window check makes store
   calls of its own. *)
type closed = {
  s1 : snap;
  m1 : mark;
  core : (string * float) list;
  span_errs : string list;
}

let close ~store ~pms ~ssds ~s0 ~h ~(t : Loops.tally) ~window_ns ~user_bytes =
  let m1 = mark () in
  Option.iter Loops.harvest h;
  let s1 = snap store pms ssds in
  {
    s1;
    m1;
    core =
      workload_layers t ~window_ns
      @ core_layers ~store ~ops:t.Loops.attempted ~window_ns ~user_bytes ~call:t.Loops.call
          s0 s1 h;
    span_errs = span_errors h;
  }

let finish ~(t : Loops.tally) ~completed ~window_ns ~setup_s ~m0 ~w ~layers ~errors =
  {
    attempted = t.Loops.attempted;
    failed = t.Loops.failed;
    completed;
    window_ns;
    lat = t.Loops.lat;
    setup_s;
    host_ns = (w.m1.cpu -. m0.cpu) *. 1e9;
    alloc_words = w.m1.words -. m0.words;
    major_gcs = w.m1.majors - m0.majors;
    layers = w.core @ layers;
    errors = errors @ w.span_errs;
  }

let dstore_obs st = [ Dstore.obs st ]

let fill_dstore ~value (st, _, _, _) () =
  let ctx = Dstore.ds_init st in
  fun i -> Dstore.oput ctx (Ycsb.key i) value

(* --- ycsb_a_open --- *)

let a_scale = { Systems.default_scale with Systems.objects = 10_000 }

let a_rate_kops = 600.0

let servers = 28

(* YCSB-A served from an open loop: reads go to the SSD (cache off) and
   writes pay log, fences and checkpoints. *)
let serve_a st absent _ =
  let ctx = Dstore.ds_init st in
  let buf = Bytes.create a_scale.Systems.value_bytes in
  let v = Bytes.make a_scale.Systems.value_bytes 'a' in
  function
  | Ycsb.Read k ->
      if Dstore.oget_into ctx k buf < 0 then begin
        incr absent;
        Loops.Fail
      end
      else Loops.Read
  | Ycsb.Update k ->
      Dstore.oput ctx k v;
      Loops.Write

let gen_a grng =
  let g = Ycsb.gen (Ycsb.a ~records:a_scale.Systems.objects ()) grng in
  fun () -> Ycsb.next g

let setup_a () =
  setup ~records:a_scale.Systems.objects
    ~obs:(fun (st, _, _, _) -> dstore_obs st)
    (fun p -> Systems.dstore_store p a_scale)
    (fill_dstore ~value:(Bytes.make a_scale.Systems.value_bytes 'l'))

let ycsb_a_open ~seed ~window_ns ~traced =
  let rng = Rng.create seed in
  let sim, _, (st, pm, ssd, _), setup_s = setup_a () in
  let h = arm ~traced (dstore_obs st) in
  let s0 = snap st [ pm ] [ ssd ] in
  let absent = ref 0 in
  let m0 = mark () in
  let r =
    Loops.open_loop sim ?spans:h ~rng ~rate_kops:a_rate_kops ~window_ns ~drain_ns
      ~servers ~gen:gen_a (serve_a st absent)
  in
  let t = r.Loops.o in
  let w =
    close ~store:st ~pms:[ pm ] ~ssds:[ ssd ] ~s0 ~h ~t ~window_ns
      ~user_bytes:(Samples.count t.Loops.writes * a_scale.Systems.value_bytes)
  in
  let layers =
    [
      ("workload.gen_late_max_us", us r.Loops.late_max_ns);
      ("workload.backlog_max", float_of_int r.Loops.backlog_max);
      ("workload.drain_ms", float_of_int r.Loops.o_drain_ns /. 1e6);
      ("workload.queue_wait_p999_us", Samples.us r.Loops.qwait 99.9);
    ]
  in
  let errors =
    (if !absent > 0 then [ Printf.sprintf "%d reads returned absent" !absent ] else [])
    @
    if r.Loops.unfinished > 0 then
      [ Printf.sprintf "%d ops unfinished after the drain" r.Loops.unfinished ]
    else []
  in
  finish ~t ~completed:(t.Loops.attempted - t.Loops.failed) ~window_ns ~setup_s ~m0 ~w
    ~layers ~errors

(* The SLO ladder: the same open loop at ascending rates on one store,
   each step followed by its drain. Capacity is the highest rate whose
   p999 stays within the SLO with no backlog left growing at the step's
   close; the ladder stops at the first step that misses. Untraced. *)
let slo_p999_us = 200.0

let ladder_rates = List.init 9 (fun i -> 500.0 +. (50.0 *. float_of_int i))

let slo_ladder ~seed ~step_ns =
  let rng = Rng.create seed in
  let sim, _, (st, _, _, _), _ = setup_a () in
  let absent = ref 0 in
  let rec climb best = function
    | [] -> best
    | rate :: rest ->
        let r =
          Loops.open_loop sim ~rng ~rate_kops:rate ~window_ns:step_ns ~drain_ns
            ~servers ~gen:gen_a (serve_a st absent)
        in
        let p999 = Samples.us r.Loops.o.Loops.lat 99.9 in
        let ok =
          p999 <= slo_p999_us
          && r.Loops.backlog_close <= 2 * servers
          && r.Loops.o.Loops.failed = 0
        in
        Printf.printf
          "ladder %4.0f Kops/s: p999 %8.1f us over %d ops, backlog at close %d -> %s\n"
          rate p999 r.Loops.o.Loops.attempted r.Loops.backlog_close
          (if ok then "meets SLO" else "misses SLO");
        if ok then climb rate rest else best
  in
  climb 0.0 ladder_rates

(* --- write_hot --- *)

let hot_scale =
  {
    Systems.default_scale with
    Systems.objects = 1_000;
    log_slots = Systems.default_scale.Systems.log_slots / 16;
    cache_mb = 8;
    retain_data = true;
    ssd_pages = 16 * 1024;
    crash_model = true;
  }

let hot_clients = 48

let hot_think_ns = 100_000

(* A value's tag: the writing client and its sequence number. *)
let set_tag v ~client ~seq =
  Bytes.set_int64_le v 0 (Int64.of_int client);
  Bytes.set_int64_le v 8 (Int64.of_int seq)

let get_tag v =
  (Int64.to_int (Bytes.get_int64_le v 0), Int64.to_int (Bytes.get_int64_le v 8))

(* Per key, the acknowledged writes not yet superseded in real time: a
   write acknowledged before another write to the key was invoked (and
   that one acknowledged too) can no longer be the surviving value. *)
type key_hist = { mutable acked : ((int * int) * int) list; mutable max_invoke : int }

(* Fig1 stress: 48 think-time clients over 1 000 hot keys with a log cut
   to 1/16. Then a power cut (unflushed PMEM lines dropped, any checkpoint
   in progress abandoned), recovery, and a read-back of every key. The
   cut waits for the ops in flight at the window's close to return: the
   SSD model cannot drop a command mid-transfer, and a channel held by an
   abandoned process would never be released. *)
let write_hot ~seed ~window_ns ~traced =
  let rng = Rng.create seed in
  let records = hot_scale.Systems.objects and vb = hot_scale.Systems.value_bytes in
  let sim, p, (st, pm, ssd, cfg), setup_s =
    setup ~records
      ~obs:(fun (st, _, _, _) -> dstore_obs st)
      (fun p -> Systems.dstore_store p hot_scale)
      (fun (st, _, _, _) () ->
        let ctx = Dstore.ds_init st in
        let v = Bytes.make vb 'l' in
        set_tag v ~client:(-1) ~seq:0;
        fun i -> Dstore.oput ctx (Ycsb.key i) v)
  in
  let h = arm ~traced (dstore_obs st) in
  let hist = Hashtbl.create records in
  for i = 0 to records - 1 do
    Hashtbl.replace hist (Ycsb.key i) { acked = [ ((-1, 0), 0) ]; max_invoke = 0 }
  done;
  let s0 = snap st [ pm ] [ ssd ] in
  let m0 = mark () in
  let r =
    Loops.closed_loop sim ?spans:h ~rng ~clients:hot_clients ~think_ns:hot_think_ns
      ~window_ns ~drain_ns (fun i r ->
        let ctx = Dstore.ds_init st in
        let g = Ycsb.gen (Ycsb.write_only ~records ()) r in
        let v = Bytes.make vb 'w' in
        let seq = ref 0 in
        fun () ->
          let k = match Ycsb.next g with Ycsb.Read k | Ycsb.Update k -> k in
          incr seq;
          set_tag v ~client:i ~seq:!seq;
          let invoked = Sim.now sim in
          Dstore.oput ctx k v;
          let kh = Hashtbl.find hist k in
          kh.max_invoke <- max kh.max_invoke invoked;
          kh.acked <-
            ((i, !seq), Sim.now sim)
            :: List.filter (fun (_, a) -> a >= kh.max_invoke) kh.acked;
          Loops.Write)
  in
  let t = r.Loops.c in
  let w =
    close ~store:st ~pms:[ pm ] ~ssds:[ ssd ] ~s0 ~h ~t ~window_ns
      ~user_bytes:(t.Loops.attempted * vb)
  in
  Sim.clear_pending sim;
  Pmem.crash pm Pmem.Drop_all;
  let st', recovery_ns =
    fiber sim "recovery" (fun () ->
        let t0 = Sim.now sim in
        let st' = Dstore.recover p pm ssd cfg in
        (st', Sim.now sim - t0))
  in
  let bad =
    fiber sim "read-back" (fun () ->
        let ctx = Dstore.ds_init st' in
        let bad = ref 0 in
        Hashtbl.iter
          (fun k kh ->
            match Dstore.oget ctx k with
            | Some v
              when List.exists
                     (fun (tag, a) -> tag = get_tag v && a >= kh.max_invoke)
                     kh.acked ->
                ()
            | _ -> incr bad)
          hist;
        !bad)
  in
  let rs = Dipper.stats (Dstore.engine st') in
  let layers =
    [
      ("workload.drain_ms", float_of_int r.Loops.c_drain_ns /. 1e6);
      ("workload.recovery_ms", float_of_int recovery_ns /. 1e6);
      ("core.recovery_metadata_ms", float_of_int rs.Dipper.recovery_metadata_ns /. 1e6);
      ("core.recovery_replay_ms", float_of_int rs.Dipper.recovery_replay_ns /. 1e6);
      ("core.recovery_replayed_records", float_of_int rs.Dipper.recovery_replayed_records);
    ]
  in
  let errors =
    if bad > 0 then
      [ Printf.sprintf "%d keys lost their last acknowledged value after recovery" bad ]
    else []
  in
  finish ~t ~completed:(t.Loops.attempted - t.Loops.failed) ~window_ns ~setup_s ~m0 ~w
    ~layers ~errors

(* --- read_cached --- *)

let cached_scale = { Systems.default_scale with Systems.objects = 10_000; cache_mb = 16 }

let closed_clients = 28

(* YCSB-B with a 16 MB cache over a 40 MB dataset: hits, fills, CLOCK
   eviction and zero-copy views, with log and fences nearly idle. *)
let read_cached ~seed ~window_ns ~traced =
  let rng = Rng.create seed in
  let records = cached_scale.Systems.objects and vb = cached_scale.Systems.value_bytes in
  let sim, _, (st, pm, ssd, _), setup_s =
    setup ~records
      ~obs:(fun (st, _, _, _) -> dstore_obs st)
      (fun p -> Systems.dstore_store p cached_scale)
      (fill_dstore ~value:(Bytes.make vb 'l'))
  in
  let h = arm ~traced (dstore_obs st) in
  let s0 = snap st [ pm ] [ ssd ] in
  let absent = ref 0 in
  let m0 = mark () in
  let r =
    Loops.closed_loop sim ?spans:h ~rng ~clients:closed_clients ~think_ns:0 ~window_ns
      ~drain_ns (fun _ r ->
        let ctx = Dstore.ds_init st in
        let g = Ycsb.gen (Ycsb.b ~records ()) r in
        let scratch = Bytes.create vb and v = Bytes.make vb 'b' in
        fun () ->
          match Ycsb.next g with
          | Ycsb.Read k -> (
              match Dstore.oget_view ctx k scratch with
              | Some _ -> Loops.Read
              | None ->
                  incr absent;
                  Loops.Fail)
          | Ycsb.Update k ->
              Dstore.oput ctx k v;
              Loops.Write)
  in
  let t = r.Loops.c in
  let w =
    close ~store:st ~pms:[ pm ] ~ssds:[ ssd ] ~s0 ~h ~t ~window_ns
      ~user_bytes:(Samples.count t.Loops.writes * vb)
  in
  let layers = [ ("workload.drain_ms", float_of_int r.Loops.c_drain_ns /. 1e6) ] in
  let errors =
    if !absent > 0 then [ Printf.sprintf "%d reads returned absent" !absent ] else []
  in
  finish ~t ~completed:(t.Loops.attempted - t.Loops.failed) ~window_ns ~setup_s ~m0 ~w
    ~layers ~errors

(* --- repl_ack_all --- *)

let repl_scale = { Systems.default_scale with Systems.objects = 1_000 }

let repl_link_ns = 50_000

let gauge obs name = Option.value ~default:0 (Metrics.value obs.Obs.metrics name)

(* Every acknowledgement crosses ship -> link -> backup group-commit
   apply -> ack: 100% puts, one backup, Ack_all, a 50 us one-way link. *)
let repl_ack_all ~seed ~window_ns ~traced =
  let rng = Rng.create seed in
  let records = repl_scale.Systems.objects and vb = repl_scale.Systems.value_bytes in
  let backup_obs g =
    List.map (fun (_, b) -> Dstore.obs (Backup.store b)) (Group.backups g)
  in
  let sim, _, (sys, g), setup_s =
    setup ~records
      ~obs:(fun (_, g) -> Group.obs g :: backup_obs g)
      (fun p ->
        Systems.replicated ~backups:1 ~mode:Dstore_repl.Repl.Ack_all
          ~link_latency_ns:repl_link_ns p repl_scale)
      (fun (_, g) () ->
        let ctx = Group.ds_init g in
        let v = Bytes.make vb 'l' in
        fun i -> Group.oput ctx (Ycsb.key i) v)
  in
  let pst = Group.store g in
  let bst = match Group.backups g with (_, b) :: _ -> Backup.store b | [] -> assert false in
  let h = arm ~traced (Group.obs g :: backup_obs g) in
  let pms = sys.Kv_intf.pms and ssds = sys.Kv_intf.ssds in
  let s0 = snap pst pms ssds in
  let pobs = Group.obs g and bobs = Dstore.obs bst in
  let repl0 = List.map (gauge pobs) [ "repl.ships"; "repl.ship_msgs"; "repl.ship_bytes" ] in
  let apply0 = List.map (gauge bobs) [ "repl.apply_batches"; "repl.apply_entries" ] in
  let m0 = mark () in
  let r =
    Loops.closed_loop sim ?spans:h ~rng ~clients:closed_clients ~think_ns:0 ~window_ns
      ~drain_ns (fun _ r ->
        let ctx = Group.ds_init g in
        let gen = Ycsb.gen (Ycsb.write_only ~records ()) r in
        let v = Bytes.make vb 'r' in
        fun () ->
          let k = match Ycsb.next gen with Ycsb.Read k | Ycsb.Update k -> k in
          Group.oput ctx k v;
          Loops.Write)
  in
  let t = r.Loops.c in
  let ops = t.Loops.attempted in
  let w = close ~store:pst ~pms ~ssds ~s0 ~h ~t ~window_ns ~user_bytes:(ops * vb) in
  let repl1 = List.map (gauge pobs) [ "repl.ships"; "repl.ship_msgs"; "repl.ship_bytes" ] in
  let apply1 = List.map (gauge bobs) [ "repl.apply_batches"; "repl.apply_entries" ] in
  (* Agreement check once every shipped entry is acknowledged. *)
  let mismatches, acked_ok =
    fiber sim "agreement check" (fun () ->
        Group.quiesce g;
        let pc = Dstore.ds_init pst and bc = Dstore.ds_init bst in
        let buf = Bytes.create vb in
        let bad = ref 0 in
        if Dstore.object_count pst <> Dstore.object_count bst then incr bad;
        for i = 0 to records - 1 do
          let k = Ycsb.key i in
          if Dstore.oget_into pc k buf <> Dstore.oget_into bc k buf then incr bad
        done;
        let s = Group.status g in
        let acked_ok =
          List.for_all (fun l -> l.Group.acked = s.Group.rseq) s.Group.lines
          && s.Group.lines <> []
        in
        (!bad, acked_ok))
  in
  let lag_max = gauge pobs "repl.lag_max" in
  let apply_queue_ns =
    Span.cause_ns bobs.Obs.spans (Span.cause_index Span.Repl_apply)
  in
  let d l0 l1 i = List.nth l1 i - List.nth l0 i in
  let layers =
    [
      ("workload.drain_ms", float_of_int r.Loops.c_drain_ns /. 1e6);
      ("repl.ship_fill", ratio (d repl0 repl1 0) (d repl0 repl1 1));
      ("repl.msgs", ratio (d repl0 repl1 1) ops);
      ("repl.ship_bytes", ratio (d repl0 repl1 2) ops);
      ("repl.lag_max", float_of_int lag_max);
      ("repl.apply_fill", ratio (d apply0 apply1 1) (d apply0 apply1 0));
      ( "repl.apply_queue_ns",
        match h with Some h -> ratio apply_queue_ns h.Loops.ops | None -> 0.0 );
    ]
  in
  let errors =
    (if mismatches > 0 then
       [ Printf.sprintf "%d objects differ between primary and backup" mismatches ]
     else [])
    @ if not acked_ok then [ "acknowledged watermark differs from rseq" ] else []
  in
  finish ~t ~completed:(ops - t.Loops.failed) ~window_ns ~setup_s ~m0 ~w ~layers ~errors

(* --- txn_rmw --- *)

let txn_scale =
  {
    Systems.default_scale with
    Systems.objects = 2_000;
    value_bytes = 64;
    retain_data = true;
    ssd_pages = 8 * 1024;
    cache_mb = 1;
  }

let txn_keys = 4

(* Retry until commit: at theta 0.99 the default 8 retries (and even 64)
   refuse a few percent of transactions, and the benchmark counts a
   refusal as a failed op. Aborts and backoff still show up as retry work
   and as latency. *)
let txn_retries = 1_000

(* 4-key read-modify-write OCC transactions, each incrementing an 8-byte
   counter in every member's 64 B value. The 128 KB dataset sits in a
   1 MB cache, so a transaction's reads are short and its conflict window
   is mostly validation and commit. *)
let txn_rmw ~seed ~window_ns ~traced =
  let rng = Rng.create seed in
  let records = txn_scale.Systems.objects and vb = txn_scale.Systems.value_bytes in
  let sim, _, (st, pm, ssd, _), setup_s =
    setup ~records
      ~obs:(fun (st, _, _, _) -> dstore_obs st)
      (fun p -> Systems.dstore_store p txn_scale)
      (fill_dstore ~value:(Bytes.make vb '\000'))
  in
  let h = arm ~traced (dstore_obs st) in
  let s0 = snap st [ pm ] [ ssd ] in
  let committed = ref 0 and missing = ref 0 in
  let m0 = mark () in
  let r =
    Loops.closed_loop sim ?spans:h ~rng ~clients:closed_clients ~think_ns:0 ~window_ns
      ~drain_ns (fun _ r ->
        let ctx = Dstore.ds_init st in
        let z = Zipf.create ~theta:0.99 records in
        fun () ->
          let keys = ref [] in
          while List.length !keys < txn_keys do
            let k = Ycsb.key (Zipf.draw_scrambled z r) in
            if not (List.mem k !keys) then keys := k :: !keys
          done;
          let res =
            Dstore_txn.txn ~retries:txn_retries ctx (fun tx ->
                List.iter
                  (fun k ->
                    match Dstore_txn.get tx k with
                    | Some v ->
                        let v = Bytes.copy v in
                        Bytes.set_int64_le v 0 (Int64.succ (Bytes.get_int64_le v 0));
                        Dstore_txn.put tx k v
                    | None -> incr missing)
                  !keys)
          in
          match res with
          | Ok () ->
              incr committed;
              Loops.Write
          | Error _ -> Loops.Fail)
  in
  let t = r.Loops.c in
  let w =
    close ~store:st ~pms:[ pm ] ~ssds:[ ssd ] ~s0 ~h ~t ~window_ns
      ~user_bytes:(!committed * txn_keys * vb)
  in
  let total =
    fiber sim "counter sum" (fun () ->
        let ctx = Dstore.ds_init st in
        let sum = ref 0 in
        for i = 0 to records - 1 do
          match Dstore.oget ctx (Ycsb.key i) with
          | Some v -> sum := !sum + Int64.to_int (Bytes.get_int64_le v 0)
          | None -> incr missing
        done;
        !sum)
  in
  let dip f = f w.s1.dip - f s0.dip in
  let c = dip (fun s -> s.Dipper.txns_committed) in
  let a = dip (fun s -> s.Dipper.txns_aborted) in
  let layers =
    [
      ("workload.drain_ms", float_of_int r.Loops.c_drain_ns /. 1e6);
      ("txn.abort_ratio", ratio a (c + a));
      ("txn.attempts_per_commit", ratio (c + a) c);
      ("txn.members_per_commit", ratio (dip (fun s -> s.Dipper.txn_member_records)) c);
    ]
  in
  let errors =
    (if !missing > 0 then [ Printf.sprintf "%d counter objects missing" !missing ] else [])
    @
    if total <> txn_keys * !committed then
      [
        Printf.sprintf "counters sum to %d, expected %d x %d committed" total txn_keys
          !committed;
      ]
    else []
  in
  finish ~t ~completed:!committed ~window_ns ~setup_s ~m0 ~w ~layers ~errors

(* --- the table --- *)

(* Each run is a few repetitions whose windows add up to [ns_per_s] of
   virtual time per second of --seconds: about one host CPU second each
   on one core of a 2-core x86-64 container. *)
type workload = {
  name : string;
  ns_per_s : int;
  run : seed:int -> window_ns:int -> traced:bool -> rep;
}

let all =
  [
    { name = "ycsb_a_open"; ns_per_s = 150_000_000; run = ycsb_a_open };
    { name = "write_hot"; ns_per_s = 130_000_000; run = write_hot };
    { name = "read_cached"; ns_per_s = 40_000_000; run = read_cached };
    { name = "repl_ack_all"; ns_per_s = 150_000_000; run = repl_ack_all };
    { name = "txn_rmw"; ns_per_s = 150_000_000; run = txn_rmw };
  ]
