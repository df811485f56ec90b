(* Integration tests for DStore over DIPPER: the Table 2 API, the write
   pipeline, checkpoints, concurrency control, and crash recovery. The
   crash-recovery property tests are the heart of the reproduction: after
   any crash (including mid-checkpoint, with adversarial cache-line loss),
   every acknowledged operation must be observable and the store must be
   observationally equivalent to a sequential model. *)

open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_core
open Dstore_util

let check = Alcotest.check

let small_cfg =
  {
    Config.default with
    log_slots = 512;
    space_bytes = 4 * 1024 * 1024;
    meta_entries = 1024;
    ssd_blocks = 4096;
    checkpoint_workers = 2;
  }

type fixture = {
  sim : Sim.t;
  p : Platform.t;
  pm : Pmem.t;
  ssd : Ssd.t;
  cfg : Config.t;
}

let fixture ?(cfg = small_cfg) ?(crash_model = true) () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let pm =
    Pmem.create p
      { Pmem.default_config with size = Dipper.layout_bytes cfg; crash_model }
  in
  let ssd = Ssd.create p { Ssd.default_config with pages = cfg.Config.ssd_blocks } in
  { sim; p; pm; ssd; cfg }

(* Run [f store ctx] in a fresh store inside a sim process. *)
let with_store ?cfg ?crash_model f =
  let fx = fixture ?cfg ?crash_model () in
  let result = ref None in
  Sim.spawn fx.sim "test" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      result := Some (f fx st ctx);
      Dstore.ds_finalize ctx;
      Dstore.stop st);
  Sim.run fx.sim;
  Option.get !result

let value_of_string s = Bytes.of_string s

(* Wait inside a with_store test body (which runs in process context). *)
let t_sleep fx ns = Sim.wait fx.sim ns

let big_value seed size =
  let r = Rng.create seed in
  Rng.bytes r size

(* --- basic API ----------------------------------------------------------- *)

let test_put_get () =
  with_store (fun _ _ ctx ->
      Dstore.oput ctx "hello" (value_of_string "world");
      match Dstore.oget ctx "hello" with
      | Some v -> check Alcotest.string "value" "world" (Bytes.to_string v)
      | None -> Alcotest.fail "missing")

let test_get_missing () =
  with_store (fun _ _ ctx ->
      Alcotest.(check bool) "none" true (Dstore.oget ctx "ghost" = None);
      check Alcotest.int "oget_into -1" (-1)
        (Dstore.oget_into ctx "ghost" (Bytes.create 16)))

(* A read into a buffer shorter than the object raises Invalid_argument
   only after leaving the key's reader window: the next put of the key
   completes instead of waiting forever for a reader that is gone. *)
let test_short_buffer_frees_key () =
  let run name ~cache_bytes read =
    let fx = fixture ~cfg:{ small_cfg with Config.cache_bytes } () in
    let raised = ref false and hits = ref 0 and put_done = ref false in
    Sim.spawn fx.sim "test" (fun () ->
        let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
        let ctx = Dstore.ds_init st in
        Dstore.oput ctx "k" (Bytes.make 100 'a');
        ignore (Dstore.oget ctx "k");
        let hits_of () =
          match Dstore.cache_stats st with
          | Some s -> s.Dstore_cache.Cache.hits
          | None -> 0
        in
        let before = hits_of () in
        (try ignore (read ctx "k" (Bytes.create 10))
         with Invalid_argument _ -> raised := true);
        hits := hits_of () - before;
        Dstore.oput ctx "k" (Bytes.make 100 'b');
        put_done := true);
    Sim.run_until fx.sim 50_000_000;
    check Alcotest.bool (name ^ ": raises Invalid_argument") true !raised;
    check Alcotest.int (name ^ ": cache hits") (if cache_bytes > 0 then 1 else 0)
      !hits;
    check Alcotest.bool (name ^ ": next put completes") true !put_done
  in
  run "oget_into hit" ~cache_bytes:(1 lsl 20) Dstore.oget_into;
  run "oget_into miss" ~cache_bytes:0 Dstore.oget_into;
  run "oget_view miss" ~cache_bytes:0 (fun ctx k b ->
      Option.fold ~none:(-1) ~some:snd (Dstore.oget_view ctx k b))

(* A read that raises still closes its own span: an [oread] of an object
   deleted after [oopen] raises [Object_not_found], and a reservation
   holder's [oget] of a key behind another context's NOOP raises
   [Would_wait]. Each raise finishes one span, and the next put of the
   key completes. *)
let test_read_raise_finishes_span () =
  let fx = fixture () in
  let log = ref [] in
  let note s = log := s :: !log in
  Sim.spawn fx.sim "test" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let rc = (Dstore.obs st).Dstore_obs.Obs.spans in
      let ctx = Dstore.ds_init st in
      let finished () = Dstore_obs.Span.finished rc in
      Dstore.oput ctx "f" (Bytes.make 100 'a');
      let o = Dstore.oopen ctx "f" Dstore.Rd in
      ignore (Dstore.odelete ctx "f");
      let f0 = finished () in
      (match Dstore.oread o (Bytes.create 100) ~size:100 ~off:0 with
      | _ -> note "oread: no raise"
      | exception Dstore.Object_not_found _ -> note (Printf.sprintf "oread: %d span" (finished () - f0)));
      Dstore.oput ctx "f" (Bytes.make 100 'b');
      note "put f done";
      let holder = Dstore.ds_init st and locker = Dstore.ds_init st in
      Dstore.reserve holder [ "x" ];
      Dstore.olock locker "y";
      let f0 = finished () in
      (match Dstore.oget holder "y" with
      | _ -> note "oget: no raise"
      | exception Dstore.Would_wait _ -> note (Printf.sprintf "oget: %d span" (finished () - f0)));
      Dstore.release holder;
      Dstore.ounlock locker "y";
      Dstore.oput ctx "y" (Bytes.make 100 'c');
      note "put y done");
  Sim.run_until fx.sim 50_000_000;
  check
    Alcotest.(list string)
    "each raise finishes one span; later puts complete"
    [ "oread: 1 span"; "put f done"; "oget: 1 span"; "put y done" ]
    (List.rev !log)

let test_put_overwrite () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "k" (value_of_string "v1");
      Dstore.oput ctx "k" (value_of_string "second-version");
      (match Dstore.oget ctx "k" with
      | Some v -> check Alcotest.string "latest" "second-version" (Bytes.to_string v)
      | None -> Alcotest.fail "missing");
      check Alcotest.int "one object" 1 (Dstore.object_count st))

let test_put_4k_roundtrip () =
  with_store (fun _ _ ctx ->
      let v = big_value 1 4096 in
      Dstore.oput ctx "user1" v;
      match Dstore.oget ctx "user1" with
      | Some got -> check Alcotest.bytes "4KB integrity" v got
      | None -> Alcotest.fail "missing")

let test_put_multiblock () =
  with_store (fun _ _ ctx ->
      let v = big_value 2 (16 * 1024) in
      Dstore.oput ctx "big" v;
      match Dstore.oget ctx "big" with
      | Some got -> check Alcotest.bytes "16KB integrity" v got
      | None -> Alcotest.fail "missing")

let test_put_odd_size () =
  with_store (fun _ _ ctx ->
      let v = big_value 3 5000 in
      Dstore.oput ctx "odd" v;
      match Dstore.oget ctx "odd" with
      | Some got ->
          check Alcotest.int "size preserved" 5000 (Bytes.length got);
          check Alcotest.bytes "integrity" v got
      | None -> Alcotest.fail "missing")

let test_empty_value () =
  with_store (fun _ _ ctx ->
      Dstore.oput ctx "empty" Bytes.empty;
      match Dstore.oget ctx "empty" with
      | Some v -> check Alcotest.int "zero bytes" 0 (Bytes.length v)
      | None -> Alcotest.fail "missing")

let test_delete () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "d" (value_of_string "x");
      Alcotest.(check bool) "deleted" true (Dstore.odelete ctx "d");
      Alcotest.(check bool) "gone" false (Dstore.oexists ctx "d");
      Alcotest.(check bool) "double delete" false (Dstore.odelete ctx "d");
      check Alcotest.int "count" 0 (Dstore.object_count st))

let test_delete_frees_blocks () =
  with_store (fun _ st ctx ->
      let before = (Dstore.footprint st).Dstore.ssd in
      Dstore.oput ctx "tmp" (big_value 4 8192);
      Alcotest.(check bool) "blocks allocated" true
        ((Dstore.footprint st).Dstore.ssd > before);
      ignore (Dstore.odelete ctx "tmp");
      check Alcotest.int "blocks released" before (Dstore.footprint st).Dstore.ssd)

let test_overwrite_releases_old_blocks () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "k" (big_value 5 8192);
      let after_first = (Dstore.footprint st).Dstore.ssd in
      for i = 0 to 9 do
        Dstore.oput ctx "k" (big_value i 8192)
      done;
      check Alcotest.int "footprint stable under overwrites" after_first
        (Dstore.footprint st).Dstore.ssd)

let test_many_objects () =
  with_store (fun _ st ctx ->
      for i = 0 to 499 do
        Dstore.oput ctx (Printf.sprintf "obj%04d" i) (value_of_string (string_of_int i))
      done;
      check Alcotest.int "count" 500 (Dstore.object_count st);
      for i = 0 to 499 do
        match Dstore.oget ctx (Printf.sprintf "obj%04d" i) with
        | Some v -> check Alcotest.string "value" (string_of_int i) (Bytes.to_string v)
        | None -> Alcotest.failf "obj%04d missing" i
      done)

let test_olist_prefix () =
  with_store (fun _ _ ctx ->
      List.iter
        (fun k -> Dstore.oput ctx k (value_of_string "x"))
        [ "dir/a"; "dir/b"; "dir2/c"; "zzz" ];
      Alcotest.(check (list string)) "prefix" [ "dir/a"; "dir/b" ]
        (Dstore.olist ctx ~prefix:"dir/");
      Alcotest.(check (list string)) "all" [ "dir/a"; "dir/b"; "dir2/c"; "zzz" ]
        (Dstore.olist ctx ~prefix:"");
      Alcotest.(check (list string)) "none" [] (Dstore.olist ctx ~prefix:"nope"))

let test_iter_names_sorted () =
  with_store (fun _ st ctx ->
      List.iter
        (fun k -> Dstore.oput ctx k (value_of_string k))
        [ "zeta"; "alpha"; "mu" ];
      let names = ref [] in
      Dstore.iter_names st (fun n -> names := n :: !names);
      check Alcotest.(list string) "sorted" [ "alpha"; "mu"; "zeta" ]
        (List.rev !names))

(* --- filesystem API -------------------------------------------------------- *)

let test_open_write_read () =
  with_store (fun _ _ ctx ->
      let o = Dstore.oopen ctx "file" Dstore.Rdwr in
      let payload = value_of_string "file contents here" in
      check Alcotest.int "written"
        (Bytes.length payload)
        (Dstore.owrite o payload ~size:(Bytes.length payload) ~off:0);
      check Alcotest.int "size" (Bytes.length payload) (Dstore.osize o);
      let buf = Bytes.create 64 in
      let n = Dstore.oread o buf ~size:64 ~off:0 in
      check Alcotest.int "read bytes" (Bytes.length payload) n;
      check Alcotest.string "content" "file contents here"
        (Bytes.sub_string buf 0 n);
      Dstore.oclose o)

let test_open_no_create () =
  with_store (fun _ _ ctx ->
      Alcotest.check_raises "not found" (Dstore.Object_not_found "nofile")
        (fun () -> ignore (Dstore.oopen ctx "nofile" ~create:false Dstore.Rd)))

let test_owrite_extend () =
  with_store (fun _ _ ctx ->
      let o = Dstore.oopen ctx "grow" Dstore.Rdwr in
      ignore (Dstore.owrite o (value_of_string "aaaa") ~size:4 ~off:0);
      ignore (Dstore.owrite o (value_of_string "bbbb") ~size:4 ~off:6000);
      check Alcotest.int "extended size" 6004 (Dstore.osize o);
      let buf = Bytes.create 4 in
      ignore (Dstore.oread o buf ~size:4 ~off:6000);
      check Alcotest.string "tail" "bbbb" (Bytes.to_string buf);
      ignore (Dstore.oread o buf ~size:4 ~off:0;);
      check Alcotest.string "head intact" "aaaa" (Bytes.to_string buf);
      Dstore.oclose o)

let test_owrite_inplace_no_log () =
  with_store (fun _ st ctx ->
      let o = Dstore.oopen ctx "ip" Dstore.Rdwr in
      ignore (Dstore.owrite o (big_value 6 4096) ~size:4096 ~off:0);
      let appended = (Dipper.stats (Dstore.engine st)).Dipper.records_appended in
      (* An in-place overwrite logs a NOOP for conflict serialization but
         no metadata; the record count still rises by one per op. The
         metadata-free property is observable through the op type: size
         and extents must be unchanged afterwards. *)
      ignore (Dstore.owrite o (big_value 7 4096) ~size:4096 ~off:0);
      check Alcotest.int "size unchanged" 4096 (Dstore.osize o);
      Alcotest.(check bool) "a record per op" true
        ((Dipper.stats (Dstore.engine st)).Dipper.records_appended = appended + 1);
      Dstore.oclose o)

let test_oread_past_end () =
  with_store (fun _ _ ctx ->
      let o = Dstore.oopen ctx "short" Dstore.Rdwr in
      ignore (Dstore.owrite o (value_of_string "xy") ~size:2 ~off:0);
      let buf = Bytes.create 8 in
      check Alcotest.int "clamped" 2 (Dstore.oread o buf ~size:8 ~off:0);
      check Alcotest.int "past end" 0 (Dstore.oread o buf ~size:8 ~off:10);
      Dstore.oclose o)

let test_oclose_rejects_use () =
  with_store (fun _ _ ctx ->
      let o = Dstore.oopen ctx "c" Dstore.Rdwr in
      Dstore.oclose o;
      Alcotest.check_raises "closed"
        (Invalid_argument "DStore: operation on closed object") (fun () ->
          ignore (Dstore.osize o)))

let test_olock_ounlock () =
  with_store (fun _ _ ctx ->
      Dstore.olock ctx "dir";
      Dstore.ounlock ctx "dir";
      Alcotest.check_raises "double unlock"
        (Invalid_argument "DStore.ounlock: \"dir\" is not locked") (fun () ->
          Dstore.ounlock ctx "dir"))

let test_olock_blocks_writer () =
  let fx = fixture () in
  let order = ref [] in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx1 = Dstore.ds_init st in
      Dstore.olock ctx1 "obj";
      Sim.spawn fx.sim "writer" (fun () ->
          let ctx2 = Dstore.ds_init st in
          Dstore.oput ctx2 "obj" (value_of_string "w");
          order := ("write-done", Sim.now fx.sim) :: !order);
      Sim.wait fx.sim 100_000;
      order := ("unlock", Sim.now fx.sim) :: !order;
      Dstore.ounlock ctx1 "obj";
      Sim.wait fx.sim 100_000;
      Dstore.stop st);
  Sim.run fx.sim;
  match List.rev !order with
  | [ ("unlock", t1); ("write-done", t2) ] ->
      Alcotest.(check bool) "writer blocked until unlock" true (t2 > t1)
  | other ->
      Alcotest.failf "unexpected order: %s"
        (String.concat "," (List.map fst other))

(* --- waits end at the event that frees them -------------------------------- *)

(* Latency of an uncontended 4 KB overwrite of an existing key: the bound
   on a woken writer's completion, counted from the event that woke it. *)
let uncontended_put_ns fx ctx key =
  Dstore.oput ctx key (big_value 3 4096);
  let t0 = Sim.now fx.sim in
  Dstore.oput ctx key (big_value 4 4096);
  Sim.now fx.sim - t0

(* Whatever the phase of the freeing event against the writer's own
   clock (8 phases across one 25.6 us period), the writer completes a
   fixed time after the event, within an uncontended put: it resumed at
   the event, not at a later poll. [run offset] returns that delay and
   the uncontended latency. *)
let check_woken_at_event run =
  let runs = List.init 8 (fun i -> run ~offset:(i * 3_200)) in
  let lates = List.map fst runs and bound = snd (List.hd runs) in
  let show = String.concat " " (List.map string_of_int lates) in
  List.iter
    (fun late ->
      Alcotest.(check bool)
        (Printf.sprintf "done [%s] ns after the event, uncontended %d ns" show bound)
        true
        (late > 0 && late <= bound))
    lates;
  check Alcotest.int
    (Printf.sprintf "fixed delay from the event [%s]" show)
    (List.hd lates)
    (List.fold_left max 0 lates)

(* An olock holder releases at 80 us; a put on the key, started at
   1 us + [offset], waits on the holder's NOOP record. *)
let olock_run ~offset =
  let fx = fixture ~crash_model:false () in
  let release = ref 0 and done_ = ref 0 and bound = ref 0 in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      bound := uncontended_put_ns fx ctx "obj";
      let t0 = Sim.now fx.sim in
      Dstore.olock ctx "obj";
      Sim.spawn fx.sim "writer" (fun () ->
          Sim.wait fx.sim (1_000 + offset);
          Dstore.oput (Dstore.ds_init st) "obj" (big_value 5 4096);
          done_ := Sim.now fx.sim);
      Sim.wait fx.sim (t0 + 80_000 - Sim.now fx.sim);
      release := Sim.now fx.sim;
      Dstore.ounlock ctx "obj";
      Sim.wait fx.sim 1_000_000;
      Dstore.stop st);
  Sim.run fx.sim;
  (!done_ - !release, !bound)

(* A name whose read count shares [key]'s bucket: its readers hold
   [key]'s writers like readers of [key] itself (Readcount's false
   conflicts), but never conflict with [key]'s in-flight record. *)
let bucket_twin key =
  let rc = Dstore_structs.Readcount.create () in
  Dstore_structs.Readcount.enter_reader rc key;
  let rec find i =
    let k = Printf.sprintf "twin%d" i in
    if k <> key && Dstore_structs.Readcount.readers rc k = 1 then k else find (i + 1)
  in
  find 0

type reader_exit = Plain | Back_out | Short_buffer

(* A writer overwriting "huge" appends at 10 us + [offset] and parks
   draining a miss-path read of the 64-page object (~640 us on the SSD).
   [Plain]: that reader's exit frees it. Otherwise a process holds the
   frontend lock from 50 us to 1 ms + [offset], and a second reader
   enters the count at 60 us and queues on that lock, so the first exit
   wakes the writer into a count of one: [Back_out] reads "huge", finds
   the writer's record and backs out of [read_entry]; [Short_buffer]
   reads a bucket twin into a short buffer. Returns the writer's
   completion, counted from the exit that freed it, and the latency of
   an uncontended put. *)
let drain_run kind ~offset =
  let fx = fixture ~crash_model:false () in
  let exit_at = ref 0 and done_ = ref 0 and bound = ref 0 in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      let twin = bucket_twin "huge" in
      Dstore.oput ctx twin (big_value 6 4096);
      bound := uncontended_put_ns fx ctx "other";
      Dstore.oput ctx "huge" (big_value 1 (64 * 4096));
      let t0 = Sim.now fx.sim in
      let at us = Sim.wait fx.sim (t0 + (us * 1_000) - Sim.now fx.sim) in
      Sim.spawn fx.sim "slow-reader" (fun () ->
          ignore (Dstore.oget (Dstore.ds_init st) "huge");
          if kind = Plain then exit_at := Sim.now fx.sim);
      Sim.spawn fx.sim "writer" (fun () ->
          at 10;
          Sim.wait fx.sim offset;
          Dstore.oput (Dstore.ds_init st) "huge" (big_value 2 4096);
          done_ := Sim.now fx.sim);
      if kind <> Plain then begin
        Sim.spawn fx.sim "lock-holder" (fun () ->
            at 50;
            Dipper.with_frontend_lock (Dstore.engine st) (fun () ->
                at 1_000;
                Sim.wait fx.sim offset;
                if kind = Back_out then exit_at := Sim.now fx.sim));
        Sim.spawn fx.sim "second-reader" (fun () ->
            at 60;
            let rctx = Dstore.ds_init st in
            match kind with
            | Short_buffer -> (
                match Dstore.oget_into rctx twin (Bytes.create 16) with
                | _ -> Alcotest.fail "short buffer accepted"
                | exception Invalid_argument _ -> exit_at := Sim.now fx.sim)
            | _ -> ignore (Dstore.oget rctx "huge"))
      end;
      Sim.wait fx.sim Platform.ns_per_s;
      Dstore.stop st);
  Sim.run fx.sim;
  (!done_ - !exit_at, !bound)

(* 8 threads mixing puts and gets on 4 hot keys: every op completes, so
   no wakeup of a parked ticket or drain waiter was lost. [join] waits
   for the spawned threads. *)
let hot_mix p ~join =
  let finished = Atomic.make 0 in
  let st_ref = ref None in
  p.Platform.spawn "main" (fun () ->
      let pm =
        Pmem.create p
          { Pmem.default_config with size = Dipper.layout_bytes small_cfg; crash_model = false }
      in
      let ssd = Ssd.create p { Ssd.default_config with pages = small_cfg.Config.ssd_blocks } in
      let st = Dstore.create p pm ssd small_cfg in
      st_ref := Some st;
      for c = 0 to 7 do
        p.Platform.spawn "client" (fun () ->
            let ctx = Dstore.ds_init st in
            let r = Rng.create (100 + c) in
            for _ = 1 to 200 do
              let k = Printf.sprintf "hot%d" (Rng.int r 4) in
              if Rng.bool r then Dstore.oput ctx k (Rng.bytes r (1 + Rng.int r 64))
              else ignore (Dstore.oget ctx k)
            done;
            Atomic.incr finished)
      done);
  join finished;
  Dstore.stop (Option.get !st_ref);
  Atomic.get finished

let test_hot_mix_sim () =
  let sim = Sim.create () in
  let p = Sim_platform.make ~parallelism:8 sim in
  let n = hot_mix p ~join:(fun _ -> Sim.run sim) in
  check Alcotest.int "every client finished" 8 n;
  Sim.run sim;
  check Alcotest.int "nothing left blocked" 0 (Sim.blocked_processes sim)

let test_hot_mix_real () =
  let rp = Real_platform.create ~parallelism:2 () in
  let p = Real_platform.platform rp in
  let n =
    hot_mix p ~join:(fun finished ->
        (* A lost wakeup parks a client forever: fail after a deadline
           instead of hanging the suite. *)
        let deadline = Unix.gettimeofday () +. 60.0 in
        while Atomic.get finished < 8 && Unix.gettimeofday () < deadline do
          Thread.delay 0.01
        done;
        if Atomic.get finished < 8 then
          Alcotest.failf "%d of 8 clients finished within 60 s" (Atomic.get finished))
  in
  Real_platform.join_all rp;
  check Alcotest.int "every client finished" 8 n

(* A platform whose conds count re-parks: a waiter that waits again on a
   mutex its previous wait re-acquired, without unlocking it in between,
   was woken while its predicate was still false. *)
let counting_reparks p =
  let reparks = ref 0 and mutexes = ref [] in
  let new_mutex () =
    let inner = p.Platform.new_mutex () and rewoken = ref false in
    let m =
      {
        Platform.lock = inner.Platform.lock;
        unlock =
          (fun () ->
            rewoken := false;
            inner.Platform.unlock ());
      }
    in
    mutexes := (m, (inner, rewoken)) :: !mutexes;
    m
  in
  let new_cond () =
    let c = p.Platform.new_cond () in
    {
      c with
      Platform.wait =
        (fun m ->
          let inner, rewoken = List.assq m !mutexes in
          if !rewoken then incr reparks;
          c.Platform.wait inner;
          rewoken := true);
    }
  in
  ({ p with Platform.new_mutex; new_cond }, reparks)

(* 8 clients putting 4 hot keys: every conflict wait parks once, until
   the commit it waits on. A commit wakes only its own key's waiters, so
   no woken client finds its ticket still in flight and parks again. One
   checkpoint worker: a pool's join loop re-parks by design. *)
let test_hot_puts_no_reparks () =
  let cfg = { small_cfg with checkpoint_workers = 1 } in
  let sim = Sim.create () in
  let p, reparks = counting_reparks (Sim_platform.make ~parallelism:8 sim) in
  let waits = ref 0 in
  Sim.spawn sim "main" (fun () ->
      let pm =
        Pmem.create p
          { Pmem.default_config with size = Dipper.layout_bytes cfg; crash_model = false }
      in
      let ssd = Ssd.create p { Ssd.default_config with pages = cfg.Config.ssd_blocks } in
      let st = Dstore.create p pm ssd cfg in
      let finished = ref 0 in
      for c = 0 to 7 do
        Sim.spawn sim "client" (fun () ->
            let ctx = Dstore.ds_init st in
            let r = Rng.create (200 + c) in
            for _ = 1 to 100 do
              Dstore.oput ctx (Printf.sprintf "hot%d" (Rng.int r 4)) (Rng.bytes r 64)
            done;
            incr finished;
            if !finished = 8 then begin
              waits := (Dipper.stats (Dstore.engine st)).Dipper.conflict_waits;
              Dstore.stop st
            end)
      done);
  Sim.run sim;
  Alcotest.(check bool) (Printf.sprintf "clients waited (%d)" !waits) true (!waits > 0);
  check Alcotest.int "re-parks" 0 !reparks

(* --- checkpoints ----------------------------------------------------------- *)

let test_checkpoint_now () =
  with_store (fun _ st ctx ->
      for i = 0 to 49 do
        Dstore.oput ctx (Printf.sprintf "k%d" i) (value_of_string "v")
      done;
      Dstore.checkpoint_now st;
      let s = Dipper.stats (Dstore.engine st) in
      Alcotest.(check bool) "a checkpoint ran" true (s.Dipper.checkpoints >= 1);
      Alcotest.(check bool) "records replayed" true (s.Dipper.records_replayed >= 50);
      (* Store still fully functional. *)
      Dstore.oput ctx "after" (value_of_string "ckpt");
      Alcotest.(check bool) "works after" true (Dstore.oexists ctx "after"))

let test_checkpoint_automatic () =
  (* A small log must trigger checkpoints by itself under write load. *)
  let cfg = { small_cfg with log_slots = 64 } in
  with_store ~cfg (fun _ st ctx ->
      for i = 0 to 199 do
        Dstore.oput ctx (Printf.sprintf "k%d" (i mod 20)) (value_of_string "v")
      done;
      let s = Dipper.stats (Dstore.engine st) in
      Alcotest.(check bool) "checkpoints happened" true (s.Dipper.checkpoints >= 2);
      for i = 0 to 19 do
        Alcotest.(check bool) "data intact" true
          (Dstore.oexists ctx (Printf.sprintf "k%d" i))
      done)

let test_no_checkpoint_mode_log_full () =
  let cfg = { small_cfg with checkpoint = Config.No_checkpoint; log_slots = 8 } in
  with_store ~cfg (fun _ _ ctx ->
      Alcotest.(check bool) "raises Log_full" true
        (match
           for i = 0 to 99 do
             Dstore.oput ctx (Printf.sprintf "k%d" i) (value_of_string "v")
           done
         with
        | () -> false
        | exception Dipper.Log_full -> true))

let test_checkpoint_cow_mode () =
  let cfg = { small_cfg with checkpoint = Config.Cow; log_slots = 64 } in
  with_store ~cfg (fun _ st ctx ->
      for i = 0 to 199 do
        Dstore.oput ctx (Printf.sprintf "k%d" (i mod 20)) (big_value i 512)
      done;
      let s = Dipper.stats (Dstore.engine st) in
      Alcotest.(check bool) "cow checkpoints ran" true (s.Dipper.checkpoints >= 1);
      for i = 0 to 19 do
        Alcotest.(check bool) "data intact" true
          (Dstore.oexists ctx (Printf.sprintf "k%d" i))
      done)

(* Under CoW a B-tree split opens a window: [Btree.split_child] shrinks the
   full child before it inserts the parent's cell, and when the parent's
   page is still write-protected that insert yields in the CoW fault
   handler, so the keys that moved right are briefly unreachable. k000 ..
   k125 leave the root's right leaf full; a put of k126 splits it while a
   checkpoint's copier runs. A monitor walks the raw index each
   microsecond; in the window, where k125 is missing, three readers read
   k125 through the store. They wait on the structure guard and see it. *)
let test_cow_split_window_reads () =
  let cfg = { small_cfg with checkpoint = Config.Cow; cache_bytes = 0 } in
  let fx = fixture ~cfg ~crash_model:false () in
  let seen = ref (-1) and got = ref [] in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      let key i = Printf.sprintf "k%03d" i in
      for i = 0 to 125 do
        Dstore.oput ctx (key i) (Bytes.make 64 'v')
      done;
      let index = (Dstore.internals st).Dstore.i_btree in
      let writing = ref true in
      Sim.spawn fx.sim "writer" (fun () ->
          Dstore.oput (Dstore.ds_init st) (key 126) (Bytes.make 64 'w');
          writing := false);
      Sim.spawn fx.sim "checkpoint" (fun () ->
          Sim.wait fx.sim 1_000;
          Dstore.checkpoint_now st);
      let read name f =
        Sim.spawn fx.sim name (fun () ->
            let r = f (Dstore.ds_init st) in
            got := (name, r) :: !got)
      in
      while !writing do
        if !seen < 0 && Dstore_structs.Btree.find index (key 125) = None then begin
          seen := Sim.now fx.sim;
          read "oexists" (fun c -> Dstore.oexists c (key 125));
          read "oget" (fun c -> Dstore.oget c (key 125) <> None);
          read "oget_into" (fun c -> Dstore.oget_into c (key 125) (Bytes.create 64) = 64)
        end;
        Sim.wait fx.sim 1_000
      done;
      Sim.wait fx.sim 10_000_000;
      Dstore.stop st);
  Sim.run fx.sim;
  check Alcotest.bool "the split window opened" true (!seen >= 0);
  check
    Alcotest.(list (pair string bool))
    "every read in the window sees k125"
    [ ("oexists", true); ("oget", true); ("oget_into", true) ]
    (List.sort compare !got)

(* Under the default Delta clone mode, the first checkpoint of a process
   has no dirty epoch to consume and falls back to a full clone; the
   second consumes the first's replay dirt and copies a fraction of the
   used prefix, skipping the rest. *)
let test_delta_clone_first_full_then_delta () =
  with_store (fun _ st ctx ->
      for i = 0 to 49 do
        Dstore.oput ctx (Printf.sprintf "k%d" i) (big_value i 256)
      done;
      Dstore.checkpoint_now st;
      let s = Dipper.stats (Dstore.engine st) in
      Alcotest.(check int) "first clone is full" 1 s.Dipper.ckpt_full_clones;
      Alcotest.(check int) "no delta clone yet" 0 s.Dipper.ckpt_delta_clones;
      let full_bytes = s.Dipper.ckpt_bytes_cloned in
      Alcotest.(check bool) "full clone copied the used prefix" true
        (full_bytes > 0);
      for i = 0 to 9 do
        Dstore.oput ctx (Printf.sprintf "k%d" i) (big_value (1000 + i) 256)
      done;
      Dstore.checkpoint_now st;
      let s = Dipper.stats (Dstore.engine st) in
      Alcotest.(check int) "second clone is delta" 1 s.Dipper.ckpt_delta_clones;
      let delta_bytes = s.Dipper.ckpt_bytes_cloned - full_bytes in
      Alcotest.(check bool) "delta copied less than the full clone" true
        (delta_bytes < full_bytes);
      Alcotest.(check bool) "skipped bytes accounted" true
        (s.Dipper.ckpt_bytes_skipped > 0);
      Alcotest.(check bool) "phase timers populated" true
        (s.Dipper.ckpt_clone_ns > 0
        && s.Dipper.ckpt_persist_ns > 0
        && s.Dipper.ckpt_publish_ns > 0);
      Alcotest.(check bool) "phases within total" true
        (s.Dipper.ckpt_archive_ns + s.Dipper.ckpt_clone_ns
         + s.Dipper.ckpt_replay_ns + s.Dipper.ckpt_persist_ns
         + s.Dipper.ckpt_publish_ns
        <= s.Dipper.ckpt_total_ns);
      for i = 0 to 49 do
        Alcotest.(check bool) "data intact" true
          (Dstore.oexists ctx (Printf.sprintf "k%d" i))
      done)

(* The Full ablation setting never clones incrementally. *)
let test_full_clone_ablation_mode () =
  let cfg = { small_cfg with ckpt_clone = Config.Full } in
  with_store ~cfg (fun _ st ctx ->
      for i = 0 to 49 do
        Dstore.oput ctx (Printf.sprintf "k%d" i) (value_of_string "v")
      done;
      Dstore.checkpoint_now st;
      Dstore.oput ctx "more" (value_of_string "data");
      Dstore.checkpoint_now st;
      let s = Dipper.stats (Dstore.engine st) in
      Alcotest.(check int) "both clones full" 2 s.Dipper.ckpt_full_clones;
      Alcotest.(check int) "no delta clones" 0 s.Dipper.ckpt_delta_clones;
      Alcotest.(check int) "nothing skipped" 0 s.Dipper.ckpt_bytes_skipped)

let test_physical_logging_mode () =
  let cfg =
    { small_cfg with logging = Config.Physical; oe = false; log_slots = 2048 }
  in
  with_store ~cfg (fun _ st ctx ->
      for i = 0 to 49 do
        Dstore.oput ctx (Printf.sprintf "k%d" i) (value_of_string "phys")
      done;
      Dstore.checkpoint_now st;
      for i = 0 to 49 do
        Alcotest.(check bool) "intact" true
          (Dstore.oexists ctx (Printf.sprintf "k%d" i))
      done)

(* --- concurrency ------------------------------------------------------------ *)

let test_concurrent_distinct_keys () =
  let fx = fixture () in
  let done_count = ref 0 in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      for c = 0 to 9 do
        Sim.spawn fx.sim "client" (fun () ->
            let ctx = Dstore.ds_init st in
            for i = 0 to 19 do
              Dstore.oput ctx (Printf.sprintf "c%d-k%d" c i) (value_of_string "v")
            done;
            incr done_count)
      done;
      Sim.wait fx.sim Platform.ns_per_s;
      check Alcotest.int "all clients finished" 10 !done_count;
      check Alcotest.int "all objects" 200 (Dstore.object_count st);
      Dstore.stop st);
  Sim.run fx.sim

let test_concurrent_same_key_serialized () =
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let finished = ref [] in
      for c = 0 to 4 do
        Sim.spawn fx.sim "client" (fun () ->
            let ctx = Dstore.ds_init st in
            Dstore.oput ctx "hot" (value_of_string (Printf.sprintf "w%d" c));
            finished := c :: !finished)
      done;
      Sim.wait fx.sim Platform.ns_per_s;
      check Alcotest.int "all done" 5 (List.length !finished);
      let ctx = Dstore.ds_init st in
      (match Dstore.oget ctx "hot" with
      | Some v ->
          (* The surviving value is the last writer to commit. *)
          let winner = List.hd !finished in
          check Alcotest.string "last committer wins"
            (Printf.sprintf "w%d" winner)
            (Bytes.to_string v)
      | None -> Alcotest.fail "missing");
      let s = Dipper.stats (Dstore.engine st) in
      Alcotest.(check bool) "conflicts detected" true (s.Dipper.conflict_waits > 0);
      Dstore.stop st);
  Sim.run fx.sim

let test_readers_exclude_writer () =
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      Dstore.oput ctx "shared" (big_value 10 4096);
      let read_results = ref [] in
      for _ = 0 to 7 do
        Sim.spawn fx.sim "reader" (fun () ->
            let rctx = Dstore.ds_init st in
            match Dstore.oget rctx "shared" with
            | Some v -> read_results := Bytes.length v :: !read_results
            | None -> read_results := -1 :: !read_results)
      done;
      Sim.spawn fx.sim "writer" (fun () ->
          let wctx = Dstore.ds_init st in
          Dstore.oput wctx "shared" (big_value 11 8192));
      Sim.wait fx.sim Platform.ns_per_s;
      check Alcotest.int "all reads completed" 8 (List.length !read_results);
      List.iter
        (fun n ->
          Alcotest.(check bool) "read saw a complete version" true
            (n = 4096 || n = 8192))
        !read_results;
      Dstore.stop st);
  Sim.run fx.sim

(* Keep a put of "huge" in flight — appended, not committed — across a
   forced checkpoint: a miss-path read of the 64-block object (~640 us on
   the SSD) starts first, so the writer, whose one-page payload is staged
   before its append, then sits in [wait_readers] until the read drains.
   The checkpoint lands inside that window. *)
let race_inflight_put_with_checkpoint fx st =
  Dstore.oput (Dstore.ds_init st) "huge" (big_value 1 (64 * 4096));
  Sim.spawn fx.sim "slow-reader" (fun () ->
      ignore (Dstore.oget (Dstore.ds_init st) "huge"));
  Sim.spawn fx.sim "writer" (fun () ->
      Sim.wait fx.sim 10_000;
      Dstore.oput (Dstore.ds_init st) "huge" (big_value 2 4096));
  Sim.spawn fx.sim "ckpt" (fun () ->
      Sim.wait fx.sim 100_000;
      (* the writer is in wait_readers *)
      Dstore.checkpoint_now st);
  Sim.wait fx.sim Platform.ns_per_s;
  let s = Dipper.stats (Dstore.engine st) in
  Alcotest.(check bool) "a record was moved" true (s.Dipper.records_moved >= 1)

let test_swap_moves_inflight_records () =
  (* A record uncommitted at the moment of a log swap must be re-homed to
     the new active log and still commit correctly (§3.5's "moving any
     uncommitted log records"). *)
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 19 do
        Dstore.oput ctx (Printf.sprintf "w%d" i) (value_of_string "x")
      done;
      race_inflight_put_with_checkpoint fx st;
      (match Dstore.oget ctx "huge" with
      | Some v -> check Alcotest.bytes "huge rewritten" (big_value 2 4096) v
      | None -> Alcotest.fail "huge lost");
      Dstore.stop st);
  Sim.run fx.sim

(* The same window for a group and a single put: an obatch that rewrites
   "huge" and three small keys appends its four records as one group,
   and a put of [solo] appends one, each then sitting in [wait_readers]
   behind a slow read of its 64-block object. The checkpoint's log swap
   re-homes all five records. [acked] collects each key once its write
   returns; the result is the checkpoint's PMEM fence count. [solo]'s
   key is long enough that its record's second line holds key bytes, so
   a record re-homed without that line durable fails its CRC. *)
let group_keys = [ "g1"; "g2"; "g3" ]

let solo = "solo/" ^ String.make 60 's'

let swap_value key ~fresh =
  match (key, fresh) with
  | "huge", false -> big_value 1 (64 * 4096)
  | "huge", true -> big_value 2 4096
  | key, false when key = solo -> big_value 3 (64 * 4096)
  | key, true when key = solo -> big_value 4 4096
  | key, _ -> value_of_string (key ^ if fresh then "-new" else "-old")

let swap_keys = "huge" :: solo :: group_keys

let seed_swap_keys st =
  let ctx = Dstore.ds_init st in
  List.iter (fun k -> Dstore.oput ctx k (swap_value k ~fresh:false)) swap_keys

let race_inflight_group_with_checkpoint fx st acked =
  let fences () = (Pmem.stats fx.pm).Pmem.fence_calls in
  let ckpt_fences = ref 0 in
  List.iter
    (fun key ->
      Sim.spawn fx.sim "slow-reader" (fun () -> ignore (Dstore.oget (Dstore.ds_init st) key)))
    [ "huge"; solo ];
  Sim.spawn fx.sim "batch" (fun () ->
      Sim.wait fx.sim 10_000;
      let keys = "huge" :: group_keys in
      let ops = List.map (fun k -> Dstore.Bput (k, swap_value k ~fresh:true)) keys in
      ignore (Dstore.obatch (Dstore.ds_init st) ops);
      acked := keys @ !acked);
  Sim.spawn fx.sim "solo" (fun () ->
      Sim.wait fx.sim 10_000;
      Dstore.oput (Dstore.ds_init st) solo (swap_value solo ~fresh:true);
      acked := solo :: !acked);
  Sim.spawn fx.sim "ckpt" (fun () ->
      Sim.wait fx.sim 100_000;
      let f0 = fences () in
      Dstore.checkpoint_now st;
      ckpt_fences := fences () - f0);
  Sim.wait fx.sim Platform.ns_per_s;
  !ckpt_fences

(* A swap persists the records it re-homes as one group: two fences
   (one before the LSN stores, one after) for the five records, where
   one or two per record would cost at least five. The rest of the
   checkpoint costs what an idle one does. *)
let test_swap_persists_moved_group () =
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      seed_swap_keys st;
      let moved () = (Dipper.stats (Dstore.engine st)).Dipper.records_moved in
      let m0 = moved () and acked = ref [] in
      let busy = race_inflight_group_with_checkpoint fx st acked in
      check Alcotest.int "every write acknowledged" 5 (List.length !acked);
      check Alcotest.int "the five records were re-homed" 5 (moved () - m0);
      let f0 = (Pmem.stats fx.pm).Pmem.fence_calls in
      Dstore.checkpoint_now st;
      let idle = (Pmem.stats fx.pm).Pmem.fence_calls - f0 in
      check Alcotest.int "two fences re-home them" (idle + 2) busy;
      Dstore.stop st);
  Sim.run fx.sim

exception Crash of int

(* Crash at every persistence event from the writes' start to the end of
   the window, and once after it, with every unflushed line dropped and
   with a random subset kept. Recovery must find each key's old or new
   value (any subset of an unacknowledged group may survive), the new
   value of every acknowledged write, and exact pools. *)
let test_swap_group_crash_sweep () =
  let run ~crash_at =
    let fx = fixture () in
    let first = ref 0 and last = ref 0 and moved = ref 0 and acked = ref [] in
    Sim.spawn fx.sim "main" (fun () ->
        let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
        seed_swap_keys st;
        first := Pmem.persist_events fx.pm;
        Pmem.set_persist_hook fx.pm
          (Some (fun n -> if Some n = crash_at then raise (Crash n)));
        ignore (race_inflight_group_with_checkpoint fx st acked);
        Pmem.set_persist_hook fx.pm None;
        last := Pmem.persist_events fx.pm;
        moved := (Dipper.stats (Dstore.engine st)).Dipper.records_moved;
        Dstore.stop st);
    let crashed = match Sim.run fx.sim with () -> false | exception Crash _ -> true in
    (fx, !first, !last, !moved, !acked, crashed)
  in
  let _, first, last, moved, acked, _ = run ~crash_at:None in
  check Alcotest.int "clean run acknowledged every write" 5 (List.length acked);
  Alcotest.(check bool) "clean run re-homed the records" true (moved >= 5);
  let points = None :: List.init (last - first) (fun i -> Some (first + 1 + i)) in
  List.iter
    (fun crash_at ->
      List.iter
        (fun (mode_name, mode) ->
          let fx, _, _, _, acked, crashed = run ~crash_at in
          let at =
            match crash_at with
            | Some k -> Printf.sprintf "event %d, %s" k mode_name
            | None -> "after the window, " ^ mode_name
          in
          Alcotest.(check bool) (at ^ ": reached") (crash_at <> None) crashed;
          Pmem.crash fx.pm mode;
          Sim.clear_pending fx.sim;
          let p = Sim_platform.make fx.sim in
          Sim.spawn fx.sim "recover" (fun () ->
              let st = Dstore.recover p fx.pm fx.ssd fx.cfg in
              let ctx = Dstore.ds_init st in
              List.iter
                (fun key ->
                  let got = Dstore.oget ctx key in
                  let is fresh = got = Some (swap_value key ~fresh) in
                  let acked = List.mem key acked in
                  if not (is true || ((not acked) && is false)) then
                    Alcotest.failf "%s: %s recovered %s (acked %b)" at key
                      (match got with
                      | None -> "missing"
                      | Some v -> Printf.sprintf "%d bytes" (Bytes.length v))
                      acked)
                swap_keys;
              check Alcotest.(list string) (at ^ ": pools exact") [] (Dstore_check.Fsck.run st);
              Dstore.stop st);
          Sim.run fx.sim)
        [ ("drop all", Pmem.Drop_all); ("random", Pmem.Random (Rng.create (Option.value crash_at ~default:0))) ])
    points

let test_moved_record_survives_crash () =
  (* Same scenario, but crash after the commit: the re-homed record must
     be found by recovery. *)
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 9 do
        Dstore.oput ctx (Printf.sprintf "w%d" i) (value_of_string "x")
      done;
      race_inflight_put_with_checkpoint fx st;
      Dstore.stop st);
  Sim.run fx.sim;
  Pmem.crash fx.pm Pmem.Drop_all;
  Sim.clear_pending fx.sim;
  Sim.spawn fx.sim "recovery" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      (match Dstore.oget ctx "huge" with
      | Some v ->
          check Alcotest.bytes "moved+committed record recovered"
            (big_value 2 4096) v
      | None -> Alcotest.fail "huge lost after crash");
      Dstore.stop st);
  Sim.run fx.sim

let test_olock_holder_passthrough () =
  (* The olock holder can read and write the locked object (DESIGN.md
     deviation 7); another context still blocks. *)
  with_store (fun fx st ctx ->
      Dstore.oput ctx "obj" (value_of_string "v0");
      Dstore.olock ctx "obj";
      (* Holder operates freely under its own lock. *)
      Alcotest.(check bool) "holder reads" true (Dstore.oexists ctx "obj");
      Dstore.oput ctx "obj" (value_of_string "v1");
      (match Dstore.oget ctx "obj" with
      | Some v -> check Alcotest.string "holder wrote" "v1" (Bytes.to_string v)
      | None -> Alcotest.fail "missing");
      (* A second context's write waits for the unlock. *)
      let blocked_done = ref (-1) in
      Sim.spawn fx.sim "other" (fun () ->
          let ctx2 = Dstore.ds_init st in
          Dstore.oput ctx2 "obj" (value_of_string "v2");
          blocked_done := Sim.now fx.sim);
      t_sleep fx 200_000;
      let unlocked_at = Sim.now fx.sim in
      Dstore.ounlock ctx "obj";
      t_sleep fx Platform.ns_per_s;
      Alcotest.(check bool) "other waited for unlock" true
        (!blocked_done >= unlocked_at))

let test_cow_faults_counted () =
  let cfg = { small_cfg with checkpoint = Config.Cow; log_slots = 64 } in
  with_store ~cfg (fun _ st ctx ->
      for i = 0 to 199 do
        Dstore.oput ctx (Printf.sprintf "k%d" (i mod 40)) (value_of_string "v")
      done;
      let s = Dipper.stats (Dstore.engine st) in
      Alcotest.(check bool) "cow checkpoints ran" true (s.Dipper.checkpoints >= 1))

let test_physical_mode_crash_recovery () =
  let cfg =
    { small_cfg with logging = Config.Physical; oe = false; log_slots = 4096 }
  in
  let fx = fixture ~cfg () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 59 do
        Dstore.oput ctx (Printf.sprintf "p%d" i) (value_of_string (string_of_int i))
      done);
  Sim.run fx.sim;
  Pmem.crash fx.pm (Pmem.Random (Rng.create 7));
  Sim.clear_pending fx.sim;
  Sim.spawn fx.sim "recovery" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 59 do
        match Dstore.oget ctx (Printf.sprintf "p%d" i) with
        | Some v -> check Alcotest.string "physical redo" (string_of_int i) (Bytes.to_string v)
        | None -> Alcotest.failf "p%d lost (physical logging)" i
      done;
      Dstore.stop st);
  Sim.run fx.sim

(* Deletes and batches under physical logging: puts take the redo-image
   path, deletes the logical one, and a batch runs op by op without
   re-entering [odelete] — each delete books one [op.delete] sample. A
   checkpoint and a recovery both replay the mixed log, whose physical
   images carry pool bytes, so every acked op survives the crash. *)
let test_physical_mode_deletes_and_batches () =
  let cfg =
    { small_cfg with logging = Config.Physical; oe = false; log_slots = 4096 }
  in
  let fx = fixture ~cfg () in
  let key i = Printf.sprintf "p%d" i in
  let expect = Hashtbl.create 16 in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 11 do
        Dstore.oput ctx (key i) (value_of_string (string_of_int i));
        Hashtbl.replace expect (key i) (string_of_int i)
      done;
      check Alcotest.bool "odelete hit" true (Dstore.odelete ctx (key 0));
      check Alcotest.bool "odelete miss" false (Dstore.odelete ctx "ghost");
      (* The checkpoint replays physical puts and a logical delete. *)
      Dstore.checkpoint_now st;
      Dstore.oput_batch ctx [ (key 1, value_of_string "b1"); (key 20, value_of_string "b20") ];
      check (Alcotest.list Alcotest.bool) "odelete_batch" [ true; true; false ]
        (Dstore.odelete_batch ctx [ key 2; key 3; "ghost" ]);
      check (Alcotest.list Alcotest.bool) "mixed obatch" [ true; true ]
        (Dstore.obatch ctx [ Dstore.Bdelete (key 4); Dstore.Bput (key 5, value_of_string "b5") ]);
      List.iter (fun i -> Hashtbl.remove expect (key i)) [ 0; 2; 3; 4 ];
      List.iter (fun (k, v) -> Hashtbl.replace expect k v)
        [ (key 1, "b1"); (key 20, "b20"); (key 5, "b5") ];
      let m = (Dstore.obs st).Dstore_obs.Obs.metrics in
      check Alcotest.int "one op.delete sample per delete" 6
        (Histogram.count
           (Dstore_obs.Metrics.histo_data (Dstore_obs.Metrics.histogram m "op.delete"))));
  Sim.run fx.sim;
  Pmem.crash fx.pm (Pmem.Random (Rng.create 11));
  Sim.clear_pending fx.sim;
  Sim.spawn fx.sim "recovery" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      List.iter
        (fun k ->
          check
            (Alcotest.option Alcotest.string)
            k (Hashtbl.find_opt expect k)
            (Option.map Bytes.to_string (Dstore.oget ctx k)))
        ("ghost" :: key 20 :: List.init 12 key);
      Dstore.stop st);
  Sim.run fx.sim

(* --- recovery ----------------------------------------------------------------- *)

(* Clean-shutdown recovery: stop (no final checkpoint), recover, compare. *)
let test_recover_clean () =
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 99 do
        Dstore.oput ctx (Printf.sprintf "k%03d" i) (big_value i 1024)
      done;
      ignore (Dstore.odelete ctx "k050");
      Dstore.stop st;
      let st2 = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx2 = Dstore.ds_init st2 in
      check Alcotest.int "count" 99 (Dstore.object_count st2);
      for i = 0 to 99 do
        let key = Printf.sprintf "k%03d" i in
        if i = 50 then
          Alcotest.(check bool) "deleted stays deleted" false (Dstore.oexists ctx2 key)
        else
          match Dstore.oget ctx2 key with
          | Some v -> check Alcotest.bytes key (big_value i 1024) v
          | None -> Alcotest.failf "%s missing after recovery" key
      done;
      Dstore.stop st2);
  Sim.run fx.sim

let test_recover_after_checkpoint () =
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 49 do
        Dstore.oput ctx (Printf.sprintf "pre%d" i) (value_of_string "1")
      done;
      Dstore.checkpoint_now st;
      for i = 0 to 49 do
        Dstore.oput ctx (Printf.sprintf "post%d" i) (value_of_string "2")
      done;
      Dstore.stop st;
      let st2 = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx2 = Dstore.ds_init st2 in
      check Alcotest.int "both halves" 100 (Dstore.object_count st2);
      Alcotest.(check bool) "pre-checkpoint" true (Dstore.oexists ctx2 "pre7");
      Alcotest.(check bool) "post-checkpoint" true (Dstore.oexists ctx2 "post7");
      Dstore.stop st2);
  Sim.run fx.sim

let test_recover_crash_drop_all () =
  (* Hard crash losing every unflushed line: every completed put must
     survive. *)
  let fx = fixture () in
  let acked = ref [] in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 79 do
        Dstore.oput ctx (Printf.sprintf "k%d" i) (value_of_string (string_of_int i));
        acked := i :: !acked
      done);
  Sim.run fx.sim;
  Pmem.crash fx.pm Pmem.Drop_all;
  Sim.clear_pending fx.sim;
  Sim.spawn fx.sim "recovery" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      List.iter
        (fun i ->
          match Dstore.oget ctx (Printf.sprintf "k%d" i) with
          | Some v -> check Alcotest.string "value" (string_of_int i) (Bytes.to_string v)
          | None -> Alcotest.failf "acked k%d lost" i)
        !acked;
      Dstore.stop st);
  Sim.run fx.sim

let test_recover_crash_mid_checkpoint () =
  (* Stop the simulation mid-checkpoint (the paper's worst failure point),
     crash, and verify the redo path reconstructs everything acked. *)
  let cfg = { small_cfg with log_slots = 128 } in
  let fx = fixture ~cfg () in
  let acked = ref [] in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      (* Small log: checkpoints trigger repeatedly under this loop. *)
      for i = 0 to 299 do
        let key = Printf.sprintf "k%d" (i mod 60) in
        Dstore.oput ctx key (value_of_string (Printf.sprintf "v%d" i));
        acked := (key, Printf.sprintf "v%d" i) :: !acked
      done);
  (* Run just far enough that a checkpoint is in flight with high
     probability, then pull the plug. *)
  Sim.run_until fx.sim 2_000_000;
  Pmem.crash fx.pm (Pmem.Random (Rng.create 42));
  Sim.clear_pending fx.sim;
  (* Model: the last acked value per key. *)
  let module M = Map.Make (String) in
  let model =
    List.fold_left
      (fun m (k, v) -> if M.mem k m then m else M.add k v m)
      M.empty !acked
  in
  Sim.spawn fx.sim "recovery" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      M.iter
        (fun k v ->
          match Dstore.oget ctx k with
          | Some got -> check Alcotest.string k v (Bytes.to_string got)
          | None -> Alcotest.failf "acked %s lost" k)
        model;
      Dstore.stop st);
  Sim.run fx.sim

let test_owrite_crash_consistency () =
  (* Grow an object via owrite, crash, and verify the committed extension
     (size + new extents + data) survives. *)
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      let o = Dstore.oopen ctx "grown" Dstore.Rdwr in
      ignore (Dstore.owrite o (Bytes.make 4096 'A') ~size:4096 ~off:0);
      ignore (Dstore.owrite o (Bytes.make 4096 'B') ~size:4096 ~off:8192);
      Dstore.oclose o);
  Sim.run fx.sim;
  Pmem.crash fx.pm Pmem.Drop_all;
  Sim.clear_pending fx.sim;
  Sim.spawn fx.sim "recovery" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      let o = Dstore.oopen ctx "grown" ~create:false Dstore.Rd in
      check Alcotest.int "size recovered" 12288 (Dstore.osize o);
      let buf = Bytes.create 4096 in
      ignore (Dstore.oread o buf ~size:4096 ~off:8192);
      check Alcotest.bytes "tail data" (Bytes.make 4096 'B') buf;
      ignore (Dstore.oread o buf ~size:4096 ~off:0);
      check Alcotest.bytes "head data" (Bytes.make 4096 'A') buf;
      Dstore.oclose o;
      Dstore.stop st);
  Sim.run fx.sim

let test_recover_uninitialized_fails () =
  let fx = fixture () in
  Sim.spawn fx.sim "t" (fun () ->
      Alcotest.(check bool) "not initialized" false (Dstore.is_initialized fx.pm);
      Alcotest.check_raises "recover fails"
        (Invalid_argument "Root.attach: no initialized root object") (fun () ->
          ignore (Dstore.recover fx.p fx.pm fx.ssd fx.cfg)));
  Sim.run fx.sim

let test_double_recovery_idempotent () =
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 29 do
        Dstore.oput ctx (Printf.sprintf "k%d" i) (value_of_string "v")
      done;
      Dstore.stop st;
      (* Recover twice in a row (§3.6: idempotent recovery). *)
      let st1 = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      Dstore.stop st1;
      let st2 = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      check Alcotest.int "count stable" 30 (Dstore.object_count st2);
      let ctx2 = Dstore.ds_init st2 in
      Alcotest.(check bool) "readable" true (Dstore.oexists ctx2 "k7");
      (* And still writable. *)
      Dstore.oput ctx2 "new" (value_of_string "post-recovery");
      Dstore.stop st2);
  Sim.run fx.sim

(* The flagship property: random workload, crash at a random instant with
   adversarial line loss, recover, and require observational equivalence
   with the acked-operation model. *)
let prop_crash_recovery_observational_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"crash anywhere: acked ops survive recovery"
       ~count:25
       QCheck.(pair (int_range 0 1_000_000) (int_range 100_000 30_000_000))
       (fun (seed, crash_at) ->
         Seed_report.attempt ~test:"crash-recovery observational equivalence"
           ~seed
           ~repro:
             (Printf.sprintf
                "dune exec test/test_main.exe -- test dstore  # seed %d \
                 crash_at %d"
                seed crash_at)
         @@ fun () ->
         let cfg = { small_cfg with log_slots = 96 } in
         let fx = fixture ~cfg () in
         let module M = Map.Make (String) in
         let r = Rng.create seed in
         (* Model: last acked value per key, plus the in-flight operation
            of each client (which may or may not have committed when the
            plug is pulled). *)
         let acked : string option M.t ref = ref M.empty in
         let pending : (int, string * string option) Hashtbl.t =
           Hashtbl.create 8
         in
         let store = ref None in
         Sim.spawn fx.sim "setup" (fun () ->
             store := Some (Dstore.create fx.p fx.pm fx.ssd fx.cfg));
         Sim.run fx.sim;
         let st = Option.get !store in
         for c = 0 to 3 do
           let cr = Rng.split r in
           Sim.spawn fx.sim (Printf.sprintf "client%d" c) (fun () ->
               let ctx = Dstore.ds_init st in
               for i = 0 to 199 do
                 let key = Printf.sprintf "key%d" (Rng.int cr 24) in
                 if Rng.int cr 5 = 0 then begin
                   Hashtbl.replace pending c (key, None);
                   ignore (Dstore.odelete ctx key);
                   Hashtbl.remove pending c;
                   acked := M.add key None !acked
                 end
                 else begin
                   let v = Printf.sprintf "c%d-i%d" c i in
                   Hashtbl.replace pending c (key, Some v);
                   Dstore.oput ctx key (Bytes.of_string v);
                   Hashtbl.remove pending c;
                   acked := M.add key (Some v) !acked
                 end
               done)
         done;
         Sim.run_until fx.sim crash_at;
         Pmem.crash fx.pm (Pmem.Random (Rng.split r));
         Sim.clear_pending fx.sim;
         let in_flight_for key =
           Hashtbl.fold
             (fun _ (k, v) acc -> if k = key then v :: acc else acc)
             pending []
         in
         let ok = ref true in
         Sim.spawn fx.sim "recovery" (fun () ->
             let st2 = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
             let ctx = Dstore.ds_init st2 in
             let keys = List.init 24 (fun i -> Printf.sprintf "key%d" i) in
             List.iter
               (fun key ->
                 let got = Option.map Bytes.to_string (Dstore.oget ctx key) in
                 let last_acked =
                   match M.find_opt key !acked with Some v -> v | None -> None
                 in
                 let acceptable = last_acked :: in_flight_for key in
                 if not (List.mem got acceptable) then ok := false)
               keys;
             Dstore.stop st2);
         Sim.run fx.sim;
         !ok))

(* --- group commit (obatch) ----------------------------------------------- *)

let test_obatch_basic () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "pre" (value_of_string "old");
      let results =
        Dstore.obatch ctx
          [
            Dstore.Bput ("a", value_of_string "va");
            Dstore.Bput ("pre", value_of_string "new");
            Dstore.Bdelete "ghost";
            Dstore.Bput ("b", big_value 7 9000);
          ]
      in
      Alcotest.(check (list bool))
        "puts true, absent delete false" [ true; true; false; true ] results;
      (match Dstore.oget ctx "a" with
      | Some v -> check Alcotest.string "a" "va" (Bytes.to_string v)
      | None -> Alcotest.fail "a missing");
      (match Dstore.oget ctx "pre" with
      | Some v -> check Alcotest.string "pre overwritten" "new" (Bytes.to_string v)
      | None -> Alcotest.fail "pre missing");
      (match Dstore.oget ctx "b" with
      | Some v -> check Alcotest.bytes "b multiblock" (big_value 7 9000) v
      | None -> Alcotest.fail "b missing");
      let s = Dipper.stats (Dstore.engine st) in
      Alcotest.(check bool) "batches counted" true (s.Dipper.batches_committed >= 1);
      check Alcotest.int "records counted" 4 s.Dipper.batch_records;
      (* A delete of an existing key through the batch path. *)
      let r2 = Dstore.odelete_batch ctx [ "a"; "nope" ] in
      Alcotest.(check (list bool)) "delete results" [ true; false ] r2;
      Alcotest.(check bool) "a gone" false (Dstore.oexists ctx "a"))

let test_obatch_duplicate_keys () =
  (* Repeated keys split into ordered sub-batches, so the last effect per
     key wins — same observable result as issuing the ops one by one. *)
  with_store (fun _ _ ctx ->
      let results =
        Dstore.obatch ctx
          [
            Dstore.Bput ("dup", value_of_string "first");
            Dstore.Bput ("other", value_of_string "x");
            Dstore.Bput ("dup", value_of_string "second");
            Dstore.Bdelete "other";
            Dstore.Bput ("dup", value_of_string "third");
          ]
      in
      Alcotest.(check (list bool))
        "per-op results" [ true; true; true; true; true ] results;
      (match Dstore.oget ctx "dup" with
      | Some v -> check Alcotest.string "last write wins" "third" (Bytes.to_string v)
      | None -> Alcotest.fail "dup missing");
      Alcotest.(check bool) "other deleted" false (Dstore.oexists ctx "other"))

let test_obatch_locked_key () =
  (* A batch touching a key this context holds an advisory lock on must
     not deadlock against the caller's own lock ticket. *)
  with_store (fun _ _ ctx ->
      Dstore.olock ctx "mine";
      Dstore.oput_batch ctx
        [ ("mine", value_of_string "locked-write"); ("free", value_of_string "f") ];
      Dstore.ounlock ctx "mine";
      match Dstore.oget ctx "mine" with
      | Some v -> check Alcotest.string "locked key written" "locked-write" (Bytes.to_string v)
      | None -> Alcotest.fail "mine missing")

let fence_count_for ~batched n =
  with_store (fun fx _ ctx ->
      let st = Pmem.stats fx.pm in
      let f0 = st.Pmem.fence_calls in
      let v = big_value 9 64 in
      (if batched then
         Dstore.oput_batch ctx
           (List.init n (fun i -> (Printf.sprintf "k%d" i, v)))
       else
         for i = 0 to n - 1 do
           Dstore.oput ctx (Printf.sprintf "k%d" i) v
         done);
      st.Pmem.fence_calls - f0)

let test_obatch_fence_amortization () =
  (* 8 unbatched single-slot puts: 2 fences each (append + commit) = 16.
     One batch of 8: 2 append fences + 1 commit fence = 3. Anything the
     structures add is identical on both sides, so the 4x bound holds with
     slack. *)
  let unbatched = fence_count_for ~batched:false 8 in
  let batched = fence_count_for ~batched:true 8 in
  Alcotest.(check bool)
    (Printf.sprintf "batched fences %d <= 1/4 of unbatched %d" batched unbatched)
    true
    (batched * 4 <= unbatched)

let test_obatch_crash_all_committed () =
  (* Drop-all crash after an acknowledged batch: every member survives. *)
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      Dstore.oput ctx "victim" (value_of_string "old");
      Dstore.oput_batch ctx
        (List.init 6 (fun i ->
             (Printf.sprintf "g%d" i, value_of_string (string_of_int i))));
      ignore (Dstore.odelete_batch ctx [ "victim" ]));
  Sim.run fx.sim;
  Pmem.crash fx.pm Pmem.Drop_all;
  Sim.clear_pending fx.sim;
  Sim.spawn fx.sim "recovery" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 5 do
        match Dstore.oget ctx (Printf.sprintf "g%d" i) with
        | Some v -> check Alcotest.string "batch member" (string_of_int i) (Bytes.to_string v)
        | None -> Alcotest.failf "acked batch member g%d lost" i
      done;
      Alcotest.(check bool) "batched delete durable" false
        (Dstore.oexists ctx "victim");
      Dstore.stop st);
  Sim.run fx.sim

(* --- staged write pipeline ----------------------------------------------- *)

(* Staged allocation is all or nothing: [reject] must raise, leave both
   allocators exactly as it found them, and leave the store usable —
   [after] (a put on another key, by default) completes. *)
let check_rejected ?after st ctx reject =
  let i = Dstore.internals st in
  let blocks () = Dstore_structs.Bitpool.allocated i.Dstore.i_blockpool in
  let metas () = Dstore_structs.Bitpool.allocated i.Dstore.i_metapool in
  let b0 = blocks () and m0 = metas () in
  (match reject () with
  | () -> Alcotest.fail "expected the write to be rejected"
  | exception (Dstore.Out_of_blocks | Dipper.Log_full) -> ());
  check Alcotest.int "block pool unchanged" b0 (blocks ());
  check Alcotest.int "meta pool unchanged" m0 (metas ());
  (match after with
  | Some f -> f ()
  | None -> Dstore.oput ctx "after" (value_of_string "ok"));
  check Alcotest.bool "store still writable" true (Dstore.oexists ctx "after")

let test_put_out_of_blocks_all_or_nothing () =
  let cfg = { small_cfg with ssd_blocks = 64 } in
  with_store ~cfg (fun _ st ctx ->
      Dstore.oput ctx "small" (value_of_string "s");
      check_rejected st ctx (fun () ->
          Dstore.oput ctx "oversized" (big_value 1 (65 * Dstore.page_bytes st))))

let test_put_out_of_meta_all_or_nothing () =
  let cfg = { small_cfg with meta_entries = 16 } in
  with_store ~cfg (fun _ st ctx ->
      let n = ref 0 in
      let full = ref false in
      while not !full do
        let i = Dstore.internals st in
        if
          Dstore_structs.Bitpool.allocated i.Dstore.i_metapool
          = Dstore_structs.Bitpool.count i.Dstore.i_metapool
        then full := true
        else begin
          Dstore.oput ctx (Printf.sprintf "m%d" !n) (value_of_string "v");
          incr n
        end
      done;
      check_rejected st ctx
        ~after:(fun () ->
          Alcotest.(check bool) "delete frees a meta id" true
            (Dstore.odelete ctx "m0");
          Dstore.oput ctx "after" (value_of_string "ok"))
        (fun () -> Dstore.oput ctx "one-too-many" (value_of_string "v")))

let test_log_full_all_or_nothing () =
  let cfg = { small_cfg with checkpoint = Config.No_checkpoint; log_slots = 64 } in
  with_store ~cfg (fun _ st ctx ->
      (* Fill the log until a 64-block record no longer fits but a
         one-block one does. *)
      let free () = Oplog.free_slots (Dipper.log_handles (Dstore.engine st)).(0) in
      let n = ref 0 in
      while free () >= 16 do
        Dstore.oput ctx (Printf.sprintf "f%d" !n) (value_of_string "v");
        incr n
      done;
      let big = big_value 2 (64 * Dstore.page_bytes st) in
      check_rejected st ctx (fun () -> Dstore.oput ctx "big" big);
      check_rejected st ctx
        ~after:(fun () -> Dstore.oput ctx "after2" (value_of_string "ok"))
        (fun () ->
          ignore
            (Dstore.obatch ctx
               [ Dstore.Bput ("b1", value_of_string "x"); Dstore.Bput ("b2", big) ])))

let test_obatch_stage_failure_all_or_nothing () =
  let cfg = { small_cfg with ssd_blocks = 64 } in
  with_store ~cfg (fun _ st ctx ->
      check_rejected st ctx (fun () ->
          ignore
            (Dstore.obatch ctx
               [
                 Dstore.Bput ("fits", value_of_string "x");
                 Dstore.Bdelete "ghost";
                 Dstore.Bput ("oversized", big_value 3 (65 * Dstore.page_bytes st));
               ]));
      Alcotest.(check bool) "no member applied" false (Dstore.oexists ctx "fits"))

(* A builder that raises under the append's lock hold (here [owrite] on
   an object deleted after it was opened) must release the lock. *)
let test_owrite_vanished_object_releases_lock () =
  with_store (fun _ _ ctx ->
      Dstore.oput ctx "gone" (value_of_string "v");
      let o = Dstore.oopen ctx "gone" Dstore.Wr in
      Alcotest.(check bool) "deleted" true (Dstore.odelete ctx "gone");
      (match Dstore.owrite o (value_of_string "x") ~size:1 ~off:0 with
      | _ -> Alcotest.fail "owrite on a deleted object succeeded"
      | exception Dstore.Object_not_found _ -> ());
      Dstore.oput ctx "after" (value_of_string "ok");
      Alcotest.(check bool) "store still writable" true (Dstore.oexists ctx "after"))

(* Fragment a 128-block SSD into 60 one-block holes, then put "X" at 60
   pages, so X's binding spans dozens of extents: an overwrite of X frees
   far more extents than a one-block put's record estimate allows for. *)
let fragmented_cfg = { small_cfg with ssd_blocks = 128; log_slots = 1024 }

let holes st ctx =
  let ps = Dstore.page_bytes st in
  for i = 0 to 119 do
    Dstore.oput ctx (Printf.sprintf "o%03d" i) (big_value i ps)
  done;
  for i = 0 to 59 do
    ignore (Dstore.odelete ctx (Printf.sprintf "o%03d" (2 * i)))
  done

let fragment st ctx =
  holes st ctx;
  Dstore.oput ctx "X" (big_value 200 (60 * Dstore.page_bytes st));
  let i = Dstore.internals st in
  let _, extents =
    Dstore_structs.Metazone.read_object i.Dstore.i_zone
      (Option.get (Dstore_structs.Btree.find i.Dstore.i_btree "X"))
  in
  Alcotest.(check bool) "X is fragmented" true (List.length extents >= 40)

let test_overwrite_frees_many_extents () =
  with_store ~cfg:fragmented_cfg (fun _ st ctx ->
      fragment st ctx;
      Dstore.oput ctx "X" (value_of_string "y");
      check Alcotest.string "new value" "y"
        (Bytes.to_string (Option.get (Dstore.oget ctx "X")));
      (* Live: 60 one-block objects and the one-block X. *)
      let i = Dstore.internals st in
      check Alcotest.int "blocks match live objects" 61
        (Dstore_structs.Bitpool.allocated i.Dstore.i_blockpool);
      check Alcotest.int "meta ids match live objects" 61
        (Dstore_structs.Bitpool.allocated i.Dstore.i_metapool))

(* The same outgrown records when the log has room for their estimate but
   not for the records as built: under [No_checkpoint] the append raises
   [Log_full] and every id claimed for it — the put's staged ids, the
   blocks [owrite]'s builder took — goes back. *)
let test_outgrown_record_log_full_all_or_nothing () =
  let cfg = { fragmented_cfg with checkpoint = Config.No_checkpoint } in
  let fill_log st ctx =
    let free () = Oplog.free_slots (Dipper.log_handles (Dstore.engine st)).(0) in
    (* A delete of an absent key logs a one-slot Noop and claims nothing. *)
    while free () >= 6 do
      ignore (Dstore.odelete ctx "absent")
    done
  in
  with_store ~cfg (fun _ st ctx ->
      fragment st ctx;
      fill_log st ctx;
      check_rejected st ctx (fun () -> Dstore.oput ctx "X" (value_of_string "z")));
  with_store ~cfg (fun _ st ctx ->
      holes st ctx;
      let o = Dstore.oopen ctx "W" Dstore.Wr in
      fill_log st ctx;
      check_rejected st ctx (fun () ->
          (* A sparse write: 61 blocks, mostly one-block holes. *)
          ignore
            (Dstore.owrite o (value_of_string "w") ~size:1
               ~off:(60 * Dstore.page_bytes st))))

(* The payload is written before the log append, so a read of the same
   key issued while the put's payload is on its way to the SSD finds no
   in-flight record: it reads the old value without a conflict stall. *)
let test_get_during_payload_no_conflict () =
  with_store (fun fx st ctx ->
      let module Span = Dstore_obs.Span in
      Dstore.oput ctx "k" (value_of_string "v0");
      let rc = (Dstore.obs st).Dstore_obs.Obs.spans in
      let conflicts () = Span.cause_events rc (Span.cause_index Span.Conflict_retry) in
      let c0 = conflicts () in
      let got = ref None in
      Sim.spawn fx.sim "writer" (fun () ->
          Dstore.oput (Dstore.ds_init st) "k" (big_value 4 4096));
      Sim.spawn fx.sim "reader" (fun () ->
          Sim.wait fx.sim 2_000;
          (* mid-payload: a one-page write takes 8.9 us *)
          got := Dstore.oget (Dstore.ds_init st) "k");
      t_sleep fx 100_000;
      check Alcotest.int "no conflict retry booked" c0 (conflicts ());
      check (Alcotest.option Alcotest.string) "old value read" (Some "v0")
        (Option.map Bytes.to_string !got);
      check Alcotest.bytes "new value committed" (big_value 4 4096)
        (Option.get (Dstore.oget ctx "k")))

(* Staging runs once per [obatch] call: the two payloads of a duplicate-key
   batch share one SSD round although the records append and commit in
   two ordered sub-batches. *)
let test_obatch_duplicate_keys_one_payload_round () =
  with_store (fun fx _ ctx ->
      let w0 = (Ssd.stats fx.ssd).Ssd.writes in
      let t0 = Sim.now fx.sim in
      let r =
        Dstore.obatch ctx
          [ Dstore.Bput ("K", big_value 5 4096); Dstore.Bput ("K", big_value 6 4096) ]
      in
      let dt = Sim.now fx.sim - t0 in
      Alcotest.(check (list bool)) "both applied" [ true; true ] r;
      check Alcotest.int "two SSD writes" (w0 + 2) (Ssd.stats fx.ssd).Ssd.writes;
      Alcotest.(check bool)
        (Printf.sprintf "one payload round (%d ns)" dt)
        true
        (dt < 2 * Ssd.default_config.Ssd.write_page_ns);
      check Alcotest.bytes "last write wins" (big_value 6 4096)
        (Option.get (Dstore.oget ctx "K")))

(* The flush protocol each call takes, pinned as exact (fences, flush
   calls, flushed bytes): one record costs two rounds (append + commit
   word), a multi-record group three (two coalesced append rounds + one
   commit span), a transaction three (two append rounds + its commit
   record), a read-only transaction none. Staging moves no PMEM traffic,
   and a one-op [obatch] takes the single-record protocol, like [oput]. *)
let test_put_pmem_cost_unchanged () =
  with_store (fun fx _ ctx ->
      let cost f =
        let st = Pmem.stats fx.pm in
        let f0 = st.Pmem.fence_calls
        and c0 = st.Pmem.flush_calls
        and b0 = st.Pmem.bytes_flushed in
        f ();
        (st.Pmem.fence_calls - f0, st.Pmem.flush_calls - c0, st.Pmem.bytes_flushed - b0)
      in
      let put k seed = Dstore.Bput (k, big_value seed 4096) in
      List.iter
        (fun (name, expected, f) ->
          check Alcotest.(triple int int int) (name ^ ": fences, flushes, bytes") expected
            (cost f))
        [
          ("fresh put", (2, 2, 128), fun () -> Dstore.oput ctx "p" (big_value 7 4096));
          ("overwrite", (2, 2, 128), fun () -> Dstore.oput ctx "p" (big_value 8 4096));
          ("one-op obatch", (2, 2, 128), fun () -> ignore (Dstore.obatch ctx [ put "b0" 9 ]));
          ( "four-op obatch",
            (3, 3, 768),
            fun () ->
              ignore
                (Dstore.obatch ctx
                   (List.init 4 (fun i -> put (Printf.sprintf "b%d" (i + 1)) (10 + i)))) );
          ("delete live", (2, 2, 128), fun () -> ignore (Dstore.odelete ctx "b0"));
          ( "olock + ounlock",
            (2, 2, 128),
            fun () ->
              Dstore.olock ctx "p";
              Dstore.ounlock ctx "p" );
          ( "two-key txn",
            (3, 3, 448),
            fun () ->
              ignore
                (Dstore_txn.txn ctx (fun tx ->
                     Dstore_txn.put tx "t1" (big_value 20 4096);
                     Dstore_txn.put tx "t2" (big_value 21 4096))) );
          ( "read-only txn",
            (0, 0, 0),
            fun () -> ignore (Dstore_txn.txn ctx (fun tx -> ignore (Dstore_txn.get tx "t1"))) );
        ])

(* --- OCC transactions ---------------------------------------------------- *)

let test_txn_commit_visible () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "ta" (value_of_string "old-a");
      let r =
        Dstore_txn.txn ctx (fun tx ->
            Dstore_txn.put tx "ta" (value_of_string "new-a");
            Dstore_txn.put tx "tb" (value_of_string "new-b"))
      in
      Alcotest.(check bool) "committed" true (Result.is_ok r);
      check Alcotest.string "ta overwritten" "new-a"
        (Bytes.to_string (Option.get (Dstore.oget ctx "ta")));
      check Alcotest.string "tb created" "new-b"
        (Bytes.to_string (Option.get (Dstore.oget ctx "tb")));
      let s = Dipper.stats (Dstore.engine st) in
      check Alcotest.int "txns committed" 1 s.Dipper.txns_committed;
      check Alcotest.int "txns aborted" 0 s.Dipper.txns_aborted;
      check Alcotest.int "member records" 2 s.Dipper.txn_member_records)

let test_txn_read_your_writes () =
  with_store (fun _ _ ctx ->
      Dstore.oput ctx "rw" (value_of_string "stored");
      let r =
        Dstore_txn.txn ctx (fun tx ->
            check Alcotest.string "reads through to store" "stored"
              (Bytes.to_string (Option.get (Dstore_txn.get tx "rw")));
            Dstore_txn.put tx "rw" (value_of_string "buffered");
            check Alcotest.string "buffered write shadows" "buffered"
              (Bytes.to_string (Option.get (Dstore_txn.get tx "rw")));
            Dstore_txn.delete tx "rw";
            Alcotest.(check bool) "buffered delete shadows" true
              (Dstore_txn.get tx "rw" = None))
      in
      Alcotest.(check bool) "committed" true (Result.is_ok r);
      Alcotest.(check bool) "final delete applied" false
        (Dstore.oexists ctx "rw"))

let test_txn_abort_untouched () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "ab" (value_of_string "keep");
      let r =
        Dstore_txn.txn ctx (fun tx ->
            Dstore_txn.put tx "ab" (value_of_string "discard");
            Dstore_txn.put tx "ab2" (value_of_string "discard");
            Dstore_txn.abort tx)
      in
      Alcotest.(check bool) "reported aborted" true (Result.is_error r);
      check Alcotest.string "member untouched" "keep"
        (Bytes.to_string (Option.get (Dstore.oget ctx "ab")));
      Alcotest.(check bool) "member never created" false
        (Dstore.oexists ctx "ab2");
      check Alcotest.int "nothing committed" 0
        (Dipper.stats (Dstore.engine st)).Dipper.txns_committed)

let test_txn_stale_read_aborts () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "sr" (value_of_string "v0");
      let tx = Dstore_txn.create ctx in
      ignore (Dstore_txn.get tx "sr");
      (* A racing commit moves the version between the read and
         validation. *)
      Dstore.oput ctx "sr" (value_of_string "v1");
      Dstore_txn.put tx "other" (value_of_string "w");
      (match Dstore_txn.commit tx with
      | Error (Dstore_txn.Conflict k) ->
          check Alcotest.string "conflicting key reported" "sr" k
      | Ok () -> Alcotest.fail "stale read committed"
      | Error r -> Alcotest.failf "unexpected abort: %s" (Dstore_txn.pp_abort r));
      Alcotest.(check bool) "write-set not applied" false
        (Dstore.oexists ctx "other");
      check Alcotest.string "racing value intact" "v1"
        (Bytes.to_string (Option.get (Dstore.oget ctx "sr")));
      check Alcotest.int "abort counted" 1
        (Dipper.stats (Dstore.engine st)).Dipper.txns_aborted)

(* Validation precedes device work: an attempt that fails validation
   writes no SSD page and leaves both allocators as it found them. *)
let test_txn_abort_no_device_work () =
  with_store (fun fx st ctx ->
      Dstore.oput ctx "sr" (value_of_string "v0");
      let tx = Dstore_txn.create ctx in
      ignore (Dstore_txn.get tx "sr");
      Dstore.oput ctx "sr" (value_of_string "v1");
      Dstore_txn.put tx "other" (value_of_string "w");
      Dstore_txn.put tx "wide" (big_value 3 (3 * Dstore.page_bytes st));
      let i = Dstore.internals st in
      let blocks () = Dstore_structs.Bitpool.allocated i.Dstore.i_blockpool in
      let metas () = Dstore_structs.Bitpool.allocated i.Dstore.i_metapool in
      let w0 = (Ssd.stats fx.ssd).Ssd.writes in
      let b0 = blocks () and m0 = metas () in
      (match Dstore_txn.commit tx with
      | Error (Dstore_txn.Conflict _) -> ()
      | Ok () -> Alcotest.fail "stale read committed"
      | Error r -> Alcotest.failf "unexpected abort: %s" (Dstore_txn.pp_abort r));
      check Alcotest.int "no SSD write" w0 (Ssd.stats fx.ssd).Ssd.writes;
      check Alcotest.int "block pool unchanged" b0 (blocks ());
      check Alcotest.int "meta pool unchanged" m0 (metas ()))

(* The payloads must be durable before the commit point. Record the SSD
   write count at every persistence event. The Txn_commit line's persist
   is the transaction's last: its fence is the call's last persistence
   event, and the event before it is the flush that makes the line
   durable. That flush must already see every payload write of the
   transaction — and the begin + members flush, the transaction's first
   persistence event, none of them. *)
let test_txn_payload_durable_before_commit () =
  with_store (fun fx st ctx ->
      Dstore.oput ctx "p0" (value_of_string "seed");
      let writes () = (Ssd.stats fx.ssd).Ssd.writes in
      let at_event = Hashtbl.create 16 in
      let fences0 = (Pmem.stats fx.pm).Pmem.fence_calls in
      Pmem.set_persist_hook fx.pm
        (Some (fun n -> Hashtbl.replace at_event n (writes ())));
      let w0 = writes () and e0 = Pmem.persist_events fx.pm in
      let r =
        Dstore_txn.txn ctx (fun tx ->
            ignore (Dstore_txn.get tx "p0");
            Dstore_txn.put tx "p0" (value_of_string "txn0");
            Dstore_txn.put tx "p1" (big_value 5 (2 * Dstore.page_bytes st)))
      in
      let last = Pmem.persist_events fx.pm in
      Pmem.set_persist_hook fx.pm None;
      Alcotest.(check bool) "committed" true (Result.is_ok r);
      (* Two fences for the begin + members round, one for the commit
         line, whose fence is therefore the call's last event. *)
      check Alcotest.int "span round and commit line" 3
        ((Pmem.stats fx.pm).Pmem.fence_calls - fences0);
      let w1 = writes () in
      Alcotest.(check bool) "every member wrote a payload" true (w1 - w0 >= 2);
      check Alcotest.int "payloads durable at the commit-line flush" w1
        (Hashtbl.find at_event (last - 1));
      check Alcotest.int "no payload before the span flush" w0
        (Hashtbl.find at_event (e0 + 1)))

(* The [txn] wrapper's span owns the whole transaction: its reads open no
   Get span of their own (their ticket waits are the txn's blame), and it
   is finished even when the body raises. *)
let test_txn_span_owns_reads () =
  with_store (fun _ st ctx ->
      let module Span = Dstore_obs.Span in
      Dstore.oput ctx "sp" (value_of_string "v");
      let rc = (Dstore.obs st).Dstore_obs.Obs.spans in
      let f0 = Span.finished rc in
      let r =
        Dstore_txn.txn ctx (fun tx ->
            ignore (Dstore_txn.get tx "sp");
            Dstore_txn.put tx "sp" (value_of_string "w"))
      in
      Alcotest.(check bool) "committed" true (Result.is_ok r);
      check Alcotest.int "one span per txn" (f0 + 1) (Span.finished rc);
      (match Span.last rc 1 with
      | [ s ] ->
          Alcotest.(check bool) "it is the txn span" true
            (Span.span_kind s = Span.Txn);
          check Alcotest.int "partition holds" (Span.duration s)
            (Span.segments_total s + Span.blame_total s)
      | _ -> Alcotest.fail "no span recorded");
      (match
         Dstore_txn.txn ctx (fun tx ->
             ignore (Dstore_txn.get tx "sp");
             raise Exit)
       with
      | _ -> Alcotest.fail "exception swallowed"
      | exception Exit -> ());
      check Alcotest.int "raising txn still finishes its span" (f0 + 2)
        (Span.finished rc);
      (* Four members: their payload writes run beside the structure
         updates, and the span still partitions exactly. *)
      let keys = List.init 4 (Printf.sprintf "sp%d") in
      let r =
        Dstore_txn.txn ctx (fun tx ->
            List.iter
              (fun k ->
                ignore (Dstore_txn.get tx k);
                Dstore_txn.put tx k (big_value 7 (Dstore.page_bytes st)))
              keys)
      in
      Alcotest.(check bool) "4-member txn committed" true (Result.is_ok r);
      match Span.last rc 1 with
      | [ s ] ->
          check Alcotest.int "4-member partition holds" (Span.duration s)
            (Span.segments_total s + Span.blame_total s)
      | _ -> Alcotest.fail "no span recorded")

(* The structure updates hide behind the payload writes: on an idle
   store a 4-member transaction commits in less than its log append, one
   page write and its members' structure time added up. *)
let test_txn_structures_overlap_payloads () =
  with_store (fun fx st ctx ->
      let module Span = Dstore_obs.Span in
      let w0 = (Ssd.stats fx.ssd).Ssd.writes in
      let r =
        Dstore_txn.txn ctx (fun tx ->
            for i = 0 to 3 do
              Dstore_txn.put tx (Printf.sprintf "ov%d" i) (big_value i (Dstore.page_bytes st))
            done)
      in
      Alcotest.(check bool) "committed" true (Result.is_ok r);
      check Alcotest.int "one page per member" (w0 + 4) (Ssd.stats fx.ssd).Ssd.writes;
      match Span.last (Dstore.obs st).Dstore_obs.Obs.spans 1 with
      | [ s ] ->
          let sum = List.fold_left (fun acc sg -> acc + Span.segment s sg) 0 in
          let append = sum [ Span.S_lock; Span.S_append ] in
          let structures = sum [ Span.S_ticket; Span.S_structs; Span.S_index ] in
          let page = (Ssd.config fx.ssd).Ssd.write_page_ns in
          Alcotest.(check bool)
            (Printf.sprintf "%d ns < %d + %d + %d" (Span.duration s) append page structures)
            true
            (Span.duration s < append + page + structures)
      | _ -> Alcotest.fail "no span recorded")

(* [par_iter] joins on every exit path: an exception from the inline
   task, or from a task, reaches the caller only once every task has
   finished. Run under the simulator and under real threads. *)
let test_par_iter_joins_on_raise ~run p =
  run (fun () ->
      let pm =
        Pmem.create p
          { Pmem.default_config with size = Dipper.layout_bytes small_cfg; crash_model = false }
      in
      let ssd = Ssd.create p { Ssd.default_config with pages = small_cfg.Config.ssd_blocks } in
      let st = Dstore.create p pm ssd small_cfg in
      let finished = Atomic.make 0 in
      let task i =
        p.Platform.sleep (i * 5_000_000);
        Atomic.incr finished;
        if i = 2 then raise Not_found
      in
      (match Dstore.par_iter st [ 1; 3 ] task ~inline:(fun () -> raise Exit) with
      | () -> Alcotest.fail "inline exception swallowed"
      | exception Exit -> check Alcotest.int "inline raise: tasks done first" 2 (Atomic.get finished));
      (match Dstore.par_iter st [ 1; 2; 3 ] task ~inline:(fun () -> 7) with
      | _ -> Alcotest.fail "task exception swallowed"
      | exception Not_found -> check Alcotest.int "task raise: tasks done first" 5 (Atomic.get finished));
      check Alcotest.int "clean join" 7 (Dstore.par_iter st [ 1 ] ignore ~inline:(fun () -> 7));
      Dstore.stop st)

let test_par_iter_sim () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  test_par_iter_joins_on_raise p ~run:(fun f ->
      Sim.spawn sim "main" f;
      Sim.run sim)

let test_par_iter_threads () =
  let rp = Real_platform.create ~parallelism:2 () in
  let p = Real_platform.platform rp in
  test_par_iter_joins_on_raise p ~run:(fun f ->
      let result = Atomic.make None in
      p.Platform.spawn "main" (fun () ->
          Atomic.set result (Some (try Ok (f ()) with e -> Error e)));
      let deadline = Unix.gettimeofday () +. 60.0 in
      while Option.is_none (Atomic.get result) && Unix.gettimeofday () < deadline do
        Thread.delay 0.001
      done;
      match Atomic.get result with
      | Some (Ok ()) -> Real_platform.join_all rp
      | Some (Error e) -> raise e
      | None -> Alcotest.fail "scenario not done within 60 s")

let test_txn_retry_commits () =
  (* The wrapper re-runs the whole function after a conflict abort, so the
     second attempt reads the fresh version and commits. *)
  with_store (fun _ st ctx ->
      Dstore.oput ctx "rk" (value_of_string "v0");
      let attempts = ref 0 in
      let r =
        Dstore_txn.txn ctx (fun tx ->
            incr attempts;
            ignore (Dstore_txn.get tx "rk");
            if !attempts = 1 then
              (* Invalidate our own read from outside the transaction. *)
              Dstore.oput ctx "rk" (value_of_string "raced");
            Dstore_txn.put tx "rk" (value_of_string "final"))
      in
      Alcotest.(check bool) "eventually committed" true (Result.is_ok r);
      check Alcotest.int "two attempts" 2 !attempts;
      check Alcotest.string "second attempt's write" "final"
        (Bytes.to_string (Option.get (Dstore.oget ctx "rk")));
      let s = Dipper.stats (Dstore.engine st) in
      check Alcotest.int "one abort counted" 1 s.Dipper.txns_aborted;
      check Alcotest.int "one commit counted" 1 s.Dipper.txns_committed)

let test_txn_readonly_validates () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "ro" (value_of_string "v");
      let appended0 =
        (Dipper.stats (Dstore.engine st)).Dipper.records_appended
      in
      let r = Dstore_txn.txn ctx (fun tx -> ignore (Dstore_txn.get tx "ro")) in
      Alcotest.(check bool) "read-only txn commits" true (Result.is_ok r);
      check Alcotest.int "nothing appended" appended0
        (Dipper.stats (Dstore.engine st)).Dipper.records_appended)

(* The per-key conflict lookup, pinned via its test seam. An appended txn
   span holds in-flight tickets on its member keys; the lookup must find
   them, pass the caller's own advisory lock, and commit must retire
   them. *)
let test_conflict_scan_one_pass () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "cs1" (value_of_string "x");
      let e = Dstore.engine st in
      let a =
        match
          Dipper.append e ~ctx:0 ~reads:[]
            [
              ("cs1", 1, fun () -> Logrec.Noop { key = "cs1" });
              ("cs2", 1, fun () -> Logrec.Noop { key = "cs2" });
            ]
        with
        | Ok a -> a
        | Error k -> Alcotest.failf "unexpected stale read on %s" k
      in
      let clear ?(ctx = 0) k =
        match Dipper.lookup ~ctx ~pass:false e k with _ -> true | exception Dipper.Busy _ -> false
      in
      (match Dipper.lookup ~ctx:0 ~pass:false e "cs2" with
      | exception Dipper.Busy tk ->
          Alcotest.(check bool) "in-flight member found" true
            (List.memq tk (Dipper.members a))
      | _ -> Alcotest.fail "in-flight member not found");
      Alcotest.(check bool) "unrelated key clean" true (clear "unrelated");
      Dipper.lock e ~ctx:7 "cs3";
      Alcotest.(check (pair bool bool)) "own lock passed, others' not" (true, false)
        (clear ~ctx:7 "cs3", clear ~ctx:8 "cs3");
      Alcotest.(check bool) "unlock by its owner only" true
        ((not (Dipper.unlock e ~ctx:8 "cs3")) && Dipper.unlock e ~ctx:7 "cs3");
      Dipper.commit e a;
      Alcotest.(check bool) "tickets retired by commit" true
        (List.for_all (fun k -> clear k) [ "cs1"; "cs2"; "cs3" ]))

(* The per-key table against a brute-force oracle. Random appends (plain
   groups and transactions, with stale reads that must abort), commits,
   log swaps, advisory locks and reservations, by three contexts over five
   keys; after every step, every (context, key) lookup must equal a full
   scan of the live in-flight set plus a model of the reservations and
   committed versions: the oldest ticket on the key, by the step that
   made it, that the context does not own. Only steps the oracle says
   would not block are taken, so one process drives it all. *)
let prop_key_table_matches_scan =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"key table lookups equal a full in-flight scan" ~count:30
       QCheck.(int_range 0 1_000_000)
       (fun seed ->
         Seed_report.attempt ~test:"key table vs scan" ~seed
           ~repro:"dune exec test/test_main.exe -- test dstore" @@ fun () ->
         with_store ~crash_model:false (fun _ st _ ->
             let e = Dstore.engine st in
             let r = Rng.create seed in
             let keys = [| "k0"; "k1"; "k2"; "k3"; "k4" |] in
             let versions = Hashtbl.create 8 in
             let version k = Option.value (Hashtbl.find_opt versions k) ~default:0 in
             (* the step each live record first appeared at, and each
                reservation as (key, holder, step) *)
             let step = ref 0 and born = ref [] and resv = ref [] in
             let groups = ref [] and locks = ref [] in
             let held = Array.make 4 None in
             let live () =
               let l = Dipper.in_flight e in
               List.iter
                 (fun (tk, _, _) ->
                   if not (List.mem_assq tk !born) then born := (tk, !step) :: !born)
                 l;
               l
             in
             let expect c k =
               let records =
                 List.filter_map
                   (fun (tk, key, owner) ->
                     if key = Some k && not (owner <> 0 && owner = c) then
                       Some (List.assq tk !born, `Ticket tk)
                     else None)
                   (live ())
               and reservations =
                 List.filter_map
                   (fun (key, h, at) -> if key = k && h <> c then Some (at, `Reserved) else None)
                   !resv
               in
               match List.sort (fun (a, _) (b, _) -> compare a b) (records @ reservations) with
               | (_, first) :: _ -> first
               | [] -> `Clear (version k)
             in
             let got c k =
               match Dipper.lookup ~ctx:c ~pass:false e k with
               | v -> `Clear v
               | exception Dipper.Busy tk ->
                   if List.exists (fun (x, _, _) -> x == tk) (live ()) then `Ticket tk
                   else if Dipper.ticket_op tk = Logrec.Noop { key = k } then `Reserved
                   else `Stale
             in
             let agree () =
               Array.for_all
                 (fun k ->
                   List.for_all
                     (fun c ->
                       match (got c k, expect c k) with
                       | `Ticket a, `Ticket b -> a == b
                       | a, b -> a = b)
                     [ 0; 1; 2; 3 ])
                 keys
             in
             let clear c ks = List.for_all (fun k -> match expect c k with `Clear _ -> true | _ -> false) ks in
             let pick_keys () =
               List.sort_uniq compare (List.init (1 + Rng.int r 3) (fun _ -> keys.(Rng.int r 5)))
             in
             let commit_bumps ks = List.iter (fun k -> Hashtbl.replace versions k (version k + 1)) ks in
             let noops ks = List.map (fun k -> (k, 1, fun () -> Logrec.Noop { key = k })) ks in
             let act () =
               let c = 1 + Rng.int r 3 in
               match Rng.int r 8 with
               | 0 | 1 ->
                   let ks = pick_keys () in
                   if clear c ks then begin
                     let reads = if Rng.bool r then Some (List.map (fun k -> (k, version k)) ks) else None in
                     match Dipper.append e ~ctx:c ~holding:(held.(c) <> None) ?reads (noops ks) with
                     | Ok a -> groups := (a, ks) :: !groups
                     | Error k -> Alcotest.failf "valid read of %s aborted" k
                   end
               | 2 ->
                   (* a stale read aborts and appends nothing *)
                   let ks = pick_keys () in
                   if clear c ks then begin
                     let before = List.length (live ()) in
                     let reads = List.map (fun k -> (k, version k + 1)) ks in
                     (match Dipper.append e ~ctx:c ~reads (noops ks) with
                     | Ok _ -> Alcotest.fail "stale read validated"
                     | Error _ -> ());
                     if List.length (live ()) <> before then
                       Alcotest.fail "aborted transaction left records in flight"
                   end
               | 3 -> (
                   match !groups with
                   | [] -> ()
                   | gs ->
                       let i = Rng.int r (List.length gs) in
                       let a, ks = List.nth gs i in
                       groups := List.filteri (fun j _ -> j <> i) gs;
                       Dipper.commit e a;
                       commit_bumps ks)
               | 4 -> Dipper.checkpoint_now e
               | 5 ->
                   let k = keys.(Rng.int r 5) in
                   if clear c [ k ] then begin
                     Dipper.lock e ~ctx:c k;
                     locks := (c, k) :: !locks
                   end
               | 6 -> (
                   match !locks with
                   | [] -> ()
                   | (c, k) :: rest ->
                       if not (Dipper.unlock e ~ctx:c k) then Alcotest.fail "held lock not found";
                       locks := rest;
                       commit_bumps [ k ])
               | _ -> (
                   match held.(c) with
                   | None ->
                       let ks = pick_keys () in
                       if clear c ks then begin
                         held.(c) <- Some (Dipper.reserve e ~ctx:c ks);
                         resv := List.map (fun k -> (k, c, !step)) ks @ !resv
                       end
                   | Some h ->
                       Dipper.release e h;
                       resv := List.filter (fun (_, h, _) -> h <> c) !resv;
                       held.(c) <- None)
             in
             let ok = ref (agree ()) in
             for _ = 1 to 80 do
               if !ok then begin
                 incr step;
                 act ();
                 ok := agree ()
               end
             done;
             !ok)))

let test_txn_crash_committed_survives () =
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      Dstore.oput ctx "t0" (value_of_string "seed");
      match
        Dstore_txn.txn ctx (fun tx ->
            Dstore_txn.put tx "t0" (value_of_string "txn0");
            Dstore_txn.put tx "t1" (value_of_string "txn1"))
      with
      | Ok () -> ()
      | Error r -> Alcotest.failf "commit failed: %s" (Dstore_txn.pp_abort r));
  Sim.run fx.sim;
  Pmem.crash fx.pm Pmem.Drop_all;
  Sim.clear_pending fx.sim;
  Sim.spawn fx.sim "recovery" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      check Alcotest.string "member 0 replayed" "txn0"
        (Bytes.to_string (Option.get (Dstore.oget ctx "t0")));
      check Alcotest.string "member 1 replayed" "txn1"
        (Bytes.to_string (Option.get (Dstore.oget ctx "t1")));
      Dstore.stop st);
  Sim.run fx.sim

let test_txn_torn_span_dropped () =
  (* Skip_txn_commit_record leaves the commit record's line unflushed:
     power loss drops it and recovery must surface NO member — exactly
     the all-or-nothing contract (and the fault the checker selftest
     proves catchable). *)
  let cfg = { small_cfg with Config.fault = Config.Skip_txn_commit_record } in
  let fx = fixture ~cfg () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      Dstore.oput ctx "t0" (value_of_string "seed");
      match
        Dstore_txn.txn ctx (fun tx ->
            Dstore_txn.put tx "t0" (value_of_string "txn0");
            Dstore_txn.put tx "t1" (value_of_string "txn1"))
      with
      | Ok () -> ()
      | Error r -> Alcotest.failf "commit failed: %s" (Dstore_txn.pp_abort r));
  Sim.run fx.sim;
  Pmem.crash fx.pm Pmem.Drop_all;
  Sim.clear_pending fx.sim;
  Sim.spawn fx.sim "recovery" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      check Alcotest.string "member 0 rolled back" "seed"
        (Bytes.to_string (Option.get (Dstore.oget ctx "t0")));
      Alcotest.(check bool) "member 1 never surfaced" false
        (Dstore.oexists ctx "t1");
      Dstore.stop st);
  Sim.run fx.sim

(* Host words one single-client [oput] allocates on a warm store with
   observability off: an overwrite of one of 256 keys, its 1 KB payload
   already built. The checkpoints the window triggers (one per 256 puts
   on a 512-slot log) are paid for by the puts. 326 words per put, 471
   before the allocation-free dirty-line tracking in [Pmem], the
   one-pass committed scan, the staged record image and the closure-free
   single-put steps. *)
let test_oput_alloc_budget () =
  with_store ~cfg:{ small_cfg with Config.obs_enabled = false } (fun _ _ ctx ->
      let keys = Array.init 256 (Printf.sprintf "obj/%03d") in
      let value = Bytes.make 1024 'v' in
      let puts n =
        for i = 0 to n - 1 do
          Dstore.oput ctx keys.(i land 255) value
        done
      in
      puts 2_048;
      let n = 4_096 in
      let w0 = Gc.minor_words () in
      puts n;
      let per_put = (Gc.minor_words () -. w0) /. float_of_int n in
      if per_put > 400.0 then Alcotest.failf "oput: %.0f words > 400" per_put)

(* [oget], [oget_into] and [oget_versioned] of one key in one store
   state run the same read: identical span segments and elapsed virtual
   time, on a miss (cache cleared first) and on the hit that follows.
   [oget_view] matches them on the miss; on the hit it skips only the
   copy out, so its [S_index] and elapsed time are one [copy_cost]
   (1000 B at 32 B/ns) shorter. *)
let test_equivalent_reads_match () =
  let module Span = Dstore_obs.Span in
  (* [S_index] first, [S_data] second. *)
  let segs =
    Span.
      [ S_index; S_data; S_ticket; S_lock; S_append; S_fence; S_structs; S_stage; S_commit;
        S_cache_fill; S_other ]
  in
  let cfg = { small_cfg with Config.cache_bytes = 1 lsl 20 } in
  with_store ~cfg (fun fx st ctx ->
      Dstore.oput ctx "k" (big_value 7 1000);
      let rc = (Dstore.obs st).Dstore_obs.Obs.spans in
      let once read =
        let t0 = Sim.now fx.sim in
        read ();
        let dt = Sim.now fx.sim - t0 in
        match Span.last rc 1 with
        | [ s ] -> (dt, List.map (Span.segment s) segs)
        | _ -> Alcotest.fail "no span"
      in
      let run read =
        Dstore.cache_clear st;
        let miss = once read in
        (miss, once read)
      in
      let buf = Bytes.create 1000 in
      let oget = run (fun () -> ignore (Dstore.oget ctx "k")) in
      let into = run (fun () -> ignore (Dstore.oget_into ctx "k" buf)) in
      let versioned = run (fun () -> ignore (Dstore.oget_versioned ctx "k")) in
      let view = run (fun () -> ignore (Dstore.oget_view ctx "k" buf)) in
      let same = Alcotest.(pair (pair int (list int)) (pair int (list int))) in
      check same "oget_into = oget" oget into;
      check same "oget_versioned = oget" oget versioned;
      let miss, (hit_dt, hit_segs) = oget in
      let copy = 1000 / 32 in
      let less_copy = List.mapi (fun i v -> if i = 0 then v - copy else v) hit_segs in
      check same "oget_view = oget less the hit's copy" (miss, (hit_dt - copy, less_copy)) view;
      check Alcotest.bool "the miss reads the SSD" true (List.nth (snd miss) 1 > 0);
      check Alcotest.bool "the hit does not" true (List.nth hit_segs 1 = 0))

(* Host words per read, single client, observability off, 256 objects of
   1 KB: every read entry point on a cache hit and with the cache off,
   bounded by what each cost before the reads shared one path. The
   reader entry is one per-key lookup, with no scan closure or
   lock-ownership list (a whole-table scan cost 33 words per hit). *)
let test_cached_read_alloc_budget () =
  let budgets ~cache_bytes into view get versioned exists =
    let cfg = { small_cfg with Config.obs_enabled = false; cache_bytes } in
    with_store ~cfg (fun _ _ ctx ->
        let keys = Array.init 256 (Printf.sprintf "obj/%03d") in
        Array.iter (fun k -> Dstore.oput ctx k (Bytes.make 1024 'v')) keys;
        let buf = Bytes.create 1024 in
        let budget name bound read =
          let reads n =
            for i = 0 to n - 1 do
              read keys.(i land 255)
            done
          in
          reads 2_048;
          let n = 4_096 in
          let w0 = Gc.minor_words () in
          reads n;
          let per_read = (Gc.minor_words () -. w0) /. float_of_int n in
          if per_read > float_of_int bound then
            Alcotest.failf "%s, cache %d B: %.1f words > %d" name cache_bytes per_read bound
        in
        budget "oget_into" into (fun k -> ignore (Dstore.oget_into ctx k buf));
        budget "oget_view" view (fun k -> ignore (Dstore.oget_view ctx k buf));
        budget "oget" get (fun k -> ignore (Dstore.oget ctx k));
        budget "oget_versioned" versioned (fun k -> ignore (Dstore.oget_versioned ctx k));
        budget "oexists" exists (fun k -> ignore (Dstore.oexists ctx k)))
  in
  budgets ~cache_bytes:(1024 * 1024) 17 17 149 152 2;
  budgets ~cache_bytes:0 57 52 179 182 2

(* --- one write path ------------------------------------------------------ *)

(* A write that raises still closes its span and its latency sample: an
   [oput] that runs out of blocks raises [Out_of_blocks] from its claim,
   and an [owrite] of an object deleted after [oopen] raises
   [Object_not_found] from its record builder. Each raise finishes one
   span and books one sample, and the next put of the key completes. *)
let test_write_raise_finishes_span () =
  let fx = fixture ~cfg:{ small_cfg with ssd_blocks = 64 } () in
  let log = ref [] in
  let note s = log := s :: !log in
  Sim.spawn fx.sim "test" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let obs = Dstore.obs st in
      let finished () = Dstore_obs.Span.finished obs.Dstore_obs.Obs.spans in
      let samples name =
        Histogram.count
          (Dstore_obs.Metrics.histo_data
             (Dstore_obs.Metrics.histogram obs.Dstore_obs.Obs.metrics name))
      in
      let ctx = Dstore.ds_init st in
      let raised what histo f =
        let f0 = finished () and h0 = samples histo in
        match f () with
        | () -> note (what ^ ": no raise")
        | exception (Dstore.Out_of_blocks | Dstore.Object_not_found _) ->
            note (Printf.sprintf "%s: %d span, %d sample" what (finished () - f0) (samples histo - h0))
      in
      raised "oput" "op.put" (fun () ->
          Dstore.oput ctx "p" (Bytes.make (65 * Dstore.page_bytes st) 'a'));
      Dstore.oput ctx "p" (Bytes.make 100 'b');
      note "put p done";
      Dstore.oput ctx "f" (Bytes.make 100 'a');
      let o = Dstore.oopen ctx "f" Dstore.Wr in
      ignore (Dstore.odelete ctx "f");
      raised "owrite" "op.write" (fun () ->
          ignore (Dstore.owrite o (Bytes.make 10 'x') ~size:10 ~off:0));
      Dstore.oput ctx "f" (Bytes.make 100 'c');
      note "put f done";
      Dstore.stop st);
  Sim.run_until fx.sim 1_000_000_000;
  check
    Alcotest.(list string)
    "each raise finishes one span; later puts complete"
    [ "oput: 1 span, 1 sample"; "put p done"; "owrite: 1 span, 1 sample"; "put f done" ]
    (List.rev !log)

(* Host words per 16-byte [oread] miss at offset 0 (cache off,
   observability off) on a 1-, 16- and 256-page object: the read walks
   the extent list to the pages it needs, so its allocation does not
   grow with the object. 29 words on each; 55, 160 and 1 840 when the
   read flattened the whole extent list into a page array first. *)
let test_oread_alloc_independent_of_size () =
  with_store ~cfg:{ small_cfg with Config.obs_enabled = false } (fun _ st ctx ->
      let ps = Dstore.page_bytes st in
      let words pages =
        let key = Printf.sprintf "obj%d" pages in
        Dstore.oput ctx key (Bytes.make (pages * ps) 'v');
        let o = Dstore.oopen ctx key Dstore.Rd in
        let buf = Bytes.create 16 in
        let reads n =
          for _ = 1 to n do
            ignore (Dstore.oread o buf ~size:16 ~off:0)
          done
        in
        reads 100;
        let w0 = Gc.minor_words () in
        reads 1_000;
        (Gc.minor_words () -. w0) /. 1_000.0
      in
      let one = words 1 in
      List.iter
        (fun pages ->
          let w = words pages in
          if w > one +. 0.5 then
            Alcotest.failf "%d pages: %.1f words per read, 1 page: %.1f" pages w one)
        [ 16; 256 ];
      if one > 29.0 then Alcotest.failf "1 page: %.1f words per read > 29" one)

(* A zero-length [oread] returns 0 at once, inside or past the object:
   no lookup, no SSD read, no span. *)
let test_oread_zero_length () =
  with_store (fun fx st ctx ->
      Dstore.oput ctx "z" (Bytes.make 4096 'z');
      let o = Dstore.oopen ctx "z" Dstore.Rd in
      let rc = (Dstore.obs st).Dstore_obs.Obs.spans in
      List.iter
        (fun off ->
          let t0 = Sim.now fx.sim and f0 = Dstore_obs.Span.finished rc in
          let n = Dstore.oread o (Bytes.create 16) ~size:0 ~off in
          check Alcotest.(triple int int int)
            (Printf.sprintf "off %d: bytes, ns, spans" off)
            (0, 0, 0)
            (n, Sim.now fx.sim - t0, Dstore_obs.Span.finished rc - f0))
        [ 0; 100; 5000 ])

(* Run [f st ctx] on a fresh store: whether it completed, what [Fsck]
   found right after it, and how many processes are left blocked once the
   store stops. *)
let probe ?cfg f =
  let fx = fixture ?cfg () in
  let completed = ref false and fsck = ref [ "not reached" ] in
  Sim.spawn fx.sim "probe" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      f st ctx;
      fsck := Dstore_check.Fsck.run st;
      completed := true;
      Dstore.stop st);
  Sim.run_until fx.sim 1_000_000_000;
  (!completed, !fsck, Sim.blocked_processes fx.sim)

let check_probe what (completed, fsck, blocked) =
  check Alcotest.bool (what ^ ": completes") true completed;
  check Alcotest.(list string) (what ^ ": fsck exact") [] fsck;
  check Alcotest.int (what ^ ": nothing blocked") 0 blocked

(* A physical put that runs out of meta ids gives back the blocks its
   build claimed: the pools stay exact. *)
let test_physical_put_out_of_meta_exact () =
  let cfg = { small_cfg with Config.logging = Config.Physical; meta_entries = 16 } in
  check_probe "physical put"
    (probe ~cfg (fun _ ctx ->
         let ran_out =
           match
             for i = 0 to 99 do
               Dstore.oput ctx (Printf.sprintf "p%02d" i) (Bytes.make 5000 'p')
             done
           with
           | () -> false
           | exception Dstore.Out_of_blocks -> true
         in
         check Alcotest.bool "ran out of meta ids" true ran_out))

(* [f] raises [Invalid_argument] whose message names [prefix] (the entry
   point and the argument). *)
let expect_invalid prefix f =
  match f () with
  | _ -> Alcotest.failf "%s: no raise" prefix
  | exception Invalid_argument m when String.starts_with ~prefix m -> ()
  | exception e -> Alcotest.failf "%s: raised %s" prefix (Printexc.to_string e)

let long_key n = String.make n 'k'

(* An over-long key in a batch is rejected before anything is claimed or
   appended: the batch's valid key stays free for the next read. *)
let test_obatch_long_key_rejected () =
  check_probe "obatch"
    (probe (fun _ ctx ->
         expect_invalid "Dstore.obatch: key" (fun () ->
             Dstore.obatch ctx
               [ Dstore.Bput ("k1", value_of_string "v"); Dstore.Bput (long_key 5000, value_of_string "v") ]);
         check Alcotest.bool "k1 unbound" true (Dstore.oget ctx "k1" = None)))

(* An [owrite] whose size exceeds its buffer is rejected before it claims
   blocks or appends: the object stays readable. *)
let test_owrite_size_past_buffer_rejected () =
  check_probe "owrite"
    (probe (fun _ ctx ->
         Dstore.oput ctx "w" (value_of_string "before");
         let o = Dstore.oopen ctx "w" Dstore.Rdwr in
         expect_invalid "Dstore.owrite: size" (fun () ->
             Dstore.owrite o (Bytes.create 10) ~size:100 ~off:0);
         check Alcotest.string "w unchanged" "before"
           (Bytes.to_string (Option.get (Dstore.oget ctx "w")))))

(* A 40 000-byte key can never be indexed: it is a bad argument, not a
   full log. *)
let test_huge_key_invalid_not_log_full () =
  check_probe "oput"
    (probe (fun _ ctx ->
         expect_invalid "Dstore.oput: key" (fun () ->
             Dstore.oput ctx (long_key 40_000) (value_of_string "v"));
         Dstore.oput ctx "after" (value_of_string "ok")))

(* The remaining Table 2 argument checks, each before any claim, lock or
   append. A key of exactly [Btree.max_key_len] bytes is accepted. *)
let test_table2_arguments_checked () =
  check_probe "arguments"
    (probe (fun _ ctx ->
         let v = value_of_string "v" in
         let max = Dstore_structs.Btree.max_key_len in
         Dstore.oput ctx (long_key max) v;
         expect_invalid "Dstore.odelete: key" (fun () -> Dstore.odelete ctx (long_key (max + 1)));
         expect_invalid "Dstore.oopen: key" (fun () ->
             Dstore.oopen ctx (long_key (max + 1)) Dstore.Wr);
         expect_invalid "Dstore.txn_commit_writes: key" (fun () ->
             Dstore.txn_commit_writes ctx ~reads:[]
               ~writes:[ Dstore.Bput ("t", v); Dstore.Bput (long_key (max + 1), v) ]);
         Dstore.oput ctx "o" (Bytes.make 100 'o');
         let o = Dstore.oopen ctx "o" Dstore.Rdwr in
         let buf = Bytes.create 10 in
         expect_invalid "Dstore.owrite: off" (fun () -> Dstore.owrite o buf ~size:1 ~off:(-1));
         expect_invalid "Dstore.owrite: size" (fun () -> Dstore.owrite o buf ~size:(-1) ~off:0);
         expect_invalid "Dstore.oread: off" (fun () -> Dstore.oread o buf ~size:1 ~off:(-1));
         expect_invalid "Dstore.oread: size" (fun () -> Dstore.oread o buf ~size:(-1) ~off:0);
         expect_invalid "Dstore.oread: size" (fun () -> Dstore.oread o buf ~size:11 ~off:0);
         check Alcotest.bool "t unbound" false (Dstore.oexists ctx "t");
         check Alcotest.int "o readable" 10 (Dstore.oread o buf ~size:10 ~off:0)))

(* Every writer on an idle store: elapsed virtual time, spans finished,
   and the last span's blame total and segments (in [segs] order), as
   recorded before the writers shared one bracket. *)
let pinned_writes =
  [
    ("oput", (10183, 1, 0, [ 300; 8900; 0; 60; 300; 300; 323; 0; 0; 0; 0 ]));
    ("odelete", (960, 1, 0, [ 0; 0; 0; 60; 300; 300; 300; 0; 0; 0; 0 ]));
    ("obatch", (12266, 1, 0, [ 900; 8900; 362; 240; 638; 0; 907; 0; 319; 0; 0 ]));
    ("txn", (10210, 1, 0, [ 1200; 6408; 93; 360; 650; 0; 1199; 0; 300; 0; 0 ]));
    ("oopen create", (1252, 0, 0, []));
    ("owrite in place", (19560, 1, 0, [ 0; 18900; 0; 60; 300; 300; 0; 0; 0; 0; 0 ]));
    ("owrite extending", (9852, 1, 0, [ 0; 8900; 0; 60; 300; 300; 292; 0; 0; 0; 0 ]));
    ("oput physical", (10471, 0, 0, []));
  ]

let test_equivalent_writes_pinned () =
  let module Span = Dstore_obs.Span in
  let segs =
    Span.
      [ S_index; S_data; S_ticket; S_lock; S_append; S_fence; S_structs; S_stage; S_commit;
        S_cache_fill; S_other ]
  in
  let record cfg body =
    with_store ~cfg (fun fx st ctx ->
        let rc = (Dstore.obs st).Dstore_obs.Obs.spans in
        let out = ref [] in
        let once name f =
          let t0 = Sim.now fx.sim and f0 = Span.finished rc in
          f ();
          let n = Span.finished rc - f0 in
          let last =
            match Span.last rc 1 with
            | [ s ] when n > 0 -> (Span.blame_total s, List.map (Span.segment s) segs)
            | _ -> (0, [])
          in
          out := (name, (Sim.now fx.sim - t0, n, fst last, snd last)) :: !out
        in
        body ctx once;
        List.rev !out)
  in
  let v = big_value 9 1000 in
  let logical =
    record { small_cfg with Config.cache_bytes = 1 lsl 20 } (fun ctx once ->
        once "oput" (fun () -> Dstore.oput ctx "p" v);
        once "odelete" (fun () -> ignore (Dstore.odelete ctx "p"));
        Dstore.oput ctx "b2" v;
        once "obatch" (fun () ->
            ignore
              (Dstore.obatch ctx
                 Dstore.[ Bput ("b0", v); Bput ("b1", v); Bdelete "b2"; Bput ("b3", v) ]));
        once "txn" (fun () ->
            match
              Dstore_txn.txn ctx (fun tx ->
                  List.iter (fun k -> Dstore_txn.put tx k v) [ "t0"; "t1"; "t2"; "t3" ])
            with
            | Ok () -> ()
            | Error r -> Alcotest.failf "txn: %s" (Dstore_txn.pp_abort r));
        let o = ref None in
        once "oopen create" (fun () -> o := Some (Dstore.oopen ctx "f" Dstore.Rdwr));
        let o = Option.get !o in
        ignore (Dstore.owrite o (big_value 10 4096) ~size:4096 ~off:0);
        once "owrite in place" (fun () -> ignore (Dstore.owrite o v ~size:100 ~off:50));
        once "owrite extending" (fun () -> ignore (Dstore.owrite o v ~size:100 ~off:4096)))
  in
  let physical =
    record { small_cfg with Config.logging = Config.Physical } (fun ctx once ->
        once "oput physical" (fun () -> Dstore.oput ctx "x" v))
  in
  let got = logical @ physical in
  check
    Alcotest.(list (pair string (pair (pair int int) (pair int (list int)))))
    "writers as pinned"
    (List.map (fun (k, (a, b, c, d)) -> (k, ((a, b), (c, d)))) pinned_writes)
    (List.map (fun (k, (a, b, c, d)) -> (k, ((a, b), (c, d)))) got)

(* Host words per call of every writer with observability off, each
   bounded by what it cost before the writers shared one bracket: the
   allocation may fall but must not rise. *)
let pinned_write_words =
  [
    ("oput", 335.1);
    ("odelete", 150.6);
    ("obatch", 1300.9);
    ("txn", 2090.5);
    ("oopen create", 218.0);
    ("owrite in place", 203.0);
    ("owrite extending", 459.2);
    ("oput physical", 603.0);
  ]

let test_write_alloc_pinned () =
  let per_call cfg body =
    with_store ~cfg:{ cfg with Config.obs_enabled = false } (fun _ _ ctx ->
        let out = ref [] in
        let measure name n ~setup f =
          let total = ref 0.0 in
          let round () =
            total := 0.0;
            for i = 0 to n - 1 do
              setup i;
              let w0 = Gc.minor_words () in
              f i;
              total := !total +. (Gc.minor_words () -. w0)
            done
          in
          round ();
          round ();
          out := (name, !total /. float_of_int n) :: !out
        in
        body ctx measure;
        List.rev !out)
  in
  let v = big_value 9 1000 in
  let keys = Array.init 64 (Printf.sprintf "w/%02d") in
  let key i = keys.(i land 63) in
  let none _ = () in
  let logical =
    per_call small_cfg (fun ctx measure ->
        measure "oput" 256 ~setup:none (fun i -> Dstore.oput ctx (key i) v);
        measure "odelete" 256
          ~setup:(fun i -> Dstore.oput ctx (key i) v)
          (fun i -> ignore (Dstore.odelete ctx (key i)));
        let batches =
          Array.init 16 (fun j ->
              Dstore.
                [ Bput (key (4 * j), v); Bput (key ((4 * j) + 1), v); Bdelete (key ((4 * j) + 2));
                  Bput (key ((4 * j) + 3), v) ])
        in
        measure "obatch" 256 ~setup:none (fun i -> ignore (Dstore.obatch ctx batches.(i land 15)));
        let txn_keys = Array.init 16 (fun j -> List.init 4 (fun m -> key ((4 * j) + m))) in
        measure "txn" 256 ~setup:none (fun i ->
            ignore
              (Dstore_txn.txn ctx (fun tx ->
                   List.iter (fun k -> Dstore_txn.put tx k v) txn_keys.(i land 15))));
        let names = Array.init 512 (Printf.sprintf "c/%03d") in
        let round = ref 0 in
        measure "oopen create" 256
          ~setup:(fun i -> if i = 0 then incr round)
          (fun i -> ignore (Dstore.oopen ctx names.((!round - 1) * 256 + i) Dstore.Wr));
        Dstore.oput ctx "ip" (big_value 10 4096);
        let ip = Dstore.oopen ctx "ip" Dstore.Rdwr in
        measure "owrite in place" 256 ~setup:none (fun _ ->
            ignore (Dstore.owrite ip v ~size:100 ~off:50));
        let handle = ref ip and big = big_value 11 4000 in
        measure "owrite extending" 256
          ~setup:(fun i ->
            Dstore.oput ctx (key i) v;
            handle := Dstore.oopen ctx (key i) Dstore.Rdwr)
          (fun _ -> ignore (Dstore.owrite !handle big ~size:4000 ~off:1000)))
  in
  let physical =
    per_call { small_cfg with Config.logging = Config.Physical } (fun ctx measure ->
        measure "oput physical" 256 ~setup:none (fun i -> Dstore.oput ctx (key i) v))
  in
  let got = logical @ physical in
  List.iter
    (fun (name, w) ->
      match List.assoc_opt name pinned_write_words with
      | None -> Alcotest.failf "%s: not pinned" name
      | Some bound -> if w > bound then Alcotest.failf "%s: %.1f words > %.1f" name w bound)
    got

let suite =
  [
    ("put/get", `Quick, test_put_get);
    ("get missing", `Quick, test_get_missing);
    ("put overwrite", `Quick, test_put_overwrite);
    ("put 4KB roundtrip", `Quick, test_put_4k_roundtrip);
    ("put multiblock (16KB)", `Quick, test_put_multiblock);
    ("put odd size", `Quick, test_put_odd_size);
    ("empty value", `Quick, test_empty_value);
    ("delete", `Quick, test_delete);
    ("delete frees blocks", `Quick, test_delete_frees_blocks);
    ("overwrite releases old blocks", `Quick, test_overwrite_releases_old_blocks);
    ("500 objects", `Quick, test_many_objects);
    ("iter names sorted", `Quick, test_iter_names_sorted);
    ("olist prefix scan", `Quick, test_olist_prefix);
    ("open/write/read", `Quick, test_open_write_read);
    ("open no-create missing", `Quick, test_open_no_create);
    ("owrite extends", `Quick, test_owrite_extend);
    ("owrite in-place", `Quick, test_owrite_inplace_no_log);
    ("oread past end", `Quick, test_oread_past_end);
    ("closed handle rejected", `Quick, test_oclose_rejects_use);
    ("olock/ounlock", `Quick, test_olock_ounlock);
    ("olock blocks writer", `Quick, test_olock_blocks_writer);
    ("olock release wakes the writer", `Quick, fun () -> check_woken_at_event olock_run);
    ( "reader exit wakes the draining writer",
      `Quick,
      fun () -> check_woken_at_event (drain_run Plain) );
    ( "read_entry back-out wakes the draining writer",
      `Quick,
      fun () -> check_woken_at_event (drain_run Back_out) );
    ( "short-buffer exit wakes the draining writer",
      `Quick,
      fun () -> check_woken_at_event (drain_run Short_buffer) );
    ("hot keys: every op completes (sim)", `Quick, test_hot_mix_sim);
    ("hot keys: every op completes (threads)", `Quick, test_hot_mix_real);
    ("hot keys: no ticket re-parks (sim)", `Quick, test_hot_puts_no_reparks);
    ("checkpoint_now", `Quick, test_checkpoint_now);
    ("automatic checkpoints", `Quick, test_checkpoint_automatic);
    ("No_checkpoint raises Log_full", `Quick, test_no_checkpoint_mode_log_full);
    ("CoW checkpoint mode", `Quick, test_checkpoint_cow_mode);
    ("CoW: reads in a B-tree split's window", `Quick, test_cow_split_window_reads);
    ( "delta clone: first full, then delta",
      `Quick,
      test_delta_clone_first_full_then_delta );
    ("Full clone ablation mode", `Quick, test_full_clone_ablation_mode);
    ("physical logging mode", `Quick, test_physical_logging_mode);
    ("concurrent distinct keys", `Quick, test_concurrent_distinct_keys);
    ("concurrent same key serialized", `Quick, test_concurrent_same_key_serialized);
    ("oput alloc budget", `Quick, test_oput_alloc_budget);
    ("cached read alloc budget", `Quick, test_cached_read_alloc_budget);
    ("equivalent reads match", `Quick, test_equivalent_reads_match);
    ("readers exclude writer", `Quick, test_readers_exclude_writer);
    ("swap moves in-flight records", `Quick, test_swap_moves_inflight_records);
    ("moved record survives crash", `Quick, test_moved_record_survives_crash);
    ("olock holder passthrough", `Quick, test_olock_holder_passthrough);
    ("cow faults counted", `Quick, test_cow_faults_counted);
    ("physical-mode crash recovery", `Quick, test_physical_mode_crash_recovery);
    ("physical-mode deletes and batches", `Quick, test_physical_mode_deletes_and_batches);
    ("recover clean shutdown", `Quick, test_recover_clean);
    ("recover after checkpoint", `Quick, test_recover_after_checkpoint);
    ("recover crash drop-all", `Quick, test_recover_crash_drop_all);
    ("recover crash mid-checkpoint", `Quick, test_recover_crash_mid_checkpoint);
    ("owrite crash consistency", `Quick, test_owrite_crash_consistency);
    ("recover uninitialized fails", `Quick, test_recover_uninitialized_fails);
    ("double recovery idempotent", `Quick, test_double_recovery_idempotent);
    ("obatch basic", `Quick, test_obatch_basic);
    ("obatch duplicate keys", `Quick, test_obatch_duplicate_keys);
    ("obatch under own olock", `Quick, test_obatch_locked_key);
    ("obatch fence amortization", `Quick, test_obatch_fence_amortization);
    ("obatch crash: acked batch survives", `Quick, test_obatch_crash_all_committed);
    ("put out of blocks: all or nothing", `Quick, test_put_out_of_blocks_all_or_nothing);
    ("put out of meta ids: all or nothing", `Quick, test_put_out_of_meta_all_or_nothing);
    ("Log_full: all or nothing", `Quick, test_log_full_all_or_nothing);
    ("obatch stage failure: all or nothing", `Quick, test_obatch_stage_failure_all_or_nothing);
    ("get during staged payload: no conflict", `Quick, test_get_during_payload_no_conflict);
    ( "obatch duplicate keys: one payload round",
      `Quick,
      test_obatch_duplicate_keys_one_payload_round );
    ("put pmem cost unchanged", `Quick, test_put_pmem_cost_unchanged);
    ("owrite on vanished object releases lock", `Quick, test_owrite_vanished_object_releases_lock);
    ("overwrite freeing many extents", `Quick, test_overwrite_frees_many_extents);
    ( "outgrown record Log_full: all or nothing",
      `Quick,
      test_outgrown_record_log_full_all_or_nothing );
    ("txn commit visible + counted", `Quick, test_txn_commit_visible);
    ("txn read-your-writes", `Quick, test_txn_read_your_writes);
    ("txn abort untouched", `Quick, test_txn_abort_untouched);
    ("txn stale read aborts", `Quick, test_txn_stale_read_aborts);
    ("txn abort does no device work", `Quick, test_txn_abort_no_device_work);
    ( "txn payload durable before commit",
      `Quick,
      test_txn_payload_durable_before_commit );
    ("txn span owns reads and exceptions", `Quick, test_txn_span_owns_reads);
    ("txn structures overlap payloads", `Quick, test_txn_structures_overlap_payloads);
    ("par_iter/sim: joins before raising", `Quick, test_par_iter_sim);
    ("par_iter/threads: joins before raising", `Quick, test_par_iter_threads);
    ("txn retry wrapper recommits", `Quick, test_txn_retry_commits);
    ("txn read-only validates", `Quick, test_txn_readonly_validates);
    ("txn conflict scan one-pass", `Quick, test_conflict_scan_one_pass);
    prop_key_table_matches_scan;
    ("txn crash: committed span survives", `Quick, test_txn_crash_committed_survives);
    ("txn crash: torn span dropped", `Quick, test_txn_torn_span_dropped);
    prop_crash_recovery_observational_equivalence;
    ("short read buffer frees the key", `Quick, test_short_buffer_frees_key);
    ("a raising read finishes its span", `Quick, test_read_raise_finishes_span);
    ("a raising write finishes its span", `Quick, test_write_raise_finishes_span);
    ("oread alloc independent of object size", `Quick, test_oread_alloc_independent_of_size);
    ("zero-length oread", `Quick, test_oread_zero_length);
    ("obatch: over-long key rejected at entry", `Quick, test_obatch_long_key_rejected);
    ("owrite: size past buffer rejected at entry", `Quick, test_owrite_size_past_buffer_rejected);
    ("40 000-byte key: Invalid_argument, not Log_full", `Quick, test_huge_key_invalid_not_log_full);
    ("Table 2 arguments checked at entry", `Quick, test_table2_arguments_checked);
    ("equivalent writes pinned", `Quick, test_equivalent_writes_pinned);
    ("write alloc pinned", `Quick, test_write_alloc_pinned);
    ("physical put out of meta ids: pools exact", `Quick, test_physical_put_out_of_meta_exact);
    ("swap persists a moved group in two fences", `Quick, test_swap_persists_moved_group);
    ("crash sweep over a swap re-homing a group", `Quick, test_swap_group_crash_sweep);
  ]
