(* The transaction retry policy: plain OCC, one immediate retry, then
   retries under volatile key reservations. A fixed key set commits
   within 3 attempts however hot its keys; crossing reservations abort
   instead of waiting on each other; reservations never outlive the
   [txn] call. *)

open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_core
open Dstore_util

let check = Alcotest.check

let cfg =
  {
    Config.default with
    log_slots = 1024;
    space_bytes = 4 * 1024 * 1024;
    meta_entries = 1024;
    ssd_blocks = 4096;
  }

let devices p =
  let pm =
    Pmem.create p
      { Pmem.default_config with size = Dipper.layout_bytes cfg; crash_model = false }
  in
  (pm, Ssd.create p { Ssd.default_config with pages = cfg.Config.ssd_blocks })

let key i = Printf.sprintf "hot%02d" i

let counter v = Int64.to_int (Bytes.get_int64_le v 0)

let incremented v =
  let v = Bytes.copy v in
  Bytes.set_int64_le v 0 (Int64.succ (Bytes.get_int64_le v 0));
  v

(* Run [body] as the main process of [p] and wait for everything it
   spawned: [join] is [Sim.run] or [Real_platform.join_all]. *)
let run_main p ~join body =
  let result = ref None in
  p.Platform.spawn "main" (fun () -> result := Some (body ()));
  join ();
  Option.get !result

(* [clients] clients each run [txns] read-modify-write transactions over
   4 distinct keys drawn Zipf(0.99) from [keys], with the default
   retries. Returns the largest attempt count any transaction took, the
   number of [Error]s, whether the counters sum to 4 x commits, and the
   engine's abort count. *)
let hot_key_rmw p ~join ~clients ~txns ~keys =
  run_main p ~join (fun () ->
      let pm, ssd = devices p in
      let st = Dstore.create p pm ssd cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to keys - 1 do
        Dstore.oput ctx (key i) (Bytes.make 8 '\000')
      done;
      let m = p.Platform.new_mutex () and c = p.Platform.new_cond () in
      let running = ref clients in
      let max_attempts = ref 0 and errors = ref 0 and commits = ref 0 in
      for cl = 0 to clients - 1 do
        p.Platform.spawn "client" (fun () ->
            let ctx = Dstore.ds_init st in
            let rng = Rng.create (1000 + cl) in
            let z = Zipf.create ~theta:0.99 keys in
            for _ = 1 to txns do
              let ks = ref [] in
              while List.length !ks < 4 do
                let k = key (Zipf.draw_scrambled z rng) in
                if not (List.mem k !ks) then ks := k :: !ks
              done;
              let attempts = ref 0 in
              let r =
                Dstore_txn.txn ctx (fun tx ->
                    incr attempts;
                    List.iter
                      (fun k ->
                        let v = Option.get (Dstore_txn.get tx k) in
                        Dstore_txn.put tx k (incremented v))
                      !ks)
              in
              Platform.with_lock m (fun () ->
                  max_attempts := max !max_attempts !attempts;
                  match r with Ok () -> incr commits | Error _ -> incr errors)
            done;
            Platform.with_lock m (fun () ->
                decr running;
                c.Platform.broadcast ()))
      done;
      Platform.with_lock m (fun () ->
          while !running > 0 do
            c.Platform.wait m
          done);
      let sum = ref 0 in
      for i = 0 to keys - 1 do
        sum := !sum + counter (Option.get (Dstore.oget ctx (key i)))
      done;
      let aborts = (Dipper.stats (Dstore.engine st)).Dipper.txns_aborted in
      Dstore.stop st;
      (!max_attempts, !errors, !sum = 4 * !commits, aborts))

let check_hot_key (max_attempts, errors, sum_ok, _) =
  check Alcotest.int "no transaction gave up" 0 errors;
  Alcotest.(check bool)
    (Printf.sprintf "every commit within 3 attempts (max %d)" max_attempts)
    true (max_attempts <= 3);
  Alcotest.(check bool) "counters sum to 4 x commits" true sum_ok

let test_hot_key_bounded () =
  let sim = Sim.create () in
  let p = Sim_platform.make ~parallelism:16 sim in
  let (_, _, _, aborts) as r =
    hot_key_rmw p ~join:(fun () -> Sim.run sim) ~clients:16 ~txns:40 ~keys:50
  in
  check_hot_key r;
  Alcotest.(check bool) "the workload did contend" true (aborts > 0);
  check Alcotest.int "nothing left blocked" 0 (Sim.blocked_processes sim)

let test_hot_key_bounded_real () =
  let rp = Real_platform.create ~parallelism:2 () in
  let p = Real_platform.platform rp in
  check_hot_key
    (hot_key_rmw p ~join:(fun () -> Real_platform.join_all rp) ~clients:16 ~txns:10
       ~keys:50)

(* A fresh sim with a store: [body sim p st] runs as the main process,
   and nothing may be left blocked once the sim drains. *)
let with_sim body =
  let sim = Sim.create () in
  let p = Sim_platform.make ~parallelism:4 sim in
  run_main p
    ~join:(fun () -> Sim.run sim)
    (fun () ->
      let pm, ssd = devices p in
      let st = Dstore.create p pm ssd cfg in
      body sim p st;
      Dstore.stop st);
  check Alcotest.int "nothing left blocked" 0 (Sim.blocked_processes sim)

(* A body that loses its first two attempts: it reads [own], then a
   second context commits to [own] behind its back. Its third attempt
   runs under a reservation on what the first two touched. *)
let lose_twice ~spoiler ~own attempts tx =
  incr attempts;
  ignore (Dstore_txn.get tx own);
  if !attempts <= 2 then Dstore.oput spoiler own (Bytes.of_string "spoil")

let test_reservation_blocks_others () =
  with_sim (fun sim p st ->
      let holder = Dstore.ds_init st and other = Dstore.ds_init st in
      Dstore.oput holder "r" (Bytes.of_string "v0");
      Dstore.reserve holder [ "r" ];
      let put_done = ref (-1) in
      p.Platform.spawn "other" (fun () ->
          Dstore.oput other "r" (Bytes.of_string "other");
          put_done := Sim.now sim);
      Sim.wait sim 50_000;
      check Alcotest.int "other writer waits on the reservation" (-1) !put_done;
      Dstore.oput holder "r" (Bytes.of_string "holder");
      check Alcotest.string "the holder's own write passes" "holder"
        (Bytes.to_string (Option.get (Dstore.oget holder "r")));
      let released_at = Sim.now sim in
      Dstore.release holder;
      Sim.wait sim 50_000;
      Alcotest.(check bool) "other writer runs after the release" true
        (!put_done >= released_at))

(* Two transactions each read their own key, lose twice, then reserve it
   and touch the key the other one reserved: a read meets the other's
   reservation in the read phase, a blind write meets it at commit.
   Neither waits on the other: the one that meets the other's
   reservation aborts, reserves the union once it is free, and both
   commit. *)
let crossing_reservations ~cross () =
  with_sim (fun sim p st ->
      let spoiler = Dstore.ds_init st in
      Dstore.oput spoiler "x" (Bytes.of_string "x0");
      Dstore.oput spoiler "y" (Bytes.of_string "y0");
      let m = p.Platform.new_mutex () and c = p.Platform.new_cond () in
      let results = ref [] in
      let run own theirs =
        p.Platform.spawn ("txn-" ^ own) (fun () ->
            let ctx = Dstore.ds_init st in
            let attempts = ref 0 in
            let r =
              Dstore_txn.txn ctx (fun tx ->
                  lose_twice ~spoiler ~own attempts tx;
                  if !attempts >= 3 then begin
                    (* Both now hold a reservation on their own key. *)
                    Sim.wait sim 20_000;
                    match cross with
                    | `Read -> ignore (Dstore_txn.get tx theirs)
                    | `Write -> Dstore_txn.put tx theirs (Bytes.of_string ("by-" ^ own))
                  end;
                  Dstore_txn.put tx own (Bytes.of_string ("by-" ^ own)))
            in
            Platform.with_lock m (fun () ->
                results := (own, r, !attempts) :: !results;
                c.Platform.broadcast ()))
      in
      run "x" "y";
      run "y" "x";
      Platform.with_lock m (fun () ->
          while List.length !results < 2 do
            c.Platform.wait m
          done);
      List.iter
        (fun (own, r, _) ->
          Alcotest.(check bool) (own ^ " committed") true (Result.is_ok r))
        !results;
      (match cross with
      | `Read ->
          List.iter
            (fun own ->
              check Alcotest.string (own ^ " visible") ("by-" ^ own)
                (Bytes.to_string (Option.get (Dstore.oget spoiler own))))
            [ "x"; "y" ]
      | `Write ->
          (* Both wrote both keys: the later commit owns both. *)
          check Alcotest.string "one transaction's writes, whole"
            (Bytes.to_string (Option.get (Dstore.oget spoiler "x")))
            (Bytes.to_string (Option.get (Dstore.oget spoiler "y"))));
      Alcotest.(check bool) "a holder aborted on the other's reservation" true
        (List.exists (fun (_, _, attempts) -> attempts >= 4) !results))

let test_raise_releases_reservations () =
  with_sim (fun sim p st ->
      let ctx = Dstore.ds_init st and spoiler = Dstore.ds_init st in
      Dstore.oput spoiler "z" (Bytes.of_string "z0");
      let attempts = ref 0 in
      (match
         Dstore_txn.txn ctx (fun tx ->
             lose_twice ~spoiler ~own:"z" attempts tx;
             if !attempts = 3 then raise Exit;
             Dstore_txn.put tx "z" (Bytes.of_string "never"))
       with
      | _ -> Alcotest.fail "exception swallowed"
      | exception Exit -> ());
      check Alcotest.int "raised under the reservation" 3 !attempts;
      let put_done = ref false in
      p.Platform.spawn "writer" (fun () ->
          Dstore.oput spoiler "z" (Bytes.of_string "after");
          put_done := true);
      Sim.wait sim 1_000_000;
      Alcotest.(check bool) "a later put on the key completes" true !put_done;
      check Alcotest.string "its value" "after"
        (Bytes.to_string (Option.get (Dstore.oget spoiler "z"))))

(* --- the pass ------------------------------------------------------------- *)

(* A passing transaction T2 reads and overwrites a value of T1 while T1's
   payload writes still run. The scenarios below use the cache (a passing
   read hits T1's write-through) unless they say otherwise. *)
let cached = { cfg with Config.cache_bytes = 1024 * 1024 }

let str v = Bytes.to_string (Option.get v)

(* Run [body sim p pm st] as the main process over a fresh store on
   [ssd_cfg]; returns what it returned. *)
let on_store ?(cfg = cached) ?(crash_model = false) ?(ssd_cfg = Ssd.default_config) sim body =
  let p = Sim_platform.make ~parallelism:4 sim in
  let pm =
    Pmem.create p { Pmem.default_config with size = Dipper.layout_bytes cfg; crash_model }
  in
  let ssd = Ssd.create p { ssd_cfg with Ssd.pages = min ssd_cfg.Ssd.pages cfg.Config.ssd_blocks } in
  let result = ref None in
  Sim.spawn sim "main" (fun () ->
      let st = Dstore.create p pm ssd cfg in
      result := Some (body p pm ssd st);
      Dstore.stop st);
  (pm, ssd, result)

(* A planted power cut: it stops the whole simulation. *)
exception Crash of int

(* Spawn [f] and return a function that waits for it, with its result or
   the exception it raised, a [Crash] apart. *)
let fork p name f =
  let m = p.Platform.new_mutex () and c = p.Platform.new_cond () in
  let r = ref None in
  p.Platform.spawn name (fun () ->
      let v = match f () with v -> Ok v | exception (Crash _ as e) -> raise e | exception e -> Error e in
      Platform.with_lock m (fun () ->
          r := Some v;
          c.Platform.broadcast ()));
  fun () ->
    Platform.with_lock m (fun () ->
        while !r = None do
          c.Platform.wait m
        done);
    Option.get !r

let big = Bytes.make (8 * 4096) 'A'

(* T1 rewrites "s" and an 8-page "a" (one 71 us SSD write); T2 starts
   20 us later, reads "s" past T1's pass and rewrites "s" and "b"; a
   checkpoint starts 40 us in, while both are in flight, and re-homes
   them to the other log. Returns T2's read of "s" and the two results. *)
let dependency_scenario sim p st =
  let c1 = Dstore.ds_init st and c2 = Dstore.ds_init st in
  let ckpt =
    fork p "ckpt" (fun () ->
        Sim.wait sim 40_000;
        Dstore.checkpoint_now st)
  in
  let t1 =
    fork p "t1" (fun () ->
        Dstore_txn.txn ~retries:0 c1 (fun tx ->
            ignore (Dstore_txn.get tx "s");
            Dstore_txn.put tx "s" (Bytes.of_string "t1");
            Dstore_txn.put tx "a" big))
  in
  let seen = ref "" in
  let t2 =
    fork p "t2" (fun () ->
        Sim.wait sim 20_000;
        Dstore_txn.txn ~retries:0 c2 (fun tx ->
            seen := str (Dstore_txn.get tx "s");
            Dstore_txn.put tx "s" (Bytes.of_string "t2");
            Dstore_txn.put tx "b" (Bytes.of_string "t2")))
  in
  let r1 = t1 () and r2 = t2 () in
  ignore (ckpt ());
  (!seen, r1, r2)

let seed_dependency_keys st =
  let ctx = Dstore.ds_init st in
  List.iter (fun (k, v) -> Dstore.oput ctx k (Bytes.of_string v)) [ ("s", "s0"); ("a", "a0"); ("b", "b0") ]

(* Cut the power ([Drop_all]) and recover on [sim]: [f read] over the
   recovered store, where [read k] is [k]'s value, and what [Fsck]
   found. *)
let power_cut sim pm ssd f =
  Pmem.set_persist_hook pm None;
  Pmem.crash pm Pmem.Drop_all;
  Sim.clear_pending sim;
  let p = Sim_platform.make ~parallelism:4 sim in
  let got = ref None in
  Sim.spawn sim "recover" (fun () ->
      let st = Dstore.recover p pm ssd cached in
      let ctx = Dstore.ds_init st in
      got := Some (f (fun k -> Option.map Bytes.to_string (Dstore.oget ctx k)), Dstore_check.Fsck.run st);
      Dstore.stop st);
  Sim.run sim;
  Option.get !got

(* Crash at every persistence event from T1's start to the end of both
   transactions: recovery shows neither, T1 alone, or both, never T2
   without T1, and never T1 at a crash before its 8-page payload write
   could have ended (the checkpoint's log swap must not commit it
   early). The recovered pools are exact. *)
let test_commit_dependency_crash () =
  let at = Hashtbl.create 256 and start = ref 0 in
  let run ~crash_at =
    let sim = Sim.create () in
    let first = ref 0 in
    let pm, ssd, result =
      on_store ~crash_model:true sim (fun p pm _ st ->
          seed_dependency_keys st;
          first := Pmem.persist_events pm;
          start := Sim.now sim;
          Pmem.set_persist_hook pm
            (Some
               (fun n ->
                 Hashtbl.replace at n (Sim.now sim);
                 if Some n = crash_at then raise (Crash n)));
          dependency_scenario sim p st)
    in
    let crashed = match Sim.run sim with () -> false | exception Crash _ -> true in
    (sim, pm, ssd, result, !first, crashed)
  in
  let _, pm, _, result, first, _ = run ~crash_at:None in
  let last = Pmem.persist_events pm in
  let written = !start + (8 * Ssd.default_config.Ssd.write_page_ns) in
  let seen, r1, r2 = Option.get !result in
  let ok = function Ok (Ok ()) -> true | _ -> false in
  Alcotest.(check bool) "both committed" true (ok r1 && ok r2);
  check Alcotest.string "T2 read T1's value before T1's commit" "t1" seen;
  let outcomes = Hashtbl.create 4 in
  for k = first + 1 to last do
    let sim, pm, ssd, _, _, crashed = run ~crash_at:(Some k) in
    Alcotest.(check bool) (Printf.sprintf "event %d reached" k) true crashed;
    let state, fsck = power_cut sim pm ssd (fun read -> (read "s", read "a", read "b")) in
    check Alcotest.(list string) (Printf.sprintf "event %d: pools exact" k) [] fsck;
    let a1 = Some (Bytes.to_string big) in
    let outcome =
      match state with
      | Some "s0", Some "a0", Some "b0" -> "neither"
      | Some "t1", a, Some "b0" when a = a1 -> "T1 alone"
      | Some "t2", a, Some "t2" when a = a1 -> "both"
      | _ -> Alcotest.failf "event %d: recovered a state that is no outcome" k
    in
    if outcome <> "neither" && Hashtbl.find at k < written then
      Alcotest.failf "event %d at %d ns: T1 recovered before its payload was written (%d ns)" k
        (Hashtbl.find at k) written;
    Hashtbl.replace outcomes outcome ()
  done;
  check Alcotest.int "every outcome seen" 3 (Hashtbl.length outcomes)

(* Cache off: a versioned read that passes T1 follows the index to T1's
   pages, so it returns T1's value only once T1's payload is written.
   With the cache, the same read passes T1 long before. *)
let passing_read ~cfg () =
  let sim = Sim.create () in
  let slow = { Ssd.default_config with write_page_ns = 200_000; read_page_ns = 1_000 } in
  let _, _, result =
    on_store ~cfg ~ssd_cfg:slow sim (fun p _ _ st ->
        let c1 = Dstore.ds_init st and c2 = Dstore.ds_init st in
        Dstore.oput c1 "k" (Bytes.of_string "k0");
        let t0 = Sim.now sim in
        let t1 =
          fork p "t1" (fun () ->
              Dstore_txn.txn ~retries:0 c1 (fun tx ->
                  ignore (Dstore_txn.get tx "k");
                  Dstore_txn.put tx "k" (Bytes.of_string "t1")))
        in
        Sim.wait sim 20_000;
        let read_at = ref 0 in
        let r2 =
          Dstore_txn.txn ~retries:0 c2 (fun tx ->
              let v = str (Dstore_txn.get tx "k") in
              read_at := Sim.now sim - t0;
              v)
        in
        ignore (t1 ());
        (r2, !read_at))
  in
  Sim.run sim;
  check Alcotest.int "nothing left blocked" 0 (Sim.blocked_processes sim);
  let r2, read_at = Option.get !result in
  check Alcotest.(result string reject) "T2 read T1's value" (Ok "t1")
    (Result.map_error (fun _ -> ()) r2);
  read_at

let test_passing_read_miss_waits () =
  let read_at = passing_read ~cfg () in
  Alcotest.(check bool)
    (Printf.sprintf "read after T1's 200 us payload (at %d ns)" read_at)
    true (read_at >= 200_000)

let test_passing_read_hit_passes () =
  let read_at = passing_read ~cfg:cached () in
  Alcotest.(check bool)
    (Printf.sprintf "read before T1's payload ends (at %d ns)" read_at)
    true (read_at < 200_000)

(* Six clients increment "h" in transactions back to back for 3 ms, so
   passed members sit on it all the time; a plain [oget] issued 0.5 ms in
   still completes within 100 us. *)
let test_plain_get_not_starved () =
  let sim = Sim.create () in
  let _, _, result =
    on_store sim (fun p _ _ st ->
        let ctx = Dstore.ds_init st in
        Dstore.oput ctx "h" (Bytes.make 8 '\000');
        let stop = ref false and commits = ref 0 in
        let clients =
          List.init 6 (fun i ->
              fork p (Printf.sprintf "c%d" i) (fun () ->
                  let c = Dstore.ds_init st in
                  while not !stop do
                    match
                      Dstore_txn.txn c (fun tx ->
                          Dstore_txn.put tx "h" (incremented (Option.get (Dstore_txn.get tx "h"))))
                    with
                    | Ok () -> incr commits
                    | Error _ -> ()
                  done))
        in
        p.Platform.spawn "stop" (fun () ->
            Sim.wait sim 3_000_000;
            stop := true);
        Sim.wait sim 500_000;
        let t0 = Sim.now sim in
        let v = Dstore.oget ctx "h" in
        let waited = Sim.now sim - t0 in
        let at_get = !commits in
        List.iter (fun join -> ignore (join ())) clients;
        (waited, at_get, !commits, counter (Option.get v), counter (Option.get (Dstore.oget ctx "h"))))
  in
  Sim.run sim;
  check Alcotest.int "nothing left blocked" 0 (Sim.blocked_processes sim);
  let waited, at_get, commits, got, final = Option.get !result in
  Alcotest.(check bool) (Printf.sprintf "the stream ran (%d commits)" at_get) true (at_get > 20);
  Alcotest.(check bool)
    (Printf.sprintf "oget done within 100 us (waited %d ns)" waited)
    true (waited <= 100_000);
  Alcotest.(check bool) "oget saw a committed count" true (got <= commits);
  check Alcotest.int "counter = commits" commits final

(* T1's payload write raises (its second member lies past the end of a
   4-page device) after its pass; T2 took T1's value of "s" meanwhile. T2
   must neither commit nor wait for ever. A plain get of "s" never sees
   the uncommitted state both applied: it waits for good (fail-stop), and
   recovery brings back "s0" with exact pools. *)
let test_failed_pass_frees_dependents () =
  let sim = Sim.create () in
  let small = { Ssd.default_config with pages = 4; write_page_ns = 100_000 } in
  let pm, ssd, result =
    on_store ~crash_model:true ~ssd_cfg:small sim (fun p _ _ st ->
        let c0 = Dstore.ds_init st and c1 = Dstore.ds_init st and c2 = Dstore.ds_init st in
        Dstore.oput c0 "s" (Bytes.of_string "s0");
        let committed () = (Dipper.stats (Dstore.engine st)).Dipper.txns_committed in
        let before = committed () in
        let t1 =
          fork p "t1" (fun () ->
              Dstore_txn.txn ~retries:0 c1 (fun tx ->
                  ignore (Dstore_txn.get tx "s");
                  Dstore_txn.put tx "s" (Bytes.of_string "t1");
                  Dstore_txn.put tx "a" (Bytes.make (4 * 4096) 'a')))
        in
        Sim.wait sim 20_000;
        let seen = ref "" in
        let r2 =
          match
            Dstore_txn.txn ~retries:0 c2 (fun tx ->
                seen := str (Dstore_txn.get tx "s");
                Dstore_txn.delete tx "s")
          with
          | Ok () -> "committed"
          | Error _ -> "aborted"
          | exception Dipper.Dependency_failed -> "dependency failed"
        in
        let r1 = match t1 () with Error (Invalid_argument _) -> "raised" | _ -> "no raise" in
        let got = ref None in
        p.Platform.spawn "get" (fun () -> got := Some (Dstore.oget c0 "s"));
        Sim.wait sim 1_000_000;
        (!seen, r1, r2, committed () - before, !got))
  in
  Sim.run sim;
  let seen, r1, r2, commits, got = Option.get !result in
  check Alcotest.string "T2 passed T1" "t1" seen;
  check Alcotest.string "T1's payload write raised" "raised" r1;
  check Alcotest.string "T2 failed with it" "dependency failed" r2;
  check Alcotest.int "nothing committed" 0 commits;
  check Alcotest.(option (option string)) "the plain get still waits" None
    (Option.map (Option.map Bytes.to_string) got);
  check Alcotest.int "only the plain get left blocked" 1 (Sim.blocked_processes sim);
  let s, fsck = power_cut sim pm ssd (fun read -> read "s") in
  check Alcotest.(option string) "recovered \"s\"" (Some "s0") s;
  check Alcotest.(list string) "recovered pools exact" [] fsck

let suite =
  [
    ("hot keys: bounded attempts, no give-up", `Quick, test_hot_key_bounded);
    ("hot keys on real threads", `Quick, test_hot_key_bounded_real);
    ("reservation blocks others, not the holder", `Quick, test_reservation_blocks_others);
    ("crossing reservations: both commit", `Quick, crossing_reservations ~cross:`Read);
    ( "crossing reservations at commit: both commit",
      `Quick,
      crossing_reservations ~cross:`Write );
    ("raising body releases its reservations", `Quick, test_raise_releases_reservations);
    ("pass: no dependent commits without its dependency", `Quick, test_commit_dependency_crash);
    ("pass: a cache-miss passing read waits for the payload", `Quick, test_passing_read_miss_waits);
    ("pass: a cache-hit passing read does not wait", `Quick, test_passing_read_hit_passes);
    ("pass: a plain get is not starved", `Quick, test_plain_get_not_starved);
    ("pass: a failed transaction frees its dependents", `Quick, test_failed_pass_frees_dependents);
  ]
