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
  ]
