(* Tests for the discrete-event simulator and the platform abstraction. *)

open Dstore_platform

let check = Alcotest.check

(* --- clock & processes -------------------------------------------------- *)

let test_wait_advances_clock () =
  let sim = Sim.create () in
  let finished = ref (-1) in
  Sim.spawn sim "p" (fun () ->
      Sim.wait sim 500;
      finished := Sim.now sim);
  Sim.run sim;
  check Alcotest.int "clock" 500 !finished

let test_processes_interleave () =
  let sim = Sim.create () in
  let trace = ref [] in
  let note s = trace := (s, Sim.now sim) :: !trace in
  Sim.spawn sim "a" (fun () ->
      note "a1";
      Sim.wait sim 100;
      note "a2");
  Sim.spawn sim "b" (fun () ->
      Sim.wait sim 50;
      note "b1";
      Sim.wait sim 100;
      note "b2");
  Sim.run sim;
  check
    Alcotest.(list (pair string int))
    "interleaving"
    [ ("a1", 0); ("b1", 50); ("a2", 100); ("b2", 150) ]
    (List.rev !trace)

let test_spawn_from_process () =
  let sim = Sim.create () in
  let child_time = ref (-1) in
  Sim.spawn sim "parent" (fun () ->
      Sim.wait sim 10;
      Sim.spawn sim "child" (fun () ->
          Sim.wait sim 5;
          child_time := Sim.now sim));
  Sim.run sim;
  check Alcotest.int "child ran at 15" 15 !child_time

let test_equal_time_fifo () =
  let sim = Sim.create () in
  let order = ref [] in
  for i = 1 to 10 do
    Sim.spawn sim "p" (fun () -> order := i :: !order)
  done;
  Sim.run sim;
  check Alcotest.(list int) "spawn order preserved" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !order)

let test_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.spawn sim "ticker" (fun () ->
      for _ = 1 to 100 do
        Sim.wait sim 10;
        incr count
      done);
  Sim.run_until sim 55;
  check Alcotest.int "5 ticks by t=55" 5 !count;
  check Alcotest.int "clock set" 55 (Sim.now sim);
  Sim.run sim;
  check Alcotest.int "rest completes" 100 !count

let test_exception_propagates () =
  let sim = Sim.create () in
  Sim.spawn sim "boom" (fun () ->
      Sim.wait sim 10;
      failwith "kaboom");
  Alcotest.check_raises "propagates" (Failure "kaboom") (fun () -> Sim.run sim)

let test_process_accounting () =
  let sim = Sim.create () in
  let m = Sim.Mutex.create sim in
  Sim.spawn sim "holder" (fun () ->
      Sim.Mutex.lock m;
      Sim.wait sim 100;
      Sim.Mutex.unlock m);
  Sim.spawn sim "waiter" (fun () ->
      Sim.wait sim 1;
      Sim.Mutex.lock m;
      Sim.Mutex.unlock m);
  Sim.run_until sim 50;
  check Alcotest.int "one blocked at t=50" 1 (Sim.blocked_processes sim);
  check Alcotest.int "two live" 2 (Sim.live_processes sim);
  Sim.run sim;
  check Alcotest.int "none blocked" 0 (Sim.blocked_processes sim);
  check Alcotest.int "none live" 0 (Sim.live_processes sim)

(* --- mutex -------------------------------------------------------------- *)

let test_mutex_exclusion () =
  let sim = Sim.create () in
  let m = Sim.Mutex.create sim in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 10 do
    Sim.spawn sim "w" (fun () ->
        Sim.Mutex.lock m;
        incr inside;
        if !inside > !max_inside then max_inside := !inside;
        Sim.wait sim 10;
        decr inside;
        Sim.Mutex.unlock m)
  done;
  Sim.run sim;
  check Alcotest.int "mutual exclusion" 1 !max_inside;
  check Alcotest.int "serialized time" 100 (Sim.now sim)

let test_mutex_fifo () =
  let sim = Sim.create () in
  let m = Sim.Mutex.create sim in
  let order = ref [] in
  Sim.spawn sim "holder" (fun () ->
      Sim.Mutex.lock m;
      Sim.wait sim 100;
      Sim.Mutex.unlock m);
  for i = 1 to 5 do
    Sim.spawn sim "w" (fun () ->
        Sim.wait sim i;
        (* arrive in order 1..5 *)
        Sim.Mutex.lock m;
        order := i :: !order;
        Sim.Mutex.unlock m)
  done;
  Sim.run sim;
  check Alcotest.(list int) "FIFO handoff" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_mutex_locked_query () =
  let sim = Sim.create () in
  let m = Sim.Mutex.create sim in
  Alcotest.(check bool) "initially free" false (Sim.Mutex.locked m);
  Sim.spawn sim "p" (fun () ->
      Sim.Mutex.lock m;
      Sim.wait sim 10;
      Sim.Mutex.unlock m);
  Sim.run_until sim 5;
  Alcotest.(check bool) "held at t=5" true (Sim.Mutex.locked m);
  Sim.run sim;
  Alcotest.(check bool) "released" false (Sim.Mutex.locked m)

(* --- condition variables -------------------------------------------------- *)

let test_cond_signal () =
  let sim = Sim.create () in
  let m = Sim.Mutex.create sim in
  let c = Sim.Cond.create sim in
  let ready = ref false and woke_at = ref (-1) in
  Sim.spawn sim "waiter" (fun () ->
      Sim.Mutex.lock m;
      while not !ready do
        Sim.Cond.wait c m
      done;
      woke_at := Sim.now sim;
      Sim.Mutex.unlock m);
  Sim.spawn sim "signaller" (fun () ->
      Sim.wait sim 42;
      Sim.Mutex.lock m;
      ready := true;
      Sim.Cond.signal c;
      Sim.Mutex.unlock m);
  Sim.run sim;
  check Alcotest.int "woke at signal time" 42 !woke_at

let test_cond_broadcast () =
  let sim = Sim.create () in
  let m = Sim.Mutex.create sim in
  let c = Sim.Cond.create sim in
  let ready = ref false and woken = ref 0 in
  for _ = 1 to 7 do
    Sim.spawn sim "waiter" (fun () ->
        Sim.Mutex.lock m;
        while not !ready do
          Sim.Cond.wait c m
        done;
        incr woken;
        Sim.Mutex.unlock m)
  done;
  Sim.spawn sim "b" (fun () ->
      Sim.wait sim 10;
      Sim.Mutex.lock m;
      ready := true;
      Sim.Cond.broadcast c;
      Sim.Mutex.unlock m);
  Sim.run sim;
  check Alcotest.int "all woken" 7 !woken

let test_cond_no_lost_wakeup () =
  (* Signal delivered while the waiter holds the mutex but before wait:
     the waiter must re-check its predicate, not sleep forever. *)
  let sim = Sim.create () in
  let m = Sim.Mutex.create sim in
  let c = Sim.Cond.create sim in
  let ready = ref false and done_ = ref false in
  Sim.spawn sim "signaller" (fun () ->
      Sim.Mutex.lock m;
      ready := true;
      Sim.Cond.signal c;
      Sim.Mutex.unlock m);
  Sim.spawn sim "waiter" (fun () ->
      Sim.Mutex.lock m;
      while not !ready do
        Sim.Cond.wait c m
      done;
      done_ := true;
      Sim.Mutex.unlock m);
  Sim.run sim;
  Alcotest.(check bool) "completed" true !done_;
  check Alcotest.int "no deadlock" 0 (Sim.blocked_processes sim)

(* --- resources -------------------------------------------------------------- *)

let test_resource_capacity () =
  let sim = Sim.create () in
  let r = Sim.Resource.create sim ~capacity:3 in
  let finish = Array.make 9 0 in
  for i = 0 to 8 do
    Sim.spawn sim "u" (fun () ->
        Sim.Resource.use r ~service_ns:100;
        finish.(i) <- Sim.now sim)
  done;
  Sim.run sim;
  (* 9 jobs, 3 servers, 100 ns each: waves at 100, 200, 300. *)
  check Alcotest.(array int) "waves"
    [| 100; 100; 100; 200; 200; 200; 300; 300; 300 |]
    finish

let test_resource_queue_stats () =
  let sim = Sim.create () in
  let r = Sim.Resource.create sim ~capacity:1 in
  for _ = 1 to 5 do
    Sim.spawn sim "u" (fun () -> Sim.Resource.use r ~service_ns:10)
  done;
  Sim.run_until sim 5;
  check Alcotest.int "one in service" 1 (Sim.Resource.in_use r);
  check Alcotest.int "four queued" 4 (Sim.Resource.queued r);
  Sim.run sim;
  check Alcotest.int "drained" 0 (Sim.Resource.in_use r)

(* --- platform record over sim ----------------------------------------------- *)

let test_sim_platform_consume () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let t = ref 0 in
  p.Platform.spawn "x" (fun () ->
      p.Platform.consume 250;
      t := p.Platform.now ());
  Sim.run sim;
  check Alcotest.int "consumed" 250 !t

let test_sim_platform_mutex_cond () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let m = p.Platform.new_mutex () in
  let c = p.Platform.new_cond () in
  let ready = ref false and woke = ref false in
  p.Platform.spawn "waiter" (fun () ->
      m.lock ();
      while not !ready do
        c.wait m
      done;
      woke := true;
      m.unlock ());
  p.Platform.spawn "sig" (fun () ->
      p.Platform.sleep 30;
      m.lock ();
      ready := true;
      c.signal ();
      m.unlock ());
  Sim.run sim;
  Alcotest.(check bool) "woke" true !woke

let test_sim_platform_sem () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let s = p.Platform.new_sem 2 in
  let finish = Array.make 4 0 in
  for i = 0 to 3 do
    p.Platform.spawn "u" (fun () ->
        s.acquire ();
        p.Platform.consume 50;
        s.release ();
        finish.(i) <- p.Platform.now ())
  done;
  Sim.run sim;
  check Alcotest.(array int) "two waves" [| 50; 50; 100; 100 |] finish

let test_with_lock_unlocks_on_exception () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let m = p.Platform.new_mutex () in
  let second_ran = ref false in
  p.Platform.spawn "a" (fun () ->
      (try Platform.with_lock m (fun () -> failwith "inner") with Failure _ -> ()));
  p.Platform.spawn "b" (fun () ->
      p.Platform.sleep 5;
      Platform.with_lock m (fun () -> second_ran := true));
  Sim.run sim;
  Alcotest.(check bool) "lock released after exception" true !second_ran

(* --- rwlock ------------------------------------------------------------------ *)

let test_rwlock_readers_share () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let rw = Rwlock.create p in
  let concurrent = ref 0 and peak = ref 0 in
  for _ = 1 to 5 do
    Sim.spawn sim "r" (fun () ->
        Rwlock.with_read rw (fun () ->
            incr concurrent;
            if !concurrent > !peak then peak := !concurrent;
            Sim.wait sim 100;
            decr concurrent))
  done;
  Sim.run sim;
  Alcotest.(check bool) "readers overlap" true (!peak >= 2);
  check Alcotest.int "finishes at t=100 (parallel)" 100 (Sim.now sim)

let test_rwlock_writer_excludes () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let rw = Rwlock.create p in
  let in_write = ref false and violation = ref false in
  Sim.spawn sim "w" (fun () ->
      Rwlock.with_write rw (fun () ->
          in_write := true;
          Sim.wait sim 100;
          in_write := false));
  for _ = 1 to 3 do
    Sim.spawn sim "r" (fun () ->
        Sim.wait sim 10;
        Rwlock.with_read rw (fun () -> if !in_write then violation := true))
  done;
  Sim.run sim;
  Alcotest.(check bool) "no reader inside write section" false !violation

let test_rwlock_writer_priority () =
  (* A waiting writer must block later readers (no writer starvation). *)
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let rw = Rwlock.create p in
  let writer_done = ref (-1) and late_reader_started = ref (-1) in
  Sim.spawn sim "r1" (fun () ->
      Rwlock.with_read rw (fun () -> Sim.wait sim 100));
  Sim.spawn sim "w" (fun () ->
      Sim.wait sim 10;
      Rwlock.with_write rw (fun () -> Sim.wait sim 50);
      writer_done := Sim.now sim);
  Sim.spawn sim "r2" (fun () ->
      Sim.wait sim 20;
      (* arrives while the writer waits *)
      Rwlock.with_read rw (fun () -> late_reader_started := Sim.now sim));
  Sim.run sim;
  Alcotest.(check bool) "late reader waited for writer" true
    (!late_reader_started >= !writer_done)

(* --- real platform (threads) -------------------------------------------------- *)

let test_real_platform_basic () =
  let rp = Real_platform.create ~parallelism:2 () in
  let p = Real_platform.platform rp in
  let counter = Atomic.make 0 in
  for _ = 1 to 4 do
    p.Platform.spawn "w" (fun () ->
        for _ = 1 to 1000 do
          Atomic.incr counter
        done)
  done;
  Real_platform.join_all rp;
  check Alcotest.int "all increments" 4000 (Atomic.get counter)

let test_real_platform_mutex () =
  let rp = Real_platform.create ~parallelism:2 () in
  let p = Real_platform.platform rp in
  let m = p.Platform.new_mutex () in
  let v = ref 0 in
  for _ = 1 to 4 do
    p.Platform.spawn "w" (fun () ->
        for _ = 1 to 1000 do
          Platform.with_lock m (fun () -> v := !v + 1)
        done)
  done;
  Real_platform.join_all rp;
  check Alcotest.int "no lost updates" 4000 !v

let test_real_platform_sem () =
  let rp = Real_platform.create ~parallelism:2 () in
  let p = Real_platform.platform rp in
  let s = p.Platform.new_sem 1 in
  let inside = Atomic.make 0 in
  let violated = Atomic.make false in
  for _ = 1 to 4 do
    p.Platform.spawn "w" (fun () ->
        for _ = 1 to 200 do
          s.acquire ();
          if Atomic.fetch_and_add inside 1 <> 0 then Atomic.set violated true;
          Thread.yield ();
          ignore (Atomic.fetch_and_add inside (-1));
          s.release ()
        done)
  done;
  Real_platform.join_all rp;
  Alcotest.(check bool) "capacity respected" false (Atomic.get violated)

let test_real_platform_clock () =
  let rp = Real_platform.create () in
  let p = Real_platform.platform rp in
  let t0 = p.Platform.now () in
  p.Platform.consume 2_000_000 (* 2 ms *);
  let t1 = p.Platform.now () in
  Alcotest.(check bool) "clock advanced >= 2ms" true (t1 - t0 >= 2_000_000)

(* --- host cost ----------------------------------------------------------- *)

(* Minor words [Sim.run] allocates, divided by the [n] events the spawned
   processes perform. *)
let words_per_event ~n sim =
  let before = Gc.minor_words () in
  Sim.run sim;
  (Gc.minor_words () -. before) /. float_of_int n

(* Every simulated device delay is a [Sim.wait]: the runtime's continuation
   and the effect value are all it may allocate. *)
let test_wait_alloc () =
  let sim = Sim.create () in
  let n = 10_000 in
  Sim.spawn sim "waiter" (fun () ->
      for _ = 1 to n do
        Sim.wait sim 1
      done);
  let words = words_per_event ~n sim in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per wait <= 8" words)
    true (words <= 8.0)

(* Two processes hand one mutex back and forth, so every lock parks. *)
let test_contended_mutex_alloc () =
  let sim = Sim.create () in
  let m = Sim.Mutex.create sim in
  let n = 10_000 in
  for _ = 1 to 2 do
    Sim.spawn sim "locker" (fun () ->
        for _ = 1 to n / 2 do
          Sim.Mutex.lock m;
          Sim.wait sim 1;
          Sim.Mutex.unlock m
        done)
  done;
  let words = words_per_event ~n sim in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per lock cycle <= 20" words)
    true (words <= 20.0);
  check Alcotest.int "both ran to the end" (n / 2) (Sim.now sim / 2)

(* After a simulated power cut, neither the event queue nor the simulator
   may keep the abandoned processes' stacks alive. *)
let test_clear_pending_releases_fibers () =
  let sim = Sim.create () in
  let w = Weak.create 8 in
  let spawn_holder i body =
    Sim.spawn sim "holder" (fun () ->
        let v = ref i in
        Weak.set w i (Some v);
        body ();
        ignore (Sys.opaque_identity !v))
  in
  let m = ref (Some (Sim.Mutex.create sim)) in
  let lock () = Sim.Mutex.lock (Option.get !m) in
  for i = 0 to 3 do
    spawn_holder i (fun () -> Sim.wait sim (1_000 * (i + 1)))
  done;
  for i = 4 to 7 do
    spawn_holder i (fun () ->
        lock ();
        Sim.wait sim 1_000_000)
  done;
  Sim.run_until sim 10;
  check Alcotest.int "three parked on the mutex" 3 (Sim.blocked_processes sim);
  Sim.clear_pending sim;
  m := None;
  Gc.full_major ();
  let alive = List.filter (fun i -> Weak.check w i) (List.init 8 Fun.id) in
  check Alcotest.(list int) "no abandoned stack reachable" [] alive;
  (* The simulator is still usable afterwards. *)
  let ran = ref false in
  Sim.spawn sim "fresh" (fun () ->
      Sim.wait sim 5;
      ran := true);
  Sim.run sim;
  Alcotest.(check bool) "fresh process ran" true !ran

let suite =
  [
    ("wait advances clock", `Quick, test_wait_advances_clock);
    ("processes interleave", `Quick, test_processes_interleave);
    ("spawn from process", `Quick, test_spawn_from_process);
    ("equal-time FIFO", `Quick, test_equal_time_fifo);
    ("run_until", `Quick, test_run_until);
    ("exception propagates", `Quick, test_exception_propagates);
    ("process accounting", `Quick, test_process_accounting);
    ("mutex exclusion", `Quick, test_mutex_exclusion);
    ("mutex FIFO", `Quick, test_mutex_fifo);
    ("mutex locked query", `Quick, test_mutex_locked_query);
    ("cond signal", `Quick, test_cond_signal);
    ("cond broadcast", `Quick, test_cond_broadcast);
    ("cond no lost wakeup", `Quick, test_cond_no_lost_wakeup);
    ("resource capacity", `Quick, test_resource_capacity);
    ("resource queue stats", `Quick, test_resource_queue_stats);
    ("sim platform consume", `Quick, test_sim_platform_consume);
    ("sim platform mutex+cond", `Quick, test_sim_platform_mutex_cond);
    ("sim platform sem", `Quick, test_sim_platform_sem);
    ("with_lock unlocks on exception", `Quick, test_with_lock_unlocks_on_exception);
    ("rwlock readers share", `Quick, test_rwlock_readers_share);
    ("rwlock writer excludes", `Quick, test_rwlock_writer_excludes);
    ("rwlock writer priority", `Quick, test_rwlock_writer_priority);
    ("real platform basic", `Quick, test_real_platform_basic);
    ("real platform mutex", `Quick, test_real_platform_mutex);
    ("real platform sem", `Quick, test_real_platform_sem);
    ("real platform clock", `Quick, test_real_platform_clock);
    ("wait allocation", `Quick, test_wait_alloc);
    ("contended mutex allocation", `Quick, test_contended_mutex_alloc);
    ("clear_pending releases fibers", `Quick, test_clear_pending_releases_fibers);
  ]
