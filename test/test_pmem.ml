(* Tests for the PMEM device model: accessors, flush semantics, crash
   injection, cost accounting. *)

open Dstore_platform
open Dstore_pmem
open Dstore_util

let check = Alcotest.check

let small_config =
  { Pmem.default_config with size = 64 * 1024; crash_model = true }

(* Run [f pmem platform] inside a sim process so consume works. *)
let with_pmem ?(cfg = small_config) f =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let pm = Pmem.create p cfg in
  let result = ref None in
  Sim.spawn sim "test" (fun () -> result := Some (f pm p sim));
  Sim.run sim;
  Option.get !result

let test_rw_roundtrip () =
  with_pmem (fun pm _ _ ->
      Pmem.set_u8 pm 0 0xAB;
      Pmem.set_u16 pm 2 0xCDEF;
      Pmem.set_u32 pm 4 0xDEADBEEF;
      Pmem.set_u64 pm 8 0x123456789ABCDEF;
      check Alcotest.int "u8" 0xAB (Pmem.get_u8 pm 0);
      check Alcotest.int "u16" 0xCDEF (Pmem.get_u16 pm 2);
      check Alcotest.int "u32" 0xDEADBEEF (Pmem.get_u32 pm 4);
      check Alcotest.int "u64" 0x123456789ABCDEF (Pmem.get_u64 pm 8))

let test_blit_roundtrip () =
  with_pmem (fun pm _ _ ->
      let src = Bytes.of_string "persistent memory payload" in
      Pmem.blit_from_bytes pm src ~src:0 ~dst:100 ~len:(Bytes.length src);
      let dst = Bytes.create (Bytes.length src) in
      Pmem.blit_to_bytes pm ~src:100 dst ~dst:0 ~len:(Bytes.length src);
      check Alcotest.bytes "roundtrip" src dst)

let test_bounds_checked () =
  with_pmem (fun pm _ _ ->
      Alcotest.check_raises "oob" (Invalid_argument "Pmem: access [65536,+8) outside device of 65536 bytes")
        (fun () -> ignore (Pmem.get_u64 pm (64 * 1024))))

let test_dirty_tracking () =
  with_pmem (fun pm _ _ ->
      check Alcotest.int "clean initially" 0 (Pmem.dirty_lines pm);
      Pmem.set_u64 pm 0 1;
      Pmem.set_u64 pm 8 2;
      check Alcotest.int "one line dirty" 1 (Pmem.dirty_lines pm);
      Pmem.set_u64 pm 64 3;
      check Alcotest.int "two lines dirty" 2 (Pmem.dirty_lines pm);
      Pmem.persist pm 0 72;
      check Alcotest.int "clean after persist" 0 (Pmem.dirty_lines pm))

let test_crash_drop_reverts_unflushed () =
  with_pmem (fun pm _ _ ->
      Pmem.set_u64 pm 0 42;
      Pmem.persist pm 0 8;
      Pmem.set_u64 pm 0 99;
      (* dirty again, not flushed *)
      Pmem.crash pm Pmem.Drop_all;
      check Alcotest.int "reverted to persisted value" 42 (Pmem.get_u64 pm 0))

let test_crash_keep_retains () =
  with_pmem (fun pm _ _ ->
      Pmem.set_u64 pm 0 42;
      Pmem.persist pm 0 8;
      Pmem.set_u64 pm 0 99;
      Pmem.crash pm Pmem.Keep_all;
      check Alcotest.int "eviction persisted it" 99 (Pmem.get_u64 pm 0))

let test_crash_never_undoes_flushed () =
  with_pmem (fun pm _ _ ->
      for i = 0 to 63 do
        Pmem.set_u64 pm (i * 8) (i + 1)
      done;
      Pmem.persist pm 0 512;
      Pmem.crash pm Pmem.Drop_all;
      for i = 0 to 63 do
        check Alcotest.int "flushed survives" (i + 1) (Pmem.get_u64 pm (i * 8))
      done)

let test_crash_word_granularity () =
  (* A random crash can tear a line at 8-byte boundaries, but each 8-byte
     word must hold either the old or the new value, never garbage. *)
  with_pmem (fun pm _ _ ->
      for i = 0 to 7 do
        Pmem.set_u64 pm (i * 8) 1000
      done;
      Pmem.persist pm 0 64;
      for i = 0 to 7 do
        Pmem.set_u64 pm (i * 8) 2000
      done;
      Pmem.crash pm (Pmem.Random (Rng.create 5));
      for i = 0 to 7 do
        let v = Pmem.get_u64 pm (i * 8) in
        Alcotest.(check bool) "old or new" true (v = 1000 || v = 2000)
      done)

let prop_crash_random_tears_at_words =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random crash leaves old-or-new per word" ~count:50
       QCheck.(int_range 0 10_000)
       (fun seed ->
         with_pmem (fun pm _ _ ->
             let r = Rng.create seed in
             (* Persist a base pattern, overwrite some of it unflushed,
                crash, and verify word-level old-or-new. *)
             for w = 0 to 127 do
               Pmem.set_u64 pm (w * 8) w
             done;
             Pmem.persist pm 0 1024;
             let touched = Array.make 128 false in
             for _ = 0 to 63 do
               let w = Rng.int r 128 in
               touched.(w) <- true;
               Pmem.set_u64 pm (w * 8) (w + 100_000)
             done;
             Pmem.crash pm (Pmem.Random (Rng.split r));
             let ok = ref true in
             for w = 0 to 127 do
               let v = Pmem.get_u64 pm (w * 8) in
               let valid = if touched.(w) then v = w || v = w + 100_000 else v = w in
               if not valid then ok := false
             done;
             !ok)))

let test_flush_cost_model () =
  with_pmem (fun pm p sim ->
      let t0 = Sim.now sim in
      Pmem.persist pm 0 8;
      (* one line: flush_ns + fence_ns = 100 + 200 *)
      check Alcotest.int "single-line persist cost" 300 (Sim.now sim - t0);
      ignore p)

let test_flush_cost_pipelines () =
  with_pmem (fun pm _ sim ->
      let t0 = Sim.now sim in
      Pmem.persist pm 0 (64 * 1024);
      let dt = Sim.now sim - t0 in
      (* 1024 lines: 100 + 1023*64/10 + 200 ≈ 6847; far below 1024 serial
         flushes. *)
      Alcotest.(check bool) "pipelined" true (dt < 10_000);
      Alcotest.(check bool) "nonzero" true (dt > 1_000))

let test_stats_counters () =
  with_pmem (fun pm _ _ ->
      let st = Pmem.stats pm in
      Pmem.set_u64 pm 0 1;
      check Alcotest.int "bytes written" 8 st.Pmem.bytes_written;
      Pmem.persist pm 0 8;
      check Alcotest.int "flush calls" 1 st.Pmem.flush_calls;
      check Alcotest.int "fence calls" 1 st.Pmem.fence_calls;
      check Alcotest.int "bytes flushed (line)" 64 st.Pmem.bytes_flushed;
      Pmem.bulk_read_cost pm 4096;
      check Alcotest.int "bulk read" 4096 st.Pmem.bytes_read_bulk)

let test_crash_model_off_rejects_crash () =
  let cfg = { small_config with crash_model = false } in
  with_pmem ~cfg (fun pm _ _ ->
      Pmem.set_u64 pm 0 7;
      Alcotest.check_raises "crash rejected"
        (Invalid_argument "Pmem.crash: device created with crash_model = false")
        (fun () -> Pmem.crash pm Pmem.Drop_all))

let test_fill () =
  with_pmem (fun pm _ _ ->
      Pmem.fill pm 128 256 0xEE;
      check Alcotest.int "filled" 0xEE (Pmem.get_u8 pm 300);
      check Alcotest.int "outside untouched" 0 (Pmem.get_u8 pm 127))

let test_blit_within () =
  with_pmem (fun pm _ _ ->
      let src = Bytes.of_string "0123456789" in
      Pmem.blit_from_bytes pm src ~src:0 ~dst:0 ~len:10;
      Pmem.blit_within pm ~src:0 ~dst:1000 ~len:10;
      let dst = Bytes.create 10 in
      Pmem.blit_to_bytes pm ~src:1000 dst ~dst:0 ~len:10;
      check Alcotest.bytes "copied" src dst)

(* A segmented bulk transfer under [with_bulk] must account as ONE
   in-flight transfer for its whole duration: the domain's active count
   stays at 1 across the segments instead of bouncing per call. *)
let test_with_bulk_single_registration () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let bw = Pmem.Bw.create () in
  let mk () =
    Pmem.create p { small_config with share = Some bw }
  in
  let pm = mk () and other = mk () in
  Sim.spawn sim "test" (fun () ->
      check Alcotest.int "idle domain" 0 (Pmem.Bw.active bw);
      let r =
        Pmem.with_bulk pm (fun () ->
            check Alcotest.int "registered once" 1 (Pmem.Bw.active bw);
            Pmem.bulk_read_cost pm 4096;
            Pmem.bulk_read_cost pm 4096;
            check Alcotest.int "segments do not re-register" 1
              (Pmem.Bw.active bw);
            (* A nested scope is a no-op, not a second registration. *)
            Pmem.with_bulk pm (fun () ->
                check Alcotest.int "reentrant" 1 (Pmem.Bw.active bw));
            (* A concurrent transfer on another device in the domain
               contends with this one. *)
            Pmem.with_bulk other (fun () ->
                check Alcotest.int "second device adds" 2 (Pmem.Bw.active bw));
            17)
      in
      check Alcotest.int "result passes through" 17 r;
      check Alcotest.int "deregistered" 0 (Pmem.Bw.active bw);
      check Alcotest.int "peak recorded" 2 (Pmem.Bw.peak bw);
      (* Crash-abort safety: an exception still deregisters. *)
      (try Pmem.with_bulk pm (fun () -> failwith "boom") with _ -> ());
      check Alcotest.int "deregistered after raise" 0 (Pmem.Bw.active bw));
  Sim.run sim

(* with_bulk charges segments at the contended per-byte rate instead of
   re-paying the registration overhead per segment: total time for N
   segments inside one scope is the same as one transfer of N times the
   size. *)
let test_with_bulk_cost_linear () =
  let elapsed segs bytes =
    let sim = Sim.create () in
    let p = Sim_platform.make sim in
    let bw = Pmem.Bw.create () in
    let pm = Pmem.create p { small_config with share = Some bw } in
    let t = ref 0 in
    Sim.spawn sim "test" (fun () ->
        let t0 = p.Platform.now () in
        Pmem.with_bulk pm (fun () ->
            for _ = 1 to segs do
              Pmem.bulk_read_cost pm bytes
            done);
        t := p.Platform.now () - t0);
    Sim.run sim;
    !t
  in
  (* Segment sizes divisible by read_bw so per-call rounding cancels. *)
  check Alcotest.int "4 segments cost the same as one 4x transfer"
    (elapsed 1 19200) (elapsed 4 4800)

(* Crash-model fingerprint: a scripted history of stores across many
   lines, re-dirtied lines and partial flushes, then a crash in [mode].
   The [Drop_all] and [Keep_all] digests do not depend on the order in
   which [crash] visits lines, so they pin the undo images alone. A
   [Random] digest also pins that order (undo-slot order) and the random
   numbers drawn in it; the trailing draw shows how many [crash]
   consumed. *)
let crash_history_digest mode =
  let cfg = { small_config with size = 2 * 1024 * 1024 } in
  with_pmem ~cfg (fun pm _ _ ->
      let size = Pmem.size pm in
      let r = Rng.create 17 in
      let buf = Bytes.init 512 (fun i -> Char.chr ((i * 7) land 0xff)) in
      for round = 1 to 40 do
        for _ = 1 to 500 do
          match Rng.int r 4 with
          | 0 ->
              Pmem.set_u64 pm (Rng.int r (size / 8) * 8) (Rng.int r 1_000_000)
          | 1 ->
              let len = 1 + Rng.int r 300 in
              Pmem.blit_from_bytes pm buf ~src:(Rng.int r 200)
                ~dst:(Rng.int r (size - len)) ~len
          | 2 ->
              let len = 1 + Rng.int r 200 in
              Pmem.fill pm (Rng.int r (size - len)) len (round + Rng.int r 200)
          | _ -> Pmem.set_u8 pm (Rng.int r size) (Rng.int r 256)
        done;
        (* Flush a few random ranges: some lines become clean, and later
           stores re-dirty them with a newer durable image. *)
        for _ = 1 to 3 + (round mod 5) do
          let len = 1 + Rng.int r 8192 in
          Pmem.flush pm (Rng.int r (size - len)) len
        done
      done;
      let dirty = Pmem.dirty_lines pm in
      Pmem.crash pm mode;
      let img = Bytes.create size in
      Pmem.blit_to_bytes pm ~src:0 img ~dst:0 ~len:size;
      let draw =
        match mode with
        | Pmem.Random rng -> Printf.sprintf " %d" (Rng.int rng 1_000_000)
        | Pmem.Drop_all | Pmem.Keep_all -> ""
      in
      Printf.sprintf "%d%s %s" dirty draw (Digest.to_hex (Digest.bytes img)))

let test_crash_history_digest () =
  List.iter
    (fun (name, mode, expect) ->
      check Alcotest.string name expect (crash_history_digest mode))
    [
      ("drop all", Pmem.Drop_all,
       "19579 49a8d3e06ba70e8592357bfdf721afbc");
      ("keep all", Pmem.Keep_all,
       "19579 f38e2c2990aa1a1662986eaf9f0c97a5");
      ("seed 1", Pmem.Random (Rng.create 1),
       "19579 393143 4a788e46c570fe0b121330f27cf9d4a7");
      ("seed 2", Pmem.Random (Rng.create 2),
       "19579 430433 01fde447b916f255b0a244f92522a5cd");
      ("seed 3", Pmem.Random (Rng.create 3),
       "19579 597605 4cb537988dfa33fd5c1b482ef56a8f20");
      ("seed 42", Pmem.Random (Rng.create 42),
       "19579 428704 c2f91511ad141ddc0c2f8d8369dbcde2");
    ]

(* Flushed lines hand their undo slot back: many write/flush rounds never
   grow the arena past the peak number of lines dirty at once, and a
   crash empties both the slot table and the arena. *)
let test_undo_slots_recycled () =
  with_pmem (fun pm _ _ ->
      let r = Rng.create 3 in
      let peak = ref 0 in
      for _ = 1 to 10_000 do
        let off = Rng.int r (60 * 1024) in
        let len = 1 + Rng.int r 200 in
        Pmem.fill pm off len (Rng.int r 256);
        peak := max !peak (Pmem.dirty_lines pm);
        if Rng.int r 4 > 0 then Pmem.flush pm (Rng.int r (60 * 1024)) 4096
      done;
      Alcotest.(check bool)
        (Printf.sprintf "arena %d within peak %d" (Pmem.undo_slots pm) !peak)
        true
        (Pmem.undo_slots pm <= !peak);
      Alcotest.(check bool) "some lines still dirty" true (Pmem.dirty_lines pm > 0);
      Pmem.crash pm Pmem.Drop_all;
      check Alcotest.int "slot table emptied" 0 (Pmem.dirty_lines pm);
      check Alcotest.int "arena emptied" 0 (Pmem.undo_slots pm))

(* A zero-length store dirties no line, wherever it lands, and leaves the
   device usable: at offset 0 it must not compute a line range ending at
   [(-1) lsr 6], walk the whole device and raise inside the dirty-map
   lock, which would wedge every later store. *)
let test_zero_length_store () =
  with_pmem (fun pm _ _ ->
      let b = Bytes.make 8 'x' in
      Pmem.blit_from_bytes pm b ~src:0 ~dst:0 ~len:0;
      Pmem.blit_from_bytes pm b ~src:0 ~dst:100 ~len:0;
      Pmem.fill pm 200 0 0xFF;
      Pmem.blit_within pm ~src:0 ~dst:300 ~len:0;
      check Alcotest.int "nothing dirty" 0 (Pmem.dirty_lines pm);
      check Alcotest.int "bytes written" 0 (Pmem.stats pm).Pmem.bytes_written;
      Pmem.set_u64 pm 0 7;
      check Alcotest.int "next store lands" 7 (Pmem.get_u64 pm 0);
      check Alcotest.int "one line dirty" 1 (Pmem.dirty_lines pm))

(* After warm-up, a store to a clean line takes an undo slot from the
   free stack and notes it in the line-indexed slot table: no heap block
   per newly dirtied line. A stdlib [Hashtbl] as the dirty map allocated
   a 4-word bucket cell per add, 4.0 words per new line here. Random
   draws are made up front, and the device runs on a platform whose
   [consume] is free, so only the crash-model bookkeeping is counted,
   not the scheduler's suspension for each flush's latency. *)
let test_slot_table_alloc_budget () =
  let p = { (Sim_platform.make (Sim.create ())) with Platform.consume = ignore } in
  let pm = Pmem.create p small_config in
  let r = Rng.create 5 in
  let n = 10_000 in
  let draw bound = Array.init n (fun _ -> Rng.int r bound) in
  let offs = draw (60 * 1024) and lens = draw 200 and bytes = draw 256 in
  let flushes = Array.init n (fun _ -> if Rng.int r 4 > 0 then Rng.int r (60 * 1024) else -1) in
  let rounds () =
    let fresh = ref 0 in
    for i = 0 to n - 1 do
      let before = Pmem.dirty_lines pm in
      Pmem.fill pm offs.(i) (1 + lens.(i)) bytes.(i);
      fresh := !fresh + Pmem.dirty_lines pm - before;
      if flushes.(i) >= 0 then Pmem.flush pm flushes.(i) 4096
    done;
    !fresh
  in
  ignore (rounds ());
  let w0 = Gc.minor_words () in
  let fresh = rounds () in
  let per_line = (Gc.minor_words () -. w0) /. float_of_int fresh in
  if per_line > 0.5 then
    Alcotest.failf "%.2f words per newly dirtied line > 0.5 (%d lines)" per_line
      fresh

let suite =
  [
    ("read/write roundtrip", `Quick, test_rw_roundtrip);
    ("blit roundtrip", `Quick, test_blit_roundtrip);
    ("bounds checked", `Quick, test_bounds_checked);
    ("dirty-line tracking", `Quick, test_dirty_tracking);
    ("crash drops unflushed", `Quick, test_crash_drop_reverts_unflushed);
    ("crash may keep evicted", `Quick, test_crash_keep_retains);
    ("crash never undoes flushed", `Quick, test_crash_never_undoes_flushed);
    ("crash tears at 8B words", `Quick, test_crash_word_granularity);
    prop_crash_random_tears_at_words;
    ("flush cost model", `Quick, test_flush_cost_model);
    ("flush cost pipelines", `Quick, test_flush_cost_pipelines);
    ("stats counters", `Quick, test_stats_counters);
    ("crash_model off rejects crash", `Quick, test_crash_model_off_rejects_crash);
    ("fill", `Quick, test_fill);
    ("blit within", `Quick, test_blit_within);
    ("with_bulk single registration", `Quick, test_with_bulk_single_registration);
    ("with_bulk segment cost linear", `Quick, test_with_bulk_cost_linear);
    ("crash history digest", `Quick, test_crash_history_digest);
    ("undo slots recycled", `Quick, test_undo_slots_recycled);
    ("zero-length store", `Quick, test_zero_length_store);
    ("slot table alloc budget", `Quick, test_slot_table_alloc_budget);
  ]
