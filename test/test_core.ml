(* Tests for the DIPPER building blocks: Logrec (codec), Oplog (slotted
   log, flush protocol, torn-record validity), Root (atomic state). *)

open Dstore_platform
open Dstore_pmem
open Dstore_core
open Dstore_util

let check = Alcotest.check

let with_sim f =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let result = ref None in
  Sim.spawn sim "test" (fun () -> result := Some (f p sim));
  Sim.run sim;
  Option.get !result

let pmem p size = Pmem.create p { Pmem.default_config with size }

(* --- Logrec ------------------------------------------------------------ *)

let sample_ops =
  [
    Logrec.Put
      {
        key = "user42";
        size = 4096;
        meta = 7;
        extents = [ (10, 1) ];
        freed_meta = -1;
        freed_extents = [];
      };
    Logrec.Put
      {
        key = "overwrite-me";
        size = 16384;
        meta = 9;
        extents = [ (20, 2); (30, 2) ];
        freed_meta = 3;
        freed_extents = [ (1, 4) ];
      };
    Logrec.Create { key = "fresh"; meta = 0 };
    Logrec.Write
      { key = "grow"; meta = 5; size = 20000; new_extents = [ (99, 1) ] };
    Logrec.Delete { key = "gone"; meta = 2; extents = [ (50, 3) ] };
    Logrec.Noop { key = "locked-object" };
    Logrec.Phys { images = [ (100, "abcdef"); (4096, String.make 64 'z') ] };
  ]

let test_logrec_roundtrip () =
  List.iter
    (fun op ->
      let payload = Logrec.encode_payload op in
      let back = Logrec.decode_payload ~tag:(Logrec.tag_of_op op) payload in
      Alcotest.(check bool) "roundtrip" true (back = op))
    sample_ops

let test_logrec_roundtrip_padded () =
  (* Decoding must tolerate slot-rounding zero padding. *)
  List.iter
    (fun op ->
      let payload = Logrec.encode_payload op in
      let padded = Bytes.make (Bytes.length payload + 40) '\000' in
      Bytes.blit payload 0 padded 0 (Bytes.length payload);
      let back = Logrec.decode_payload ~tag:(Logrec.tag_of_op op) padded in
      Alcotest.(check bool) "roundtrip with padding" true (back = op))
    sample_ops

let test_logrec_compact () =
  (* The paper: "the size of each log record is just 32B plus the object
     name". Our record adds the freed-extent fields; verify a plain put
     stays within one or two cache lines. *)
  let key = "user42" in
  let op =
    Logrec.Put
      {
        key;
        size = 4096;
        meta = 1;
        extents = [ (5, 1) ];
        freed_meta = -1;
        freed_extents = [];
      }
  in
  (* Header (24 B) + ~36 B of fixed fields incl. freed-id bookkeeping. *)
  Alcotest.(check bool) "within 64B + name" true
    (Logrec.record_bytes op <= 64 + String.length key);
  check Alcotest.int "single slot for short names" 1 (Logrec.slots_needed op)

let test_logrec_multislot () =
  let op = Logrec.Noop { key = String.make 300 'k' } in
  Alcotest.(check bool) "multiple slots" true (Logrec.slots_needed op > 1);
  let payload = Logrec.encode_payload op in
  Alcotest.(check bool) "roundtrip" true
    (Logrec.decode_payload ~tag:5 payload = op)

let test_logrec_bad_tag () =
  Alcotest.check_raises "unknown tag" (Failure "Logrec: unknown op tag 99")
    (fun () -> ignore (Logrec.decode_payload ~tag:99 (Bytes.create 8)))

let test_logrec_truncated () =
  let op = Logrec.Delete { key = "someobject"; meta = 1; extents = [ (1, 1) ] } in
  let payload = Logrec.encode_payload op in
  let cut = Bytes.sub payload 0 4 in
  Alcotest.(check bool) "fails cleanly" true
    (match Logrec.decode_payload ~tag:4 cut with
    | exception Failure _ -> true
    | _ -> false)

(* Decoding from a reused buffer longer than the payload: [~len] bounds
   every read, so a record whose string or extent list runs past it fails
   even though the stale bytes behind it would complete the parse. *)
let test_logrec_decode_bound () =
  let op =
    Logrec.Put
      {
        key = "a-key-long-enough-to-cut";
        size = 4096;
        meta = 1;
        extents = [ (1, 2); (3, 4); (5, 6) ];
        freed_meta = -1;
        freed_extents = [];
      }
  in
  let payload = Logrec.encode_payload op in
  let full = Bytes.length payload in
  let buf = Bytes.make (full + 64) '\000' in
  Bytes.blit payload 0 buf 0 full;
  Alcotest.(check bool) "whole payload decodes" true
    (Logrec.decode_payload ~len:full ~tag:1 buf = op);
  Alcotest.(check bool) "stale tail parses unbounded" true
    (Logrec.decode_payload ~tag:1 buf = op);
  let cut_fails name len =
    match Logrec.decode_payload ~len ~tag:1 buf with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "%s: decoded past ~len:%d" name len
  in
  (* key: 2-byte length, then the bytes; cut inside the key *)
  cut_fails "string" 10;
  (* extents start after key, size (8) and meta (4); cut inside them *)
  cut_fails "extents" (2 + 24 + 8 + 4 + 2 + 8 + 3);
  cut_fails "trailing field" (full - 1)

let prop_logrec_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"logrec roundtrips arbitrary puts" ~count:300
       QCheck.(
         quad (string_of_size Gen.(int_range 0 100)) (int_bound 1_000_000)
           (int_bound 10_000)
           (list_of_size Gen.(int_range 0 10) (pair (int_bound 100_000) (int_range 1 64))))
       (fun (key, size, meta, extents) ->
         let op =
           Logrec.Put { key; size; meta; extents; freed_meta = -1; freed_extents = [] }
         in
         Logrec.decode_payload ~tag:1 (Logrec.encode_payload op) = op))

(* Payload bytes of one op per constructor, as the Buffer-based encoder
   that preceded [Logrec.encode_into] wrote them: the in-place encoder
   must log the same bytes. *)
let pinned_encodings =
  [
    ( Logrec.Put
        {
          key = "user42";
          size = 4096;
          meta = 7;
          extents = [ (10, 1) ];
          freed_meta = -1;
          freed_extents = [];
        },
      "060075736572343200100000000000000700000001000a00000001000000ffffffff0000"
    );
    ( Logrec.Put
        {
          key = String.make 50 'k';
          size = (1 lsl 40) + 3;
          meta = 0xABCDE;
          extents = [ (20, 2); (30, 2); (70000, 9) ];
          freed_meta = 3;
          freed_extents = [ (1, 4) ];
        },
      "3200" ^ String.concat "" (List.init 50 (fun _ -> "6b"))
      ^ "0300000000010000" ^ "debc0a00" ^ "0300" ^ "1400000002000000"
      ^ "1e00000002000000" ^ "7011010009000000" ^ "03000000" ^ "0100"
      ^ "0100000004000000" );
    (Logrec.Create { key = "fresh"; meta = 0 }, "0500667265736800000000");
    ( Logrec.Write { key = "grow"; meta = 5; size = 20000; new_extents = [ (99, 1) ] },
      "040067726f7705000000204e00000000000001006300000001000000" );
    ( Logrec.Delete { key = "gone"; meta = 2; extents = [ (50, 3) ] },
      "0400676f6e650200000001003200000003000000" );
    (Logrec.Noop { key = "locked-object" }, "0d006c6f636b65642d6f626a656374");
    ( Logrec.Phys { images = [ (100, "abcdef"); (4096, "zz") ] },
      "020064000000000000000600616263646566001000000000000002007a7a" );
    (Logrec.Txn_begin { txn = 77; members = 4 }, "4d000000000000000400");
    (Logrec.Txn_commit { txn = 77 }, "4d00000000000000");
  ]

let hex_of b =
  String.concat ""
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

(* [op] encoded in place after a record header's worth of filler, as
   [Oplog.write_record] does; returns the payload and the end offset. *)
let encode_at_header op =
  let len = Logrec.payload_bytes op in
  let img = Bytes.make (Logrec.header_bytes + len + 8) '\xff' in
  let stop = Logrec.encode_into op img Logrec.header_bytes in
  (Bytes.sub img Logrec.header_bytes len, stop)

let test_logrec_pinned_bytes () =
  List.iter
    (fun (op, hex) ->
      check Alcotest.string "encode_payload" hex (hex_of (Logrec.encode_payload op));
      let payload, stop = encode_at_header op in
      check Alcotest.string "encode_into at the header" hex (hex_of payload);
      check Alcotest.int "end offset" (Logrec.header_bytes + (String.length hex / 2)) stop)
    pinned_encodings

let gen_op =
  let open QCheck.Gen in
  let u16 = int_range 0 0xFFFF and u32 = int_range 0 0xFFFFFFFE in
  let u64 = int_range 0 max_int in
  (* Keys past 40 B spill the record into continuation slots. *)
  let key_g = string_size ~gen:char (int_range 0 300) in
  let extents_g = list_size (int_range 0 64) (pair u32 u32) in
  let freed_meta_g = oneof [ return (-1); u32 ] in
  oneof
    [
      (let* key = key_g and* size = u64 and* meta = u32 and* extents = extents_g in
       let* freed_meta = freed_meta_g and* freed_extents = extents_g in
       return (Logrec.Put { key; size; meta; extents; freed_meta; freed_extents }));
      map2 (fun key meta -> Logrec.Create { key; meta }) key_g u32;
      (let* key = key_g and* meta = u32 and* size = u64 and* new_extents = extents_g in
       return (Logrec.Write { key; meta; size; new_extents }));
      (let* key = key_g and* meta = u32 and* extents = extents_g in
       return (Logrec.Delete { key; meta; extents }));
      map (fun key -> Logrec.Noop { key }) key_g;
      map
        (fun images -> Logrec.Phys { images })
        (list_size (int_range 0 8) (pair u64 (string_size ~gen:char (int_range 0 200))));
      map2 (fun txn members -> Logrec.Txn_begin { txn; members }) u64 u16;
      map (fun txn -> Logrec.Txn_commit { txn }) u64;
    ]

let prop_logrec_sized_encode =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"logrec sizes arithmetically, encodes in place" ~count:500
       (QCheck.make gen_op) (fun op ->
         let encoded = Logrec.encode_payload op in
         let payload, stop = encode_at_header op in
         Logrec.payload_bytes op = Bytes.length encoded
         && stop = Logrec.header_bytes + Logrec.payload_bytes op
         && Bytes.equal payload encoded
         && Logrec.decode_payload ~tag:(Logrec.tag_of_op op) payload = op
         && Logrec.slots_needed op
            = (Logrec.record_bytes op + Logrec.slot_bytes - 1) / Logrec.slot_bytes))

(* The put estimate used to be the slot count of this worst-case record,
   encoded; the arithmetic estimate must reproduce it exactly, or the
   log-space wait before a put would change. *)
let test_put_max_slots_table () =
  let buf = Bytes.create 4096 in
  for key_len = 0 to 300 do
    let key = String.make key_len 'k' in
    for nblocks = 0 to 64 do
      let worst =
        Logrec.Put
          {
            key;
            size = 0;
            meta = 0;
            extents = List.init (max nblocks 1) (fun i -> (i * 2, 1));
            freed_meta = 0;
            freed_extents = List.init (max nblocks 1 + 4) (fun i -> (i * 2, 1));
          }
      in
      let bytes = Logrec.header_bytes + Logrec.encode_into worst buf 0 in
      let slots = (bytes + Logrec.slot_bytes - 1) / Logrec.slot_bytes in
      if Logrec.put_max_slots key nblocks <> slots then
        Alcotest.failf "key %d B, %d blocks: estimate %d, record %d slots" key_len
          nblocks (Logrec.put_max_slots key nblocks) slots
    done
  done

(* --- Oplog ------------------------------------------------------------ *)

let fresh_log ?(slots = 64) p =
  let pm = pmem p (1 lsl 20) in
  let log = Oplog.attach pm ~off:0 ~slots in
  Oplog.reset log ~lsn_base:100;
  (pm, log)

let put_op key =
  Logrec.Put
    {
      key;
      size = 4096;
      meta = 1;
      extents = [ (1, 1) ];
      freed_meta = -1;
      freed_extents = [];
    }

(* [Oplog.reserve] as a [(slot, lsn)] option. *)
let reserve log n =
  let slot = Oplog.reserve log n in
  if slot < 0 then None else Some (slot, Oplog.lsn_base log + slot)

(* Make one staged record valid, as the engine does: a [Txn_commit]
   record through its commit point, any other through [Oplog.persist]. *)
let persist_one log ~slot op =
  match op with
  | Logrec.Txn_commit _ -> Oplog.flush_txn_commit log ~slot
  | _ -> Oplog.persist log ~slot ~records:1

let commit_record log ~slot = Oplog.commit log ~slot ~records:1 ~unlock:ignore

let append log op =
  match reserve log (Logrec.slots_needed op) with
  | None -> Alcotest.fail "log full"
  | Some (slot, lsn) ->
      Oplog.write_record log ~slot ~lsn op;
      persist_one log ~slot op;
      (slot, lsn)

let test_oplog_append_scan () =
  with_sim (fun p _ ->
      let _, log = fresh_log p in
      let s1, l1 = append log (put_op "a") in
      let _s2, l2 = append log (put_op "b") in
      check Alcotest.int "lsn equation" 100 l1;
      check Alcotest.int "lsn sequence" 101 l2;
      commit_record log ~slot:s1;
      let entries = Oplog.scan log in
      check Alcotest.int "two valid records" 2 (List.length entries);
      match entries with
      | [ e1; e2 ] ->
          Alcotest.(check bool) "first committed" true e1.Oplog.committed;
          Alcotest.(check bool) "second uncommitted" false e2.Oplog.committed;
          Alcotest.(check bool) "ops preserved" true
            (e1.Oplog.op = put_op "a" && e2.Oplog.op = put_op "b")
      | _ -> Alcotest.fail "entry count")

(* Host words a probe costs per record: the CRC runs over the device
   bytes in place and the payload decodes from the log's scratch buffer,
   so what is left is the decoded entry itself (key, op, extent list,
   entry record, scan list): 47 words per record now that [probe]
   leaves its fields on the log, 52 when it returned them as an option
   of a pair, 65 when the record image and the payload were copied out
   first. *)
let test_oplog_scan_alloc_budget () =
  with_sim (fun p _ ->
      let _, log = fresh_log ~slots:256 p in
      let n = 200 in
      for i = 1 to n do
        let slot, _ = append log (put_op (Printf.sprintf "obj/%04d" i)) in
        commit_record log ~slot
      done;
      check Alcotest.int "all records scanned" n (List.length (Oplog.scan log));
      let w0 = Gc.minor_words () in
      for _ = 1 to 10 do
        ignore (Sys.opaque_identity (Oplog.scan log))
      done;
      let per_record = (Gc.minor_words () -. w0) /. float_of_int (10 * n) in
      if per_record > 56.0 then
        Alcotest.failf "scan: %.1f words/record > 56" per_record)

(* [Oplog.committed] against the three-pass pipeline it fuses. *)
let keep ~above e =
  e.Oplog.committed && e.Oplog.lsn > above
  && match e.Oplog.op with Logrec.Noop _ -> false | _ -> true

let committed_by_passes log ~above =
  Oplog.scan log |> Oplog.resolve_txn_spans |> List.filter (keep ~above)

(* Fill [log] with a seeded mix of record shapes, then tear a few: single
   records committed or not (Noops among them, some multi-slot), orphan
   commit records, and transaction spans of 0-3 members whose chain or
   closing record goes wrong in every way the resolver distinguishes — a
   member never made valid, a framing record in a member slot, a member
   count that disagrees with the chain, a missing commit record, one
   never made valid, one naming another transaction. Tearing flips a
   payload byte of a random slot, so the record there fails its CRC. *)
let random_span_log r pm log =
  let write ?(valid = true) ?(commit = false) op =
    match reserve log (Logrec.slots_needed op) with
    | None -> ()
    | Some (slot, lsn) ->
        Oplog.write_record log ~slot ~lsn op;
        if valid then persist_one log ~slot op;
        if commit then commit_record log ~slot
  in
  let key () = Printf.sprintf "k%d" (Rng.int r 20) in
  let single () =
    match Rng.int r 5 with
    | 0 -> Logrec.Noop { key = key () }
    | 1 -> Logrec.Noop { key = key () ^ String.make 80 'n' }
    | 2 -> Logrec.Delete { key = key (); meta = Rng.int r 50; extents = [ (Rng.int r 99, 1) ] }
    | 3 -> Logrec.Create { key = key (); meta = Rng.int r 50 }
    | _ -> put_op (key ())
  in
  let next_txn = ref 0 in
  for _ = 1 to 12 + Rng.int r 30 do
    match Rng.int r 8 with
    | 0 | 1 | 2 -> write ~commit:(Rng.bool r) (single ())
    | 3 -> write (Logrec.Txn_commit { txn = Rng.int r (!next_txn + 2) })
    | _ ->
        incr next_txn;
        let txn = !next_txn in
        let members = Rng.int r 4 in
        let declared =
          match Rng.int r 8 with 0 -> members + 1 | 1 -> max 0 (members - 1) | _ -> members
        in
        write (Logrec.Txn_begin { txn; members = declared });
        for _ = 1 to members do
          match Rng.int r 12 with
          | 0 -> write ~valid:false (single ())
          | 1 -> write (Logrec.Txn_begin { txn = txn + 1000; members = 1 })
          | 2 -> write (Logrec.Txn_commit { txn })
          | _ -> write ~commit:(Rng.int r 4 = 0) (single ())
        done;
        (match Rng.int r 8 with
        | 0 -> ()
        | 1 -> write (Logrec.Txn_commit { txn = txn + 1 })
        | 2 -> write ~valid:false (Logrec.Txn_commit { txn })
        | _ -> write (Logrec.Txn_commit { txn }))
  done;
  for _ = 1 to Rng.int r 3 do
    let off = ((1 + Rng.int r (Oplog.capacity log)) * Logrec.slot_bytes) + 30 in
    Pmem.set_u8 pm off (Pmem.get_u8 pm off lxor 0x5a)
  done

let prop_oplog_committed_matches_passes =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"oplog committed = scan |> resolve_txn_spans |> filter"
       ~count:300
       QCheck.(int_range 0 100_000)
       (fun seed ->
         with_sim (fun p _ ->
             let r = Rng.create seed in
             let pm, log = fresh_log ~slots:96 p in
             random_span_log r pm log;
             (* base 100: below, inside and above every LSN of the log *)
             List.for_all
               (fun above ->
                 Oplog.committed log ~above = committed_by_passes log ~above)
               [ 0; 99; 100 + Rng.int r 96; 100 + Rng.int r 96; 150; 195; 1000 ])))

(* The span resolver on one hand-built log: a committed span surfaces its
   members as committed (their own commit words unset), a span closed by
   the wrong transaction and a span cut short by framing vanish, framing
   never escapes, and an uncommitted single record stays out. *)
let test_oplog_committed_spans () =
  with_sim (fun p _ ->
      let _, log = fresh_log p in
      let commit (slot, _) = commit_record log ~slot in
      let a = append log (put_op "a") in
      commit a;
      ignore (append log (Logrec.Txn_begin { txn = 1; members = 2 }));
      let m1 = append log (put_op "m1") in
      let m2 = append log (Logrec.Delete { key = "m2"; meta = 3; extents = [] }) in
      ignore (append log (Logrec.Txn_commit { txn = 1 }));
      ignore (append log (Logrec.Txn_begin { txn = 2; members = 1 }));
      ignore (append log (put_op "wrong-close"));
      ignore (append log (Logrec.Txn_commit { txn = 3 }));
      ignore (append log (Logrec.Txn_begin { txn = 4; members = 2 }));
      ignore (append log (put_op "short"));
      (* framing where span 4's second member belongs: span 4 is torn, and
         the record opens an empty span 5 that commits *)
      ignore (append log (Logrec.Txn_begin { txn = 5; members = 0 }));
      ignore (append log (Logrec.Txn_commit { txn = 5 }));
      let b = append log (put_op "b") in
      commit b;
      ignore (append log (put_op "uncommitted"));
      let got = Oplog.committed log ~above:0 in
      let lsns = List.map (fun e -> e.Oplog.lsn) got in
      check Alcotest.(list int) "a, both members, b" [ snd a; snd m1; snd m2; snd b ] lsns;
      Alcotest.(check bool) "members surface committed" true
        (List.for_all (fun e -> e.Oplog.committed) got);
      check Alcotest.(list int) "watermark" [ snd m2; snd b ]
        (List.map (fun e -> e.Oplog.lsn) (Oplog.committed log ~above:(snd m1)));
      Alcotest.(check bool) "same as the passes" true
        (got = committed_by_passes log ~above:0))

(* What [committed] costs per replayed record: the decoded operation, the
   entry and its list cell, and the final reversal — no option, tuple or
   intermediate list per record. 47 words per one-slot put, against 58
   for scan, resolve_txn_spans and filter at the parent. *)
let test_oplog_committed_alloc_budget () =
  with_sim (fun p _ ->
      let _, log = fresh_log ~slots:256 p in
      let n = 200 in
      for i = 1 to n do
        let slot, _ = append log (put_op (Printf.sprintf "obj/%04d" i)) in
        commit_record log ~slot
      done;
      check Alcotest.int "all records kept" n (List.length (Oplog.committed log ~above:0));
      let w0 = Gc.minor_words () in
      for _ = 1 to 10 do
        ignore (Sys.opaque_identity (Oplog.committed log ~above:0))
      done;
      let per_record = (Gc.minor_words () -. w0) /. float_of_int (10 * n) in
      if per_record > 48.0 then
        Alcotest.failf "committed: %.1f words/record > 48" per_record)

let test_oplog_multislot_records () =
  with_sim (fun p _ ->
      let _, log = fresh_log p in
      let big = Logrec.Noop { key = String.make 200 'x' } in
      let slot, lsn = append log big in
      let _ = append log (put_op "after") in
      commit_record log ~slot;
      let entries = Oplog.scan log in
      check Alcotest.int "both found" 2 (List.length entries);
      check Alcotest.int "multislot lsn" lsn (List.hd entries).Oplog.lsn)

let test_oplog_reserve_exhaustion () =
  with_sim (fun p _ ->
      let _, log = fresh_log ~slots:4 p in
      ignore (append log (put_op "1"));
      ignore (append log (put_op "2"));
      ignore (append log (put_op "3"));
      ignore (append log (put_op "4"));
      check Alcotest.int "full" (-1) (Oplog.reserve log 1);
      check Alcotest.int "free" 0 (Oplog.free_slots log))

let test_oplog_reset_clears () =
  with_sim (fun p _ ->
      let _, log = fresh_log p in
      ignore (append log (put_op "old"));
      Oplog.reset log ~lsn_base:500;
      check Alcotest.int "empty" 0 (List.length (Oplog.scan log));
      check Alcotest.int "base" 500 (Oplog.lsn_base log);
      let _, lsn = append log (put_op "new") in
      check Alcotest.int "new epoch lsn" 500 lsn)

let test_oplog_stale_epoch_invalid () =
  (* Records from a previous epoch must not validate after reset, even
     though their bytes may linger if the reset zeroing were skipped. The
     reset zeroes, so simulate staleness via base change on a re-attach. *)
  with_sim (fun p _ ->
      let pm = pmem p (1 lsl 20) in
      let log = Oplog.attach pm ~off:0 ~slots:64 in
      Oplog.reset log ~lsn_base:100;
      ignore (append log (put_op "epoch1"));
      (* Tamper: bump the header base without zeroing (not the public
         API; emulates a stale record with a wrong-epoch LSN). *)
      Pmem.set_u64 pm 8 200;
      let log2 = Oplog.attach pm ~off:0 ~slots:64 in
      check Alcotest.int "stale record invisible" 0 (List.length (Oplog.scan log2)))

let test_oplog_torn_lsn_invalid () =
  (* Crash before the LSN line is flushed: the record must not validate.
     write_record stores everything except the LSN; without persist
     the LSN word is still zero — and even the written parts are dirty. *)
  with_sim (fun p _ ->
      let pm, log = fresh_log p in
      (match reserve log 1 with
      | Some (slot, lsn) -> Oplog.write_record log ~slot ~lsn (put_op "torn")
      | None -> Alcotest.fail "reserve");
      Pmem.crash pm Pmem.Drop_all;
      check Alcotest.int "torn record skipped" 0 (List.length (Oplog.scan log)))

let test_oplog_torn_multislot_does_not_hide_later () =
  (* A torn multi-slot record must not make a later valid record
     unreachable (DESIGN.md deviation 1). *)
  with_sim (fun p _ ->
      let pm, log = fresh_log p in
      let big = Logrec.Noop { key = String.make 200 'y' } in
      (* Reserve + write the big record but never flush it (simulating a
         crash mid-append)... *)
      (match reserve log (Logrec.slots_needed big) with
      | Some (slot, lsn) -> Oplog.write_record log ~slot ~lsn big
      | None -> Alcotest.fail "reserve");
      (* ...while a later record is fully appended and committed. *)
      let slot2, _ = append log (put_op "later") in
      commit_record log ~slot:slot2;
      Pmem.crash pm Pmem.Drop_all;
      let entries = Oplog.scan log in
      check Alcotest.int "later record found" 1 (List.length entries);
      Alcotest.(check bool) "and committed" true (List.hd entries).Oplog.committed)

let test_oplog_interior_collision_rejected () =
  (* Adversarial: a torn multi-slot record whose interior slot contains
     bytes that satisfy the slot/LSN equation at that position. The probe
     may parse a header there, but the CRC must reject it (DESIGN.md
     deviation 1). *)
  with_sim (fun p _ ->
      let pm, log = fresh_log p in
      (* Hand-craft a fake record start at slot 3: write the equation-
         satisfying LSN directly into the slot region, with garbage CRC. *)
      let slot3_off = (3 + 1) * 64 in
      Pmem.set_u64 pm slot3_off (Oplog.lsn_base log + 3);
      Pmem.set_u16 pm (slot3_off + 16) 1 (* len_slots *);
      Pmem.set_u8 pm (slot3_off + 18) 5 (* Noop tag *);
      (* CRC field left zero: almost surely wrong. *)
      check Alcotest.int "forged slot rejected" 0 (List.length (Oplog.scan log));
      (* A genuine record elsewhere still scans. *)
      let slot, _ = append log (put_op "real") in
      commit_record log ~slot;
      let entries = Oplog.scan log in
      check Alcotest.int "real record found" 1 (List.length entries))

let test_oplog_commit_persists () =
  with_sim (fun p _ ->
      let pm, log = fresh_log p in
      let slot, _ = append log (put_op "c") in
      commit_record log ~slot;
      Pmem.crash pm Pmem.Drop_all;
      let entries = Oplog.scan log in
      check Alcotest.int "record survives" 1 (List.length entries);
      Alcotest.(check bool) "committed survives" true
        (List.hd entries).Oplog.committed)

let test_oplog_uncommitted_after_crash () =
  with_sim (fun p _ ->
      let pm, log = fresh_log p in
      ignore (append log (put_op "u"));
      Pmem.crash pm Pmem.Drop_all;
      let entries = Oplog.scan log in
      (* persist ran, so the record is durable but must scan as
         uncommitted. *)
      check Alcotest.int "valid" 1 (List.length entries);
      Alcotest.(check bool) "uncommitted" false (List.hd entries).Oplog.committed)

let test_oplog_recover_tail () =
  with_sim (fun p _ ->
      let pm, log = fresh_log p in
      ignore (append log (put_op "a"));
      ignore (append log (Logrec.Noop { key = String.make 100 'b' }));
      let expected_tail = Oplog.tail log in
      (* A fresh attach (the recovery path) must land on the same tail. *)
      let log2 = Oplog.attach pm ~off:0 ~slots:64 in
      Oplog.recover_tail log2;
      check Alcotest.int "tail recovered" expected_tail (Oplog.tail log2))

(* --- Oplog persistence-call accounting (group commit) ------------------ *)

(* Pin the exact flush/fence counts of every append/commit shape, so a
   protocol change that silently adds or drops a persistence round fails
   here. Single-slot append: the LSN line is the whole record — 1 flush +
   1 fence. Multi-slot append: payload round then LSN round — 2 + 2.
   Per-record commit: 1 + 1. A batched append is 2 + 2 {e regardless of
   record count} (two coalesced passes over the whole staged span), and a
   batch commit 1 + 1 — that amortization is the whole point of group
   commit. *)
let test_oplog_persist_call_accounting () =
  with_sim (fun p _ ->
      let pm, log = fresh_log ~slots:128 p in
      let st = Pmem.stats pm in
      let snap () = (st.Pmem.flush_calls, st.Pmem.fence_calls) in
      let diff (f0, fe0) =
        (st.Pmem.flush_calls - f0, st.Pmem.fence_calls - fe0)
      in
      (* Single-slot record. *)
      let s = snap () in
      let slot, _ = append log (put_op "one") in
      Alcotest.(check (pair int int)) "single-slot append: 1 flush, 1 fence"
        (1, 1) (diff s);
      let s = snap () in
      commit_record log ~slot;
      Alcotest.(check (pair int int)) "commit: 1 flush, 1 fence" (1, 1) (diff s);
      (* Multi-slot record: payload round then LSN round. *)
      let big = Logrec.Noop { key = String.make 100 'm' } in
      Alcotest.(check bool) "fixture is multi-slot" true
        (Logrec.slots_needed big > 1);
      let s = snap () in
      ignore (append log big);
      Alcotest.(check (pair int int)) "multi-slot append: 2 flushes, 2 fences"
        (2, 2) (diff s);
      (* Batched append: four records, still two coalesced rounds. *)
      let stage op =
        match reserve log (Logrec.slots_needed op) with
        | None -> Alcotest.fail "log full"
        | Some (slot, lsn) ->
            Oplog.write_record log ~slot ~lsn op;
            (slot, lsn, op)
      in
      let items =
        List.map
          (fun i -> stage (put_op (Printf.sprintf "b%d" i)))
          [ 1; 2; 3; 4 ]
      in
      let lo = List.fold_left (fun a (sl, _, _) -> min a sl) max_int items in
      let s = snap () in
      Oplog.persist log ~slot:lo ~records:(List.length items);
      Alcotest.(check (pair int int)) "batched append: 2 flushes, 2 fences"
        (2, 2) (diff s);
      (* Batch commit: all commit words set, one persist over the span. *)
      let s = snap () in
      Oplog.commit log ~slot:lo ~records:(List.length items) ~unlock:ignore;
      Alcotest.(check (pair int int)) "batch commit: 1 flush, 1 fence" (1, 1)
        (diff s))

let test_oplog_group_persist_durable () =
  with_sim (fun p _ ->
      let pm, log = fresh_log ~slots:128 p in
      let stage op =
        match reserve log (Logrec.slots_needed op) with
        | None -> Alcotest.fail "log full"
        | Some (slot, lsn) ->
            Oplog.write_record log ~slot ~lsn op;
            (slot, lsn, op)
      in
      (* Mixed shapes: the middle record spans several slots. *)
      let items =
        List.map stage
          [ put_op "k0"; Logrec.Noop { key = String.make 100 'z' }; put_op "k2" ]
      in
      let lo = List.fold_left (fun a (sl, _, _) -> min a sl) max_int items in
      Oplog.persist log ~slot:lo ~records:(List.length items);
      Pmem.crash pm Pmem.Drop_all;
      let entries = Oplog.scan log in
      check Alcotest.int "all records valid after crash" 3 (List.length entries);
      Alcotest.(check bool) "all uncommitted" true
        (List.for_all (fun e -> not e.Oplog.committed) entries);
      (* Batch commit, then crash again: every member durable-committed. *)
      Oplog.commit log ~slot:lo ~records:(List.length items) ~unlock:ignore;
      Pmem.crash pm Pmem.Drop_all;
      let entries = Oplog.scan log in
      Alcotest.(check bool) "all committed after crash" true
        (List.length entries = 3
        && List.for_all (fun e -> e.Oplog.committed) entries))

let prop_oplog_random_crash_valid_prefix =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"oplog: after random crash, scan returns exactly the flushed records"
       ~count:60
       QCheck.(int_range 0 100_000)
       (fun seed ->
         Seed_report.attempt ~test:"oplog random-crash valid prefix" ~seed
           ~repro:
             (Printf.sprintf
                "dune exec test/test_main.exe -- test core  # seed %d" seed)
         @@ fun () ->
         with_sim (fun p _ ->
             let r = Rng.create seed in
             let pm, log = fresh_log ~slots:128 p in
             let flushed = ref [] in
             let unflushed = ref 0 in
             for i = 0 to 20 + Rng.int r 20 do
               let key = Printf.sprintf "k%d" i in
               let op =
                 if Rng.int r 4 = 0 then Logrec.Noop { key = key ^ String.make 80 'p' }
                 else put_op key
               in
               match reserve log (Logrec.slots_needed op) with
               | None -> ()
               | Some (slot, lsn) ->
                   Oplog.write_record log ~slot ~lsn op;
                   if Rng.int r 5 > 0 then begin
                     Oplog.persist log ~slot ~records:1;
                     flushed := (lsn, op) :: !flushed
                   end
                   else incr unflushed
             done;
             Pmem.crash pm (Pmem.Random (Rng.split r));
             let entries = Oplog.scan log in
             let expected = List.rev !flushed in
             (* Every flushed record must be found; unflushed ones may or
                may not appear (spurious eviction), but never corrupted. *)
             let found = List.map (fun e -> (e.Oplog.lsn, e.Oplog.op)) entries in
             List.for_all (fun fe -> List.mem fe found) expected)))

(* --- Root ------------------------------------------------------------ *)

let some_state =
  {
    Root.current_space = 1;
    active_log = 0;
    ckpt_in_progress = true;
    ckpt_archived_log = 1;
    last_applied_lsn = 777;
  }

let test_root_init_read () =
  with_sim (fun p _ ->
      let pm = pmem p 8192 in
      let r = Root.init pm ~off:0 some_state in
      Alcotest.(check bool) "state read back" true (Root.read r = some_state);
      Alcotest.(check bool) "initialized" true (Root.is_initialized pm ~off:0))

let test_root_attach_uninitialized () =
  with_sim (fun p _ ->
      let pm = pmem p 8192 in
      Alcotest.(check bool) "not initialized" false (Root.is_initialized pm ~off:0);
      Alcotest.check_raises "attach fails"
        (Invalid_argument "Root.attach: no initialized root object") (fun () ->
          ignore (Root.attach pm ~off:0)))

let test_root_publish_atomic () =
  with_sim (fun p _ ->
      let pm = pmem p 8192 in
      let r = Root.init pm ~off:0 some_state in
      let s2 = { some_state with current_space = 0; last_applied_lsn = 999 } in
      Root.publish r s2;
      Alcotest.(check bool) "new state" true (Root.read r = s2);
      Root.publish r some_state;
      Alcotest.(check bool) "flip again" true (Root.read r = some_state))

let test_root_crash_between_publishes () =
  (* A crash that loses the unflushed bank write must leave the previous
     complete state. publish persists before flipping, so crash-after-
     publish keeps the new state; tamper by writing a bank without the
     selector flip. *)
  with_sim (fun p _ ->
      let pm = pmem p 8192 in
      let r = Root.init pm ~off:0 some_state in
      let s2 = { some_state with last_applied_lsn = 1234 } in
      Root.publish r s2;
      Pmem.crash pm Pmem.Drop_all;
      let r2 = Root.attach pm ~off:0 in
      Alcotest.(check bool) "published state durable" true (Root.read r2 = s2))

let prop_root_publish_crash =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"root: crash during publishes yields some previously published state"
       ~count:60
       QCheck.(int_range 0 100_000)
       (fun seed ->
         Seed_report.attempt ~test:"root publish crash" ~seed
           ~repro:
             (Printf.sprintf
                "dune exec test/test_main.exe -- test core  # seed %d" seed)
         @@ fun () ->
         with_sim (fun p _ ->
             let r = Rng.create seed in
             let pm = pmem p 8192 in
             let state_n n = { some_state with last_applied_lsn = n } in
             let root = Root.init pm ~off:0 (state_n 0) in
             let published = ref [ 0 ] in
             for n = 1 to 1 + Rng.int r 6 do
               Root.publish root (state_n n);
               published := n :: !published
             done;
             (* One more publish interrupted by a crash: tamper mid-way by
                crashing immediately after a bank write would require
                internal access; instead crash with random line loss right
                after a full publish — the selector line may or may not
                have made it... it is persisted, so the last state holds. *)
             Pmem.crash pm (Pmem.Random (Rng.split r));
             let got = (Root.read (Root.attach pm ~off:0)).Root.last_applied_lsn in
             List.mem got !published)))

let suite =
  [
    ("logrec roundtrip", `Quick, test_logrec_roundtrip);
    ("logrec roundtrip padded", `Quick, test_logrec_roundtrip_padded);
    ("logrec compact (32B + name)", `Quick, test_logrec_compact);
    ("logrec multislot", `Quick, test_logrec_multislot);
    ("logrec bad tag", `Quick, test_logrec_bad_tag);
    ("logrec truncated", `Quick, test_logrec_truncated);
    ("logrec decode bounded by len", `Quick, test_logrec_decode_bound);
    prop_logrec_roundtrip;
    ("logrec pinned bytes", `Quick, test_logrec_pinned_bytes);
    prop_logrec_sized_encode;
    ("logrec put estimate table", `Quick, test_put_max_slots_table);
    ("oplog append+scan", `Quick, test_oplog_append_scan);
    ("oplog scan alloc budget", `Quick, test_oplog_scan_alloc_budget);
    prop_oplog_committed_matches_passes;
    ("oplog committed spans", `Quick, test_oplog_committed_spans);
    ("oplog committed alloc budget", `Quick, test_oplog_committed_alloc_budget);
    ("oplog multislot records", `Quick, test_oplog_multislot_records);
    ("oplog reserve exhaustion", `Quick, test_oplog_reserve_exhaustion);
    ("oplog reset clears", `Quick, test_oplog_reset_clears);
    ("oplog stale epoch invalid", `Quick, test_oplog_stale_epoch_invalid);
    ("oplog torn LSN invalid", `Quick, test_oplog_torn_lsn_invalid);
    ("oplog torn multislot doesn't hide later", `Quick,
     test_oplog_torn_multislot_does_not_hide_later);
    ("oplog forged interior slot rejected", `Quick, test_oplog_interior_collision_rejected);
    ("oplog commit persists", `Quick, test_oplog_commit_persists);
    ("oplog uncommitted after crash", `Quick, test_oplog_uncommitted_after_crash);
    ("oplog recover_tail", `Quick, test_oplog_recover_tail);
    ("oplog persist-call accounting", `Quick, test_oplog_persist_call_accounting);
    ("oplog group persist durable", `Quick, test_oplog_group_persist_durable);
    prop_oplog_random_crash_valid_prefix;
    ("root init/read", `Quick, test_root_init_read);
    ("root attach uninitialized", `Quick, test_root_attach_uninitialized);
    ("root publish atomic", `Quick, test_root_publish_atomic);
    ("root crash after publish", `Quick, test_root_crash_between_publishes);
    prop_root_publish_crash;
  ]
