open Dstore_pmem
open Dstore_util

(* Region layout: one 64 B header slot, then [slots] record slots.
   Header: magic u64 | lsn_base u64.
   Record slot 0: lsn u64 | commit u64 | len u16 | op u8 | pad | crc u32 |
   payload(40); continuation slots are raw payload. *)

let slot_bytes = Logrec.slot_bytes

let magic = 0x444C4F474C4F47 (* "DLOGLOG" *)

(* Log-level registry counters; both logs of an engine share one set (the
   series describe the engine's logging activity, not one region). *)
type counters = {
  c_appends : Dstore_obs.Metrics.counter;
  c_commits : Dstore_obs.Metrics.counter;
  c_resets : Dstore_obs.Metrics.counter;
  c_scans : Dstore_obs.Metrics.counter;
}

type t = {
  pm : Pmem.t;
  off : int;
  slots : int;
  mutable base : int;  (* cached lsn_base *)
  mutable tail_ : int;
  ctr : counters option;
  fault : Config.fault;  (* injected protocol bug; No_fault in production *)
  mutable scratch : Bytes.t;
      (* payload staging for [probe], grown to the longest record seen;
         scans of one log are serialized (checkpointer or recovery) *)
  mutable img : Bytes.t;
      (* record image staging for [write_record], grown likewise;
         appends to one log are serialized by the frontend lock *)
  (* The last successful [probe]'s decoded fields. *)
  mutable p_len : int;
  mutable p_committed : bool;
  mutable p_op : Logrec.op;
}

let region_bytes ~slots = (slots + 1) * slot_bytes

let hdr_off t = t.off

let slot_off t s =
  assert (s >= 0 && s < t.slots);
  t.off + ((s + 1) * slot_bytes)

let counters_of obs =
  let m = obs.Dstore_obs.Obs.metrics in
  let module M = Dstore_obs.Metrics in
  {
    c_appends = M.counter m "oplog.records_written";
    c_commits = M.counter m "oplog.records_committed";
    c_resets = M.counter m "oplog.resets";
    c_scans = M.counter m "oplog.scans";
  }

let count c f = match c with Some c -> Dstore_obs.Metrics.incr (f c) | None -> ()

let attach ?obs ?(fault = Config.No_fault) pm ~off ~slots =
  assert (off mod slot_bytes = 0);
  let ctr = Option.map counters_of obs in
  let t =
    {
      pm;
      off;
      slots;
      base = 0;
      tail_ = 0;
      ctr;
      fault;
      scratch = Bytes.empty;
      img = Bytes.empty;
      p_len = 0;
      p_committed = false;
      p_op = Logrec.Noop { key = "" };
    }
  in
  t.base <- Pmem.get_u64 pm (hdr_off t + 8);
  t

let reset t ~lsn_base =
  count t.ctr (fun c -> c.c_resets);
  Pmem.fill t.pm t.off (region_bytes ~slots:t.slots) 0;
  Pmem.set_u64 t.pm (hdr_off t) magic;
  Pmem.set_u64 t.pm (hdr_off t + 8) lsn_base;
  Pmem.persist t.pm t.off (region_bytes ~slots:t.slots);
  t.base <- lsn_base;
  t.tail_ <- 0

let capacity t = t.slots

let lsn_base t = t.base

let tail t = t.tail_

let free_slots t = t.slots - t.tail_

let reserve t n =
  assert (n > 0);
  if t.tail_ + n > t.slots then -1
  else begin
    let slot = t.tail_ in
    t.tail_ <- t.tail_ + n;
    slot
  end

let zero_word = Bytes.make 4 '\000'

(* Whether the CRC [write_record] stored matches the device bytes,
   hashed in place: the commit word is skipped and the CRC field reads as
   zero, as they did when the record was built. *)
let crc_matches t ~slot ~len_slots =
  let off = slot_off t slot in
  let c = Pmem.crc32c t.pm ~off ~len:8 in
  let c = Pmem.crc32c ~init:c t.pm ~off:(off + 16) ~len:4 in
  let c = Checksum.crc32c ~init:c zero_word ~pos:0 ~len:4 in
  let crc =
    Pmem.crc32c ~init:c t.pm ~off:(off + 24)
      ~len:((len_slots * slot_bytes) - 24)
  in
  Pmem.get_u32 t.pm (off + 20) = crc

(* Assemble the full record image (header + payload, the payload encoded
   in place) in the log's staging buffer, then store everything except
   the LSN word; [persist] writes it after the rest of the record is
   durable. The CRC covers lsn, len, op and payload — everything except
   the commit word and the CRC itself. *)
let write_record t ~slot ~lsn op =
  count t.ctr (fun c -> c.c_appends);
  let len_slots = Logrec.slots_needed op in
  let len = len_slots * slot_bytes in
  assert (slot + len_slots <= t.slots);
  if Bytes.length t.img < len then t.img <- Bytes.create len;
  let img = t.img in
  Bytes.fill img 0 len '\000';
  Bytes.set_int64_le img 0 (Int64.of_int lsn);
  (* commit word at 8 stays 0 *)
  Bytes.set_uint16_le img 16 len_slots;
  Bytes.set_uint8 img 18 (Logrec.tag_of_op op);
  ignore (Logrec.encode_into op img Logrec.header_bytes);
  let c = Checksum.crc32c img ~pos:0 ~len:8 in
  let crc = Checksum.crc32c ~init:c img ~pos:16 ~len:(len - 16) in
  Bytes.set_int32_le img 20 (Int32.of_int crc);
  Pmem.blit_from_bytes t.pm img ~src:8 ~dst:(slot_off t slot + 8) ~len:(len - 8)

(* A staged record's length in slots, from the header [write_record]
   stored. *)
let record_slots t s = Pmem.get_u16 t.pm (slot_off t s + 16)

let rec span_end t s k = if k = 0 then s else span_end t (s + record_slots t s) (k - 1)

let txn_commit_tag = Logrec.tag_of_op (Logrec.Txn_commit { txn = 0 })

(* Store the LSN words of the [k] records staged from slot [s], except a
   [Txn_commit] record's: that word is its transaction's commit point,
   which only [flush_txn_commit] writes. *)
let rec store_lsns t s k =
  if k > 0 then begin
    let off = slot_off t s in
    if Pmem.get_u8 t.pm (off + 18) <> txn_commit_tag then
      Pmem.set_u64 t.pm off (t.base + s);
    store_lsns t (s + record_slots t s) (k - 1)
  end

let rec flush_first_lines t s k =
  if k > 0 then begin
    Pmem.flush t.pm (slot_off t s) slot_bytes;
    flush_first_lines t (s + record_slots t s) (k - 1)
  end

(* One record takes the §3.4 protocol: flush its continuation lines,
   then write the LSN and flush its line last, so the record becomes
   valid only once the rest of it is durable.

   Two or more take two coalesced flush+fence rounds over the whole
   staged span instead of one or two per record. The first round may
   include each record's first line: every LSN word is still zero then,
   so no record can probe as valid. Then every LSN word is stored and
   the span flushed and fenced again. Each record therefore keeps the
   single-record invariant, its payload durable strictly before its LSN
   line, so after a crash any subset of the span survives, each member
   individually valid-or-absent. *)
let persist t ~slot ~records =
  let skip_payload = t.fault = Config.Skip_payload_flush in
  let off = slot_off t slot in
  if records = 1 then begin
    let n = record_slots t slot in
    if n > 1 && not skip_payload then begin
      Pmem.flush t.pm (off + slot_bytes) ((n - 1) * slot_bytes);
      Pmem.fence t.pm
    end;
    store_lsns t slot 1;
    Pmem.persist t.pm off slot_bytes
  end
  else begin
    let span = (span_end t slot records - slot) * slot_bytes in
    if not skip_payload then begin
      Pmem.flush t.pm off span;
      Pmem.fence t.pm
    end;
    store_lsns t slot records;
    if skip_payload then
      (* Mirror the single-record fault: persist only each record's LSN
         line, leaving continuation lines unflushed. *)
      flush_first_lines t slot records
    else Pmem.flush t.pm off span;
    Pmem.fence t.pm
  end

(* Transaction commit point: make the span's Txn_commit record valid. The
   members were already persisted, so storing + flushing the commit
   record's LSN line is the single atomic step that commits the whole
   span. Under [Skip_txn_commit_record] the LSN word is stored but never
   flushed — recovery still sees the commit in the cache-warm image
   (checkpoint replay reads memory), but a power failure can drop the
   line, evaporating an acknowledged transaction wholesale. *)
let flush_txn_commit t ~slot =
  let off = slot_off t slot in
  Pmem.set_u64 t.pm off (t.base + slot);
  if t.fault <> Config.Skip_txn_commit_record then
    Pmem.persist t.pm off slot_bytes

(* Set the commit words of the [k] records staged from [s]; the slot
   after the last. *)
let rec set_commit_words t s k =
  if k = 0 then s
  else begin
    count t.ctr (fun c -> c.c_commits);
    Pmem.set_u64 t.pm (slot_off t s + 8) 1;
    set_commit_words t (s + record_slots t s) (k - 1)
  end

(* One commit word persists its line; a span of them persists with one
   flush+fence over the span. The faults model losing that persist pass
   whole: in this PMEM model a flushed line is durable immediately, so
   skipping only the fence would not be observable. *)
let commit t ~slot ~records ~unlock =
  let hi = set_commit_words t slot records in
  unlock ();
  if records = 1 then begin
    if t.fault <> Config.Skip_commit_persist then
      Pmem.persist t.pm (slot_off t slot) slot_bytes
  end
  else if t.fault <> Config.Skip_batch_commit_fence then
    Pmem.persist t.pm (slot_off t slot) ((hi - slot) * slot_bytes)

type entry = { lsn : int; slot : int; committed : bool; op : Logrec.op }

(* Validity probe at slot [s]: LSN equation + CRC. On success the
   record's slot length, commit word and decoded operation are left in
   [p_len], [p_committed] and [p_op] (its LSN is [base + s]), so a scan
   step allocates only the decoded operation. *)
let probe t s =
  let base_off = slot_off t s in
  Pmem.get_u64 t.pm base_off = t.base + s
  &&
  let len_slots = Pmem.get_u16 t.pm (base_off + 16) in
  len_slots >= 1
  && s + len_slots <= t.slots
  && crc_matches t ~slot:s ~len_slots
  &&
  let tag = Pmem.get_u8 t.pm (base_off + 18) in
  let payload_len = (len_slots * slot_bytes) - Logrec.header_bytes in
  if Bytes.length t.scratch < payload_len then
    t.scratch <- Bytes.create payload_len;
  Pmem.blit_to_bytes t.pm
    ~src:(base_off + Logrec.header_bytes)
    t.scratch ~dst:0 ~len:payload_len;
  match Logrec.decode_payload ~len:payload_len ~tag t.scratch with
  | op ->
      t.p_len <- len_slots;
      t.p_committed <- Pmem.get_u64 t.pm (base_off + 8) = 1;
      t.p_op <- op;
      true
  | exception Failure _ -> false

let scan t =
  count t.ctr (fun c -> c.c_scans);
  let rec go s acc =
    if s >= t.slots then List.rev acc
    else if probe t s then
      go (s + t.p_len)
        ({ lsn = t.base + s; slot = s; committed = t.p_committed; op = t.p_op }
        :: acc)
    else go (s + 1) acc
  in
  go 0 []

(* Resolve transaction span framing over one log's scan (ascending slot
   order). A Txn_begin opens a span: its member records follow at
   contiguous slots (staged under one frontend-lock hold; a log swap
   re-homes the whole span together, so contiguity survives). The span is
   committed iff the full member chain is intact AND the matching
   Txn_commit record probes valid at the expected slot — members of a
   committed span are surfaced with [committed = true] (they carry no
   commit words of their own), members of a torn span are dropped, and
   framing records never escape. A record that breaks the chain (a torn
   member made scan skip ahead) is outside the span and re-enters the
   normal stream, where its own commit word governs. *)
let resolve_txn_spans entries =
  let rec go = function
    | [] -> []
    | e :: rest -> (
        match e.op with
        | Logrec.Txn_commit _ -> go rest (* orphan commit: no open span *)
        | Logrec.Txn_begin { txn; members } ->
            let rec take k expected acc l =
              if k = 0 then (List.rev acc, expected, l)
              else
                match l with
                | m :: tl
                  when m.slot = expected
                       && (match m.op with
                          | Logrec.Txn_begin _ | Logrec.Txn_commit _ -> false
                          | _ -> true) ->
                    take (k - 1)
                      (expected + Logrec.slots_needed m.op)
                      (m :: acc) tl
                | _ -> (List.rev acc, -1, l)
            in
            let mems, expected, rest' =
              take members (e.slot + Logrec.slots_needed e.op) [] rest
            in
            (match rest' with
            | c :: tl
              when expected >= 0 && c.slot = expected
                   && (match c.op with
                      | Logrec.Txn_commit tc -> tc.txn = txn
                      | _ -> false) ->
                List.map (fun m -> { m with committed = true }) mems @ go tl
            | _ -> go rest')
        | _ -> e :: go rest)
  in
  go entries

let is_framing = function
  | Logrec.Txn_begin _ | Logrec.Txn_commit _ -> true
  | _ -> false

let closes txn = function
  | Logrec.Txn_commit tc -> tc.txn = txn
  | _ -> false

(* [scan |> resolve_txn_spans |> List.filter] in one pass: the same slot
   stepping, with the span resolution run as a state machine over the
   same entry sequence, building only the output list. Inside a span
   ([in_span]), [left] members are still to chain and [expected] is the
   slot the next member — or, once [left] is 0, the commit record — must
   start at. Members that pass the filter are pushed onto the output as
   they chain, already marked committed; a span that fails to commit
   rolls the output back to [mark], its value at the Txn_begin. A record
   that breaks a span re-enters the normal stream, as in
   [resolve_txn_spans]. *)
let committed t ~above =
  count t.ctr (fun c -> c.c_scans);
  let acc = ref [] and mark = ref [] in
  let in_span = ref false and txn = ref 0 and left = ref 0 and expected = ref 0 in
  let s = ref 0 in
  while !s < t.slots do
    let slot = !s in
    if not (probe t slot) then s := slot + 1
    else begin
      let op = t.p_op and next = slot + t.p_len and lsn = t.base + slot in
      s := next;
      let consumed =
        !in_span
        &&
        if slot = !expected && !left <> 0 && not (is_framing op) then begin
          left := !left - 1;
          expected := next;
          (match op with
          | Logrec.Noop _ -> ()
          | _ ->
              if lsn > above then
                acc := { lsn; slot; committed = true; op } :: !acc);
          true
        end
        else if slot = !expected && !left = 0 && closes !txn op then begin
          in_span := false;
          true
        end
        else begin
          acc := !mark;
          in_span := false;
          false
        end
      in
      if not consumed then
        match op with
        | Logrec.Txn_commit _ | Logrec.Noop _ -> ()
        | Logrec.Txn_begin tb ->
            in_span := true;
            txn := tb.txn;
            left := tb.members;
            expected := next;
            mark := !acc
        | _ ->
            if t.p_committed && lsn > above then
              acc := { lsn; slot; committed = true; op } :: !acc
    end
  done;
  List.rev (if !in_span then !mark else !acc)

let recover_tail t =
  let entries = scan t in
  let last_end =
    List.fold_left
      (fun acc e -> max acc (e.slot + Logrec.slots_needed e.op))
      0 entries
  in
  t.tail_ <- last_end

(* Structural self-check over the persistent region. Only properties that
   must hold in ANY reachable durable state are checked: header magic and
   base, and for every slot that probes as a valid record, sane commit
   word and in-range extent. Invalid slots are fine — a torn append leaves
   garbage that scan skips by design. *)
let fsck t =
  let bad = ref [] in
  let err fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  let m = Pmem.get_u64 t.pm (hdr_off t) in
  if m <> magic then err "oplog@%d: bad magic %#x" t.off m;
  let base = Pmem.get_u64 t.pm (hdr_off t + 8) in
  if base < 0 then err "oplog@%d: negative lsn base %d" t.off base;
  let rec go s =
    if s < t.slots then
      if probe t s then begin
        let len = t.p_len in
        let commit = Pmem.get_u64 t.pm (slot_off t s + 8) in
        if commit <> 0 && commit <> 1 then
          err "oplog@%d slot %d: commit word %d not in {0,1}" t.off s commit;
        if s + len > t.slots then
          err "oplog@%d slot %d: record overruns region" t.off s;
        go (s + len)
      end
      else go (s + 1)
  in
  go 0;
  List.rev !bad
