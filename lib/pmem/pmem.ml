open Dstore_platform
open Dstore_util

let line_size = 64

let line_shift = 6

(* A transfer of at least this many lines (4 KB) occupies the shared
   bandwidth domain for its duration; smaller flushes only sample it. *)
let bulk_lines = 64

module Bw = struct
  type t = {
    mutable active : int;
    mutable peak : int;
    (* Cumulative busy clock: total virtual time the domain has had at
       least one bulk transfer in flight. Span recorders sample it at
       period boundaries — the in-period delta is exactly how long a
       checkpoint clone / recovery copy overlapped the op, i.e. its
       checkpoint-interference blame. O(1), allocation-free. *)
    mutable busy_ns : int;  (* completed busy intervals *)
    mutable busy_since : int;  (* start of the open interval, if active *)
    (* Foreground flushes that paid the shared-load rate because a bulk
       transfer held the DIMMs, and the extra ns they paid for it. *)
    mutable contended_flushes : int;
    mutable contended_extra_ns : int;
  }

  let create () =
    {
      active = 0;
      peak = 0;
      busy_ns = 0;
      busy_since = 0;
      contended_flushes = 0;
      contended_extra_ns = 0;
    }

  let active d = d.active

  let peak d = d.peak

  let enter d ~now =
    if d.active = 0 then d.busy_since <- now;
    d.active <- d.active + 1;
    if d.active > d.peak then d.peak <- d.active

  let leave d ~now =
    d.active <- d.active - 1;
    if d.active = 0 then d.busy_ns <- d.busy_ns + (now - d.busy_since)

  let busy_at d ~now =
    d.busy_ns + (if d.active > 0 then now - d.busy_since else 0)

  let contended_flushes d = d.contended_flushes

  let contended_extra_ns d = d.contended_extra_ns
end

type stats = {
  mutable bytes_written : int;
  mutable bytes_flushed : int;
  mutable bytes_read_bulk : int;
  mutable flush_calls : int;
  mutable fence_calls : int;
}

type config = {
  size : int;
  flush_ns : int;
  fence_ns : int;
  read_bw : float;
  write_bw : float;
  crash_model : bool;
  share : Bw.t option;
}

let default_config =
  {
    size = 256 * 1024 * 1024;
    flush_ns = 100;
    fence_ns = 200;
    read_bw = 30.0;
    write_bw = 10.0;
    crash_model = true;
    share = None;
  }

type t = {
  cfg : config;
  platform : Platform.t;
  data : Bytes.t;
  (* line index -> last durable content of that line (undo image) *)
  dirty : (int, Bytes.t) Hashtbl.t;
  guard : Mutex.t;  (* protects [dirty] under the real platform *)
  st : stats;
  mutable persist_events : int;
  mutable persist_hook : (int -> unit) option;
  mutable in_bulk : bool;  (* inside [with_bulk]: one registered transfer *)
}

let create platform cfg =
  assert (cfg.size > 0 && cfg.size mod line_size = 0);
  {
    cfg;
    platform;
    data = Bytes.make cfg.size '\000';
    dirty = Hashtbl.create 4096;
    guard = Mutex.create ();
    st =
      {
        bytes_written = 0;
        bytes_flushed = 0;
        bytes_read_bulk = 0;
        flush_calls = 0;
        fence_calls = 0;
      };
    persist_events = 0;
    persist_hook = None;
    in_bulk = false;
  }

let size t = t.cfg.size

let persist_events t = t.persist_events

let set_persist_hook t hook = t.persist_hook <- hook

(* One persistence event = one flush or fence reaching the device. The
   counter is a plain increment (allocation-free, deterministic under the
   DES); the optional callback lets crash harnesses stop the world at an
   exact event index — it may raise, which aborts the persisting call. *)
let persist_event t =
  let n = t.persist_events + 1 in
  t.persist_events <- n;
  match t.persist_hook with Some f -> f n | None -> ()

let stats t = t.st

(* Charge [cost] against the shared bandwidth domain, if any. Every
   concurrent transfer in the domain divides the DIMM bandwidth evenly, so
   a transfer overlapping [n] others takes (n+1)x as long. Bulk transfers
   (checkpoint clones, persist sweeps) register as active for their whole
   duration; single-line-ish flushes only sample the current load — they
   are too short to meaningfully slow a bulk peer down, but they do get
   slowed down by one. Guarded with [Fun.protect] because the DES can
   abort the wait (crash harness stopping the world). *)
let consume_shared t ~bulk cost =
  match t.cfg.share with
  | None -> t.platform.consume cost
  | Some d ->
      if t.in_bulk then
        (* The surrounding [with_bulk] already registered this device as
           one active transfer; each segment pays the current load factor
           without flipping the domain's active count per segment. *)
        t.platform.consume (cost * max 1 d.Bw.active)
      else if bulk then begin
        Bw.enter d ~now:(t.platform.now ());
        Fun.protect
          ~finally:(fun () -> Bw.leave d ~now:(t.platform.now ()))
          (fun () -> t.platform.consume (cost * d.Bw.active))
      end
      else begin
        if d.Bw.active > 0 then begin
          d.Bw.contended_flushes <- d.Bw.contended_flushes + 1;
          d.Bw.contended_extra_ns <-
            d.Bw.contended_extra_ns + (cost * d.Bw.active)
        end;
        t.platform.consume (cost * (1 + d.Bw.active))
      end

(* A segmented transfer (delta clone, sparse persist sweep) is one logical
   bulk operation: register it in the shared domain once for its whole
   duration, so its many small flushes and reads neither dodge bulk
   pricing nor churn the domain's active count. Reentrant; a no-op on
   devices without a shared domain. [Fun.protect] because a crash harness
   can abort mid-transfer from inside a flush. *)
let with_bulk t f =
  match t.cfg.share with
  | None -> f ()
  | Some d ->
      if t.in_bulk then f ()
      else begin
        t.in_bulk <- true;
        Bw.enter d ~now:(t.platform.now ());
        Fun.protect
          ~finally:(fun () ->
            Bw.leave d ~now:(t.platform.now ());
            t.in_bulk <- false)
          f
      end

(* Cumulative time the device's shared bandwidth domain has had a bulk
   transfer in flight, up to now; 0 without a shared domain. This is the
   ambient clock span recorders use for checkpoint-interference blame. *)
let bulk_busy_ns t =
  match t.cfg.share with
  | None -> 0
  | Some d -> Bw.busy_at d ~now:(t.platform.now ())

let dirty_lines_unlocked t =
  Mutex.lock t.guard;
  let n = Hashtbl.length t.dirty in
  Mutex.unlock t.guard;
  n

(* Surface the device counters as registry views. The hot path keeps its
   plain mutable stats (always on — crash tooling depends on them); the
   registry reads them on snapshot, so the unified export sees the device
   without adding a single instruction to loads and stores. *)
let attach_obs t obs =
  let m = obs.Dstore_obs.Obs.metrics in
  let module M = Dstore_obs.Metrics in
  M.gauge_fn m "pmem.bytes_written" (fun () -> t.st.bytes_written);
  M.gauge_fn m "pmem.bytes_flushed" (fun () -> t.st.bytes_flushed);
  M.gauge_fn m "pmem.bytes_read_bulk" (fun () -> t.st.bytes_read_bulk);
  M.gauge_fn m "pmem.flush_calls" (fun () -> t.st.flush_calls);
  M.gauge_fn m "pmem.fence_calls" (fun () -> t.st.fence_calls);
  M.gauge_fn m "pmem.lines_flushed" (fun () -> t.st.bytes_flushed / line_size);
  M.gauge_fn m "pmem.dirty_lines" (fun () -> dirty_lines_unlocked t);
  match t.cfg.share with
  | None -> ()
  | Some d ->
      M.gauge_fn m "pmem.bw_bulk_busy_ns" (fun () -> bulk_busy_ns t);
      M.gauge_fn m "pmem.bw_peak" (fun () -> Bw.peak d);
      M.gauge_fn m "pmem.bw_contended_flushes" (fun () ->
          Bw.contended_flushes d);
      M.gauge_fn m "pmem.bw_contended_extra_ns" (fun () ->
          Bw.contended_extra_ns d)

(* Record undo images for every line intersecting [off, off+len) that is
   not already dirty. Must run before the store mutates [data]. *)
let note_write t off len =
  t.st.bytes_written <- t.st.bytes_written + len;
  if t.cfg.crash_model then begin
    let first = off lsr line_shift and last = (off + len - 1) lsr line_shift in
    Mutex.lock t.guard;
    for l = first to last do
      if not (Hashtbl.mem t.dirty l) then begin
        let undo = Bytes.create line_size in
        Bytes.blit t.data (l lsl line_shift) undo 0 line_size;
        Hashtbl.add t.dirty l undo
      end
    done;
    Mutex.unlock t.guard
  end

let check t off len =
  if off < 0 || len < 0 || off + len > t.cfg.size then
    invalid_arg
      (Printf.sprintf "Pmem: access [%d,+%d) outside device of %d bytes" off
         len t.cfg.size)

let get_u8 t off =
  check t off 1;
  Char.code (Bytes.unsafe_get t.data off)

let set_u8 t off v =
  check t off 1;
  note_write t off 1;
  Bytes.unsafe_set t.data off (Char.unsafe_chr (v land 0xff))

let get_u16 t off =
  check t off 2;
  Bytes.get_uint16_le t.data off

let set_u16 t off v =
  check t off 2;
  note_write t off 2;
  Bytes.set_uint16_le t.data off (v land 0xffff)

let get_u32 t off =
  check t off 4;
  Int32.to_int (Bytes.get_int32_le t.data off) land 0xFFFFFFFF

let set_u32 t off v =
  check t off 4;
  note_write t off 4;
  Bytes.set_int32_le t.data off (Int32.of_int v)

let get_u64 t off =
  check t off 8;
  Int64.to_int (Bytes.get_int64_le t.data off)

let set_u64 t off v =
  check t off 8;
  note_write t off 8;
  Bytes.set_int64_le t.data off (Int64.of_int v)

let blit_to_bytes t ~src b ~dst ~len =
  check t src len;
  Bytes.blit t.data src b dst len

let blit_from_bytes t b ~src ~dst ~len =
  check t dst len;
  note_write t dst len;
  Bytes.blit b src t.data dst len

let blit_within t ~src ~dst ~len =
  check t src len;
  check t dst len;
  note_write t dst len;
  Bytes.blit t.data src t.data dst len

let fill t off len byte =
  check t off len;
  note_write t off len;
  Bytes.fill t.data off len (Char.chr (byte land 0xff))

let flush t off len =
  check t off len;
  if len > 0 then begin
    let first = off lsr line_shift and last = (off + len - 1) lsr line_shift in
    let nlines = last - first + 1 in
    if t.cfg.crash_model then begin
      Mutex.lock t.guard;
      for l = first to last do
        Hashtbl.remove t.dirty l
      done;
      Mutex.unlock t.guard
    end;
    t.st.flush_calls <- t.st.flush_calls + 1;
    t.st.bytes_flushed <- t.st.bytes_flushed + (nlines * line_size);
    persist_event t;
    (* First line pays full writeback latency; the rest pipeline at device
       write bandwidth. *)
    let cost =
      t.cfg.flush_ns
      + int_of_float (float_of_int ((nlines - 1) * line_size) /. t.cfg.write_bw)
    in
    consume_shared t ~bulk:(nlines >= bulk_lines) cost
  end

let fence t =
  t.st.fence_calls <- t.st.fence_calls + 1;
  persist_event t;
  t.platform.consume t.cfg.fence_ns

let persist t off len =
  flush t off len;
  fence t

let bulk_read_cost t len =
  t.st.bytes_read_bulk <- t.st.bytes_read_bulk + len;
  consume_shared t
    ~bulk:(len >= bulk_lines * line_size)
    (int_of_float (float_of_int len /. t.cfg.read_bw))

type crash_mode = Drop_all | Keep_all | Random of Rng.t

let crash t mode =
  if not t.cfg.crash_model then
    invalid_arg "Pmem.crash: device created with crash_model = false";
  Mutex.lock t.guard;
  let resolve l undo =
    let base = l lsl line_shift in
    match mode with
    | Keep_all -> ()
    | Drop_all -> Bytes.blit undo 0 t.data base line_size
    | Random rng -> (
        match Rng.int rng 3 with
        | 0 -> () (* spurious eviction persisted the whole line *)
        | 1 -> Bytes.blit undo 0 t.data base line_size
        | _ ->
            (* Partial persistence at 8-byte-word granularity. *)
            for w = 0 to (line_size / 8) - 1 do
              if Rng.bool rng then
                Bytes.blit undo (w * 8) t.data (base + (w * 8)) 8
            done)
  in
  Hashtbl.iter resolve t.dirty;
  Hashtbl.reset t.dirty;
  Mutex.unlock t.guard

let dirty_lines = dirty_lines_unlocked
