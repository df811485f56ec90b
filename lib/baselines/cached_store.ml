open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_memory
open Dstore_structs
open Dstore_core

type config = {
  space_bytes : int;
  meta_entries : int;
  ssd_blocks : int;
  journal_bytes : int;
  ckpt_threshold : float;
  ckpt_interval_ns : int;
  op_cpu_ns : int;
      (* Modeled server + engine software path per operation (mongod
         message handling, BSON, WiredTiger cursors/session management).
         Calibrated so single-system throughput lands in the paper's
         Table 5 range; zero it for functional tests. *)
}

let default_config =
  {
    space_bytes = 32 * 1024 * 1024;
    meta_entries = 16384;
    ssd_blocks = 60 * 1024;
    journal_bytes = 512 * 1024 * 1024;
    ckpt_threshold = 0.5;
    ckpt_interval_ns = 15 * Platform.ns_per_s;
    op_cpu_ns = 160_000;
  }

type stats = {
  mutable checkpoints : int;
  mutable ckpt_stall_ns : int;
  mutable recovery_metadata_ns : int;
  mutable recovery_replay_ns : int;
}

(* PMEM layout: [header 4096 | journal | metadata image area]. The header
   records whether a valid image exists and the journal's write frontier.

   This is a write-back cached design, like WiredTiger: a put journals the
   full document to PMEM (its durability point) and updates the volatile
   cache only; dirty data pages reach the SSD during checkpoints, while
   the page cache is write-protected — the §2.1 behaviour behind the
   paper's Figures 1 and 7. *)
let align4k n = (n + 4095) land lnot 4095

let hdr_off = 0

let h_magic = 0x43414348 (* "CACH" *)

let journal_off = 4096

let image_off cfg = journal_off + cfg.journal_bytes

let pmem_bytes cfg = image_off cfg + align4k cfg.space_bytes

(* In-cache metadata: same catalog shape as DStore (index B-tree, metadata
   zone, bitmap pools), in a DRAM space whose image is checkpointed. *)
type handles = {
  btree : Btree.t;
  zone : Metazone.t;
  blockpool : Bitpool.t;
  metapool : Bitpool.t;
}

let align16 n = (n + 15) land lnot 15

let blockpool_off = Space.header_bytes

let metapool_off cfg = blockpool_off + align16 (Bitpool.bytes_needed cfg.ssd_blocks)

let zone_off cfg = metapool_off cfg + align16 (Bitpool.bytes_needed cfg.meta_entries)

let format_handles cfg space =
  let o1 = Space.reserve space (Bitpool.bytes_needed cfg.ssd_blocks) in
  let o2 = Space.reserve space (Bitpool.bytes_needed cfg.meta_entries) in
  let o3 = Space.reserve space (Metazone.bytes_needed cfg.meta_entries) in
  assert (o1 = blockpool_off && o2 = metapool_off cfg && o3 = zone_off cfg);
  ignore (Bitpool.format space ~off:o1 ~count:cfg.ssd_blocks);
  ignore (Bitpool.format space ~off:o2 ~count:cfg.meta_entries);
  ignore (Metazone.format space ~off:o3 ~count:cfg.meta_entries);
  ignore (Btree.create space ~root_slot:0)

let attach_handles cfg space =
  {
    btree = Btree.attach space ~root_slot:0;
    zone = Metazone.attach space ~off:(zone_off cfg) ~count:cfg.meta_entries;
    blockpool = Bitpool.attach space ~off:blockpool_off ~count:cfg.ssd_blocks;
    metapool = Bitpool.attach space ~off:(metapool_off cfg) ~count:cfg.meta_entries;
  }

type t = {
  platform : Platform.t;
  pm : Pmem.t;
  ssd : Ssd.t;
  cfg : config;
  cache : Space.t;  (* volatile metadata space (the checkpointed image) *)
  h : handles;
  (* Data page cache: every live value, with a dirty set awaiting
     writeback. A capacity-bounded eviction policy is deliberately
     omitted — the benchmark populations fit, as in the paper's runs. *)
  values : (string, Bytes.t) Hashtbl.t;
  dirty : (string, unit) Hashtbl.t;
  cache_lock : Rwlock.t;  (* held exclusively during checkpoints *)
  alloc_lock : Platform.mutex;  (* journal frontier + pool allocation *)
  ckpt_cond : Platform.cond;  (* manager sleeps here; appends signal it *)
  mutable ckpt_due : bool;
  mutable journal_used : int;
  mutable journal_born : int;  (* time of the oldest unjournaled entry *)
  mutable stopping : bool;
  mutable ckpt_running : bool;
  st : stats;
}

let fresh_stats () =
  {
    checkpoints = 0;
    ckpt_stall_ns = 0;
    recovery_metadata_ns = 0;
    recovery_replay_ns = 0;
  }

let stats t = t.st

let object_count t = Btree.length t.h.btree

let checkpoint_running t = t.ckpt_running

(* --- journal -----------------------------------------------------------------
   Byte-framed records carrying the full document (WiredTiger-style):
   len u32 | klen u16 | del u8 | pad u8 | meta u32 | key | value.
   The persisted frontier lives in the header (u64 at hdr+16); a record is
   durable once written, persisted, and covered by the frontier. *)

let frontier t = Pmem.get_u64 t.pm (hdr_off + 16)

let set_frontier t v =
  Pmem.set_u64 t.pm (hdr_off + 16) v;
  Pmem.persist t.pm (hdr_off + 16) 8

(* Event-driven trigger: evaluated on every journal append (a quiescent
   system needs no checkpoint), due on fill or on the age of the oldest
   journaled-but-unckeckpointed entry (the WiredTiger periodic trigger). *)
let checkpoint_due t =
  float_of_int t.journal_used /. float_of_int t.cfg.journal_bytes
  >= t.cfg.ckpt_threshold
  || t.journal_used > 0
     && t.platform.Platform.now () - t.journal_born >= t.cfg.ckpt_interval_ns

exception Journal_full

let journal_append t key (value : Bytes.t option) ~meta =
  let klen = String.length key in
  let vlen = match value with Some v -> Bytes.length v | None -> 0 in
  let len = 12 + klen + vlen in
  if t.journal_used + len > t.cfg.journal_bytes then raise Journal_full;
  let base = journal_off + t.journal_used in
  let buf = Bytes.create len in
  Bytes.set_int32_le buf 0 (Int32.of_int len);
  Bytes.set_uint16_le buf 4 klen;
  Bytes.set_uint8 buf 6 (if value = None then 1 else 0);
  Bytes.set_int32_le buf 8 (Int32.of_int meta);
  Bytes.blit_string key 0 buf 12 klen;
  (match value with Some v -> Bytes.blit v 0 buf (12 + klen) vlen | None -> ());
  Pmem.blit_from_bytes t.pm buf ~src:0 ~dst:base ~len;
  Pmem.persist t.pm base len;
  if t.journal_used = 0 then t.journal_born <- t.platform.Platform.now ();
  t.journal_used <- t.journal_used + len;
  set_frontier t t.journal_used;
  if checkpoint_due t then begin
    t.ckpt_due <- true;
    t.ckpt_cond.Platform.signal ()
  end

let journal_scan t =
  let used = frontier t in
  let acc = ref [] in
  let pos = ref 0 in
  while !pos < used do
    let base = journal_off + !pos in
    let len = Pmem.get_u32 t.pm base in
    let klen = Pmem.get_u16 t.pm (base + 4) in
    let del = Pmem.get_u8 t.pm (base + 6) = 1 in
    let meta = Pmem.get_u32 t.pm (base + 8) in
    let key =
      let b = Bytes.create klen in
      Pmem.blit_to_bytes t.pm ~src:(base + 12) b ~dst:0 ~len:klen;
      Bytes.to_string b
    in
    let value =
      if del then None
      else begin
        let vlen = len - 12 - klen in
        let v = Bytes.create vlen in
        Pmem.blit_to_bytes t.pm ~src:(base + 12 + klen) v ~dst:0 ~len:vlen;
        Some v
      end
    in
    acc := (key, value, meta) :: !acc;
    pos := !pos + len
  done;
  List.rev !acc

(* --- metadata cache helpers ------------------------------------------------------ *)

let ps t = Ssd.page_size t.ssd

let blocks_for t size = (size + ps t - 1) / ps t

exception Out_of_blocks

let alloc_blocks t nblocks =
  if nblocks = 0 then []
  else
    match Bitpool.alloc_run t.h.blockpool nblocks with
    | Some e -> e
    | None -> raise Out_of_blocks

let alloc_meta t =
  let m = Bitpool.alloc t.h.metapool in
  if m < 0 then raise Out_of_blocks;
  m

let release_binding t key =
  match Btree.find t.h.btree key with
  | None -> ()
  | Some meta ->
      let _, exts = Metazone.read_object t.h.zone meta in
      List.iter
        (fun e ->
          for b = e.Metazone.start to e.Metazone.start + e.Metazone.len - 1 do
            Bitpool.free t.h.blockpool b
          done)
        exts;
      Bitpool.free t.h.metapool meta;
      ignore (Btree.delete t.h.btree key)

(* Install a binding in the metadata cache (put path and journal replay). *)
let install t key size =
  release_binding t key;
  let extents = alloc_blocks t (blocks_for t size) in
  let meta = alloc_meta t in
  Metazone.write_object t.h.zone meta ~size
    (List.map (fun (s, l) -> { Metazone.start = s; len = l }) extents);
  ignore (Btree.insert t.h.btree key meta);
  meta

(* --- checkpoint ----------------------------------------------------------------
   Write-protect the cache (exclusive lock), write every dirty data page
   to the SSD, copy the metadata space to PMEM, truncate the journal.
   Every request arriving meanwhile stalls — the cached-system cost. *)

let writeback_one t key =
  match Btree.find t.h.btree key with
  | None -> () (* deleted after being dirtied *)
  | Some meta ->
      let size, extents = Metazone.read_object t.h.zone meta in
      let value = Hashtbl.find t.values key in
      let nblocks = blocks_for t size in
      if nblocks > 0 then begin
        let padded = Bytes.make (nblocks * ps t) '\000' in
        Bytes.blit value 0 padded 0 (min size (Bytes.length value));
        let pos = ref 0 in
        List.iter
          (fun e ->
            Ssd.write t.ssd ~page:e.Metazone.start padded ~off:(!pos * ps t)
              ~count:e.Metazone.len;
            pos := !pos + e.Metazone.len)
          extents
      end

let do_checkpoint t =
  let t0 = t.platform.Platform.now () in
  t.ckpt_running <- true;
  Rwlock.with_write t.cache_lock (fun () ->
      (* 1. Flush dirty data pages to the SSD. *)
      Hashtbl.iter (fun key () -> writeback_one t key) t.dirty;
      Hashtbl.reset t.dirty;
      (* 2. Copy the metadata space to its PMEM image. *)
      let used = Space.used_bytes t.cache in
      let img = Mem.of_pmem t.pm ~off:(image_off t.cfg) ~len:t.cfg.space_bytes in
      ignore (Space.copy_into t.cache img);
      Pmem.persist t.pm (image_off t.cfg) used;
      (* 3. Publish the image, then truncate the journal. *)
      Pmem.set_u64 t.pm hdr_off h_magic;
      Pmem.set_u64 t.pm (hdr_off + 8) 1;
      Pmem.persist t.pm hdr_off 16;
      t.journal_used <- 0;
      set_frontier t 0;
      t.st.checkpoints <- t.st.checkpoints + 1);
  t.ckpt_running <- false;
  t.st.ckpt_stall_ns <- t.st.ckpt_stall_ns + (t.platform.Platform.now () - t0)

let manager t () =
  let continue_ = ref true in
  while !continue_ do
    let go =
      Platform.with_lock t.alloc_lock (fun () ->
          while not (t.ckpt_due || t.stopping) do
            t.ckpt_cond.Platform.wait t.alloc_lock
          done;
          if t.stopping then false
          else begin
            t.ckpt_due <- false;
            true
          end)
    in
    if not go then continue_ := false else do_checkpoint t
  done

let make platform pm ssd cfg cache =
  let t =
    {
      platform;
      pm;
      ssd;
      cfg;
      cache;
      h = attach_handles cfg cache;
      values = Hashtbl.create 4096;
      dirty = Hashtbl.create 1024;
      cache_lock = Rwlock.create platform;
      alloc_lock = platform.Platform.new_mutex ();
      ckpt_cond = platform.Platform.new_cond ();
      ckpt_due = false;
      journal_used = 0;
      journal_born = 0;
      stopping = false;
      ckpt_running = false;
      st = fresh_stats ();
    }
  in
  platform.Platform.spawn "cached-ckpt" (manager t);
  t

let create platform pm ssd cfg =
  let cache = Space.format (Mem.dram cfg.space_bytes) in
  format_handles cfg cache;
  let t = make platform pm ssd cfg cache in
  Pmem.set_u64 pm hdr_off h_magic;
  Pmem.set_u64 pm (hdr_off + 8) 0 (* no image yet *);
  Pmem.set_u64 pm (hdr_off + 16) 0;
  Pmem.persist pm hdr_off 24;
  t

let recover platform pm ssd cfg =
  if Pmem.get_u64 pm hdr_off <> h_magic then
    invalid_arg "Cached_store.recover: no store on device";
  let t0 = platform.Platform.now () in
  let cache =
    if Pmem.get_u64 pm (hdr_off + 8) = 1 then begin
      let img = Mem.of_pmem pm ~off:(image_off cfg) ~len:cfg.space_bytes in
      let pspace = Space.attach img in
      Pmem.bulk_read_cost pm (Space.used_bytes pspace);
      Space.copy_into pspace (Mem.dram cfg.space_bytes)
    end
    else begin
      let cache = Space.format (Mem.dram cfg.space_bytes) in
      format_handles cfg cache;
      cache
    end
  in
  let t = make platform pm ssd cfg cache in
  t.journal_used <- frontier t;
  t.st.recovery_metadata_ns <- platform.Platform.now () - t0;
  (* Journal replay: reinstall bindings and repopulate the (dirty) data
     cache from the journaled documents. *)
  let t1 = platform.Platform.now () in
  List.iter
    (fun (key, value, _meta) ->
      match value with
      | Some v ->
          ignore (install t key (Bytes.length v));
          Hashtbl.replace t.values key v;
          Hashtbl.replace t.dirty key ()
      | None ->
          release_binding t key;
          Hashtbl.remove t.values key;
          Hashtbl.remove t.dirty key)
    (journal_scan t);
  t.st.recovery_replay_ns <- platform.Platform.now () - t1;
  t

let stop t =
  Platform.with_lock t.alloc_lock (fun () ->
      t.stopping <- true;
      t.ckpt_cond.Platform.broadcast ())

let checkpoint_now t = do_checkpoint t

(* --- operations ------------------------------------------------------------------ *)

let costs = Config.costs

let put_once t key value =
  t.platform.Platform.consume t.cfg.op_cpu_ns;
  Rwlock.with_read t.cache_lock (fun () ->
      let ok =
        Platform.with_lock t.alloc_lock (fun () ->
            match journal_append t key (Some value) ~meta:0 with
            | () ->
                t.platform.Platform.consume (costs.meta_ns + costs.btree_ns);
                ignore (install t key (Bytes.length value));
                true
            | exception Journal_full -> false)
      in
      if ok then begin
        Hashtbl.replace t.values key (Bytes.copy value);
        Hashtbl.replace t.dirty key ()
      end;
      ok)

(* A full journal forces a synchronous checkpoint from the request path —
   the client "experiences intolerable delay" (§2.1). *)
let rec put t key value =
  if not (put_once t key value) then begin
    do_checkpoint t;
    put t key value
  end

let get t key buf =
  t.platform.Platform.consume t.cfg.op_cpu_ns;
  Rwlock.with_read t.cache_lock (fun () ->
      match Hashtbl.find_opt t.values key with
      | Some v ->
          (* Cache hit: data served from DRAM. *)
          t.platform.Platform.consume costs.lookup_ns;
          Bytes.blit v 0 buf 0 (min (Bytes.length v) (Bytes.length buf));
          Bytes.length v
      | None -> (
          (* Cold miss (only after recovery): fetch from the SSD. *)
          match Btree.find t.h.btree key with
          | None -> -1
          | Some meta ->
              t.platform.Platform.consume costs.lookup_ns;
              let size, extents = Metazone.read_object t.h.zone meta in
              let nblocks = blocks_for t size in
              let v = Bytes.make (max 1 (nblocks * ps t)) '\000' in
              let pos = ref 0 in
              List.iter
                (fun e ->
                  if !pos < nblocks then begin
                    Ssd.read t.ssd ~page:e.Metazone.start v ~off:(!pos * ps t)
                      ~count:(min e.Metazone.len (nblocks - !pos));
                    pos := !pos + e.Metazone.len
                  end)
                extents;
              let v = Bytes.sub v 0 size in
              Hashtbl.replace t.values key v;
              Bytes.blit v 0 buf 0 (min size (Bytes.length buf));
              size))

let delete t key =
  t.platform.Platform.consume t.cfg.op_cpu_ns;
  Rwlock.with_read t.cache_lock (fun () ->
      Platform.with_lock t.alloc_lock (fun () ->
          match Btree.find t.h.btree key with
          | None -> false
          | Some _ ->
              (match journal_append t key None ~meta:0 with
              | () -> ()
              | exception Journal_full -> ());
              release_binding t key;
              Hashtbl.remove t.values key;
              Hashtbl.remove t.dirty key;
              true))

let footprint t =
  let data_bytes =
    Hashtbl.fold (fun _ v acc -> acc + Bytes.length v) t.values 0
  in
  ( Space.used_bytes t.cache + data_bytes,
    4096 + t.cfg.journal_bytes
    + (if Pmem.get_u64 t.pm (hdr_off + 8) = 1 then Space.used_bytes t.cache
       else 0),
    Bitpool.allocated t.h.blockpool * ps t )
