open Dstore_platform
open Dstore_ssd
open Dstore_memory
open Dstore_structs
module Obs = Dstore_obs.Obs
module Metrics = Dstore_obs.Metrics
module Span = Dstore_obs.Span
module Cache = Dstore_cache.Cache

exception Object_not_found of string

exception Out_of_blocks

exception Would_wait of string

type footprint = { dram : int; pmem : int; ssd : int }

type node = { pm : Dstore_pmem.Pmem.t; ssd : Ssd.t }

(* --- reserved-region layout inside every space ---------------------------- *)

(* Must mirror Space.reserve's bump-and-align behaviour exactly; asserted at
   format time. The same offsets hold in the volatile space, both PMEM
   shadows, and any recovery copy — which is what makes the pool/zone ids in
   log records meaningful everywhere. *)
type regions = { blockpool_off : int; metapool_off : int; zone_off : int }

let align16 n = (n + 15) land lnot 15

let regions_of (cfg : Config.t) =
  let blockpool_off = Space.header_bytes in
  let metapool_off =
    blockpool_off + align16 (Bitpool.bytes_needed cfg.ssd_blocks)
  in
  let zone_off =
    metapool_off + align16 (Bitpool.bytes_needed cfg.meta_entries)
  in
  { blockpool_off; metapool_off; zone_off }

(* Structure handles over one space. *)
type handles = {
  hspace : Space.t;
  btree : Btree.t;
  zone : Metazone.t;
  blockpool : Bitpool.t;
  metapool : Bitpool.t;
}

let btree_root_slot = 0

let attach_handles (cfg : Config.t) reg space =
  {
    hspace = space;
    btree = Btree.attach space ~root_slot:btree_root_slot;
    zone = Metazone.attach space ~off:reg.zone_off ~count:cfg.meta_entries;
    blockpool = Bitpool.attach space ~off:reg.blockpool_off ~count:cfg.ssd_blocks;
    metapool = Bitpool.attach space ~off:reg.metapool_off ~count:cfg.meta_entries;
  }

let format_structures (cfg : Config.t) reg space =
  let o1 = Space.reserve space (Bitpool.bytes_needed cfg.ssd_blocks) in
  let o2 = Space.reserve space (Bitpool.bytes_needed cfg.meta_entries) in
  let o3 = Space.reserve space (Metazone.bytes_needed cfg.meta_entries) in
  assert (o1 = reg.blockpool_off && o2 = reg.metapool_off && o3 = reg.zone_off);
  ignore (Bitpool.format space ~off:o1 ~count:cfg.ssd_blocks);
  ignore (Bitpool.format space ~off:o2 ~count:cfg.meta_entries);
  ignore (Metazone.format space ~off:o3 ~count:cfg.meta_entries);
  ignore (Btree.create space ~root_slot:btree_root_slot)

(* --- store ------------------------------------------------------------------ *)

type ctx_id = int

type t = {
  platform : Platform.t;
  cfg : Config.t;
  reg : regions;
  engine : Dipper.t;
  ssd : Ssd.t;
  rc : Readcount.t;
  mutable h : handles;  (* over the volatile space *)
  struct_lock : Platform.mutex;
      (* Serializes index/metadata updates when [oe = false]; unused (no
         contention) when observational equivalence is on. *)
  held_locks : (string, ctx_id * Dipper.appended) Hashtbl.t;
  locks_guard : Mutex.t;
  obs : Obs.t;
  cache : Cache.t option;
      (* DRAM object cache (strictly volatile; see the cache glue below).
         None when [cfg.cache_bytes = 0] or under physical logging. *)
  (* Per-operation end-to-end latency histograms (virtual-time ns). *)
  h_put : Metrics.histo;
  h_get : Metrics.histo;
  h_del : Metrics.histo;
  h_write : Metrics.histo;
  h_read : Metrics.histo;
}

type ctx = {
  store : t;
  id : ctx_id;
  mutable live : bool;
  mutable holds : string list;  (* keys this context reserves (see [reserve]) *)
}

type obj = {
  octx : ctx;
  name : string;
  mode : [ `Rd | `Wr | `Rdwr ];
  mutable closed : bool;
}

type open_mode = Rd | Wr | Rdwr

let engine t = t.engine

let config t = t.cfg

let ctx_store ctx = ctx.store

(* Verification seam (dstore_check): structure handles over the volatile
   space and over the published PMEM shadow, so a checker can walk the
   index, metadata zone and bitmap pools of a recovered store. *)
type internals = {
  i_space : Space.t;
  i_btree : Btree.t;
  i_zone : Metazone.t;
  i_blockpool : Bitpool.t;
  i_metapool : Bitpool.t;
}

let internals_of (h : handles) =
  {
    i_space = h.hspace;
    i_btree = h.btree;
    i_zone = h.zone;
    i_blockpool = h.blockpool;
    i_metapool = h.metapool;
  }

let internals t = internals_of t.h

let shadow_internals t =
  internals_of (attach_handles t.cfg t.reg (Dipper.shadow_space t.engine))

let is_initialized = Dipper.is_initialized

let obs t = t.obs

let to_mz extents = List.map (fun (s, l) -> { Metazone.start = s; len = l }) extents

let of_mz extents = List.map (fun e -> (e.Metazone.start, e.Metazone.len)) extents

(* --- replay hooks ------------------------------------------------------------ *)

(* Phase 1: pool effects, serial in LSN order (what the frontend did under
   the lock, plus the commit-time releases). *)
let prepare_op h (op : Logrec.op) =
  let mark extents =
    List.iter
      (fun (s, l) ->
        for b = s to s + l - 1 do
          Bitpool.set_allocated h.blockpool b
        done)
      extents
  in
  let release extents =
    List.iter
      (fun (s, l) ->
        for b = s to s + l - 1 do
          Bitpool.free h.blockpool b
        done)
      extents
  in
  match op with
  | Logrec.Put { meta; extents; freed_meta; freed_extents; _ } ->
      mark extents;
      Bitpool.set_allocated h.metapool meta;
      release freed_extents;
      if freed_meta >= 0 then Bitpool.free h.metapool freed_meta
  | Logrec.Create { meta; _ } -> Bitpool.set_allocated h.metapool meta
  | Logrec.Write { new_extents; _ } -> mark new_extents
  | Logrec.Delete { meta; extents; _ } ->
      release extents;
      Bitpool.free h.metapool meta
  | Logrec.Noop _ -> ()
  | Logrec.Phys _ -> ()
  (* Transaction framing never reaches replay: [Oplog.resolve_txn_spans]
     consumes it before the hooks run. *)
  | Logrec.Txn_begin _ | Logrec.Txn_commit _ -> ()

(* Phase 2: key-indexed structure updates (what the frontend did outside
   the lock, under observational equivalence). *)
let apply_op platform h (op : Logrec.op) =
  let costs = Config.costs in
  match op with
  | Logrec.Put { key; size; meta; extents; _ } ->
      platform.Platform.consume (costs.meta_ns + costs.btree_ns);
      Metazone.write_object h.zone meta ~size (to_mz extents);
      ignore (Btree.insert h.btree key meta)
  | Logrec.Create { key; meta } ->
      platform.Platform.consume (costs.meta_ns + costs.btree_ns);
      Metazone.write_object h.zone meta ~size:0 [];
      ignore (Btree.insert h.btree key meta)
  | Logrec.Write { meta; size; new_extents; _ } ->
      platform.Platform.consume costs.meta_ns;
      if new_extents <> [] then
        Metazone.append_extents h.zone meta (to_mz new_extents);
      Metazone.set_size h.zone meta size
  | Logrec.Delete { key; _ } ->
      platform.Platform.consume (costs.meta_ns + costs.btree_ns);
      ignore (Btree.delete h.btree key)
  | Logrec.Noop _ -> ()
  | Logrec.Phys { images } ->
      platform.Platform.consume costs.meta_ns;
      let m = Space.mem h.hspace in
      List.iter (fun (off, bytes) -> Mem.write_string m ~off bytes) images
  | Logrec.Txn_begin _ | Logrec.Txn_commit _ -> ()

(* Replay hooks run per record; re-attaching four structure handles each
   time dominates replay cost, so memoize per space (physical equality —
   shadow spaces are short-lived, so a tiny cache suffices). *)
let cached_handles cfg reg =
  let cache = ref [] in
  fun space ->
    match List.assq_opt space !cache with
    | Some h -> h
    | None ->
        let h = attach_handles cfg reg space in
        cache := (space, h) :: (match !cache with a :: b :: _ -> [ a; b ] | l -> l);
        h

let hooks platform cfg reg =
  let handles_of = cached_handles cfg reg in
  {
    Dipper.format_structures = (fun space -> format_structures cfg reg space);
    prepare = (fun space op -> prepare_op (handles_of space) op);
    apply = (fun space op -> apply_op platform (handles_of space) op);
  }

let build platform cfg engine ssd =
  let reg = regions_of cfg in
  let h = attach_handles cfg reg (Dipper.volatile engine) in
  let obs = Dipper.obs engine in
  Ssd.attach_obs ssd obs;
  let m = obs.Obs.metrics in
  (* The cache engages only under logical logging: the logical write
     pipeline's reader fencing (conflict scan + wait_readers) is what
     makes invalidation race-free; the physical-logging ablation has no
     such window, so it simply runs uncached. *)
  let cache =
    if cfg.cache_bytes > 0 && cfg.logging = Config.Logical then begin
      let c = Cache.create ~budget:cfg.cache_bytes in
      Metrics.gauge_fn m "cache.budget" (fun () -> Cache.budget c);
      Metrics.gauge_fn m "cache.bytes" (fun () -> Cache.bytes c);
      Metrics.gauge_fn m "cache.entries" (fun () -> Cache.entries c);
      Metrics.gauge_fn m "cache.hits" (fun () -> Cache.hits c);
      Metrics.gauge_fn m "cache.misses" (fun () -> Cache.misses c);
      Metrics.gauge_fn m "cache.evictions" (fun () -> Cache.evictions c);
      Some c
    end
    else None
  in
  {
    platform;
    cfg;
    reg;
    engine;
    ssd;
    rc = Readcount.create ();
    h;
    struct_lock = platform.Platform.new_mutex ();
    held_locks = Hashtbl.create 64;
    locks_guard = Mutex.create ();
    obs;
    cache;
    h_put = Metrics.histogram m "op.put";
    h_get = Metrics.histogram m "op.get";
    h_del = Metrics.histogram m "op.delete";
    h_write = Metrics.histogram m "op.write";
    h_read = Metrics.histogram m "op.read";
  }

let create ?obs platform pm ssd cfg =
  let reg = regions_of cfg in
  let engine = Dipper.create ?obs platform pm cfg (hooks platform cfg reg) in
  build platform cfg engine ssd

let recover ?obs platform pm ssd cfg =
  let reg = regions_of cfg in
  let engine = Dipper.recover ?obs platform pm cfg (hooks platform cfg reg) in
  build platform cfg engine ssd

let stop t = Dipper.stop t.engine

let checkpoint_now t = Dipper.checkpoint_now t.engine

(* --- snapshot transfer (replica catch-up) --------------------------------- *)

type snapshot = { snap_space : Bytes.t; snap_ssd : Bytes.t }

let snapshot_bytes s = Bytes.length s.snap_space + Bytes.length s.snap_ssd

(* Whole-device SSD copies in bounded chunks: the device charges per-page
   service time either way, the chunking just caps the scratch window. *)
let ssd_chunk_pages = 256

let capture_snapshot t =
  let snap_space = Dipper.capture_image t.engine in
  let ps = Ssd.page_size t.ssd in
  let n = Ssd.pages t.ssd in
  let snap_ssd = Bytes.create (n * ps) in
  let p = ref 0 in
  while !p < n do
    let c = min ssd_chunk_pages (n - !p) in
    Ssd.read t.ssd ~page:!p snap_ssd ~off:(!p * ps) ~count:c;
    p := !p + c
  done;
  { snap_space; snap_ssd }

let install_snapshot ?obs platform pm ssd cfg snapshot =
  Dipper.install_image pm cfg ~image:snapshot.snap_space;
  let ps = Ssd.page_size ssd in
  let n = Ssd.pages ssd in
  if Bytes.length snapshot.snap_ssd <> n * ps then
    invalid_arg "Dstore.install_snapshot: SSD geometry mismatch";
  let p = ref 0 in
  while !p < n do
    let c = min ssd_chunk_pages (n - !p) in
    Ssd.write ssd ~page:!p snapshot.snap_ssd ~off:(!p * ps) ~count:c;
    p := !p + c
  done;
  recover ?obs platform pm ssd cfg

let next_ctx_id = Atomic.make 1

let ds_init t =
  { store = t; id = Atomic.fetch_and_add next_ctx_id 1; live = true; holds = [] }

let ds_finalize ctx = ctx.live <- false

let check_ctx ctx = if not ctx.live then invalid_arg "DStore: finalized context"

(* The caller's own advisory-lock record on [name], if it holds one: its
   NOOP must not conflict with the holder's own operations. *)
let own_lock ctx name =
  let t = ctx.store in
  Mutex.lock t.locks_guard;
  let r =
    match Hashtbl.find_opt t.held_locks name with
    | Some (owner, a) when owner = ctx.id -> Dipper.members a
    | _ -> []
  in
  Mutex.unlock t.locks_guard;
  r

let rec own_locks ctx = function
  | [] -> []
  | (key, _, _) :: rest -> own_lock ctx key @ own_locks ctx rest

(* The caller's holder id for the engine's reservation checks: its own
   reservations never conflict with its own operations. *)
let holder ctx = match ctx.holds with [] -> 0 | _ -> ctx.id

(* Append [items] past the caller's own advisory locks and reservations. *)
let append_items ?span ?reads ctx items =
  Dipper.append ~ignore:(own_locks ctx items) ~holder:(holder ctx) ?span ?reads
    ctx.store.engine items

(* The records of an appended group, in item order. *)
let ops_of a = List.map Dipper.ticket_op (Dipper.members a)

(* [append_items] without a read-set, where validation cannot fail. *)
let append ?span ctx items =
  match append_items ?span ctx items with
  | Ok a -> (a, ops_of a)
  | Error _ -> assert false

(* One record whose builder claims ids under the lock ([oopen], [owrite]).
   The engine builds a record again when it outgrew its estimate, so each
   build first runs [release] (give back the previous build's claim, then
   forget it); an append that raises gives back the last build's claim. *)
let append_claiming ?span ctx key max_slots ~release build =
  match append ?span ctx [ (key, max_slots, fun () -> release (); build ()) ] with
  | r -> r
  | exception e ->
      Dipper.with_frontend_lock ctx.store.engine release;
      raise e

(* With observational equivalence (the default), index and metadata updates
   by non-conflicting requests run fully in parallel; the [oe = false]
   ablation serializes them behind one lock (Figure 9's "+OE" step).

   Copy-on-write checkpointing also serializes structure access — writers
   AND readers: a write-protection fault suspends its client mid-update
   (the page copy takes time), so without mutual exclusion another client
   could traverse a half-updated structure. Real CoW has the same
   property: the faulting writer holds the page inaccessible until the
   copy completes. This serialization is precisely the concurrency cost
   the paper attributes to the CoW design (§4.5, Figure 9). *)
let serialized t = (not t.cfg.oe) || t.cfg.checkpoint = Config.Cow

let with_structs t f =
  if serialized t then Platform.with_lock t.struct_lock f else f ()

(* Read-side guard: needed only under CoW (see above); OE reads are safe
   because every structure mutation is atomic between scheduling points. *)
let with_structs_read t f =
  if t.cfg.checkpoint = Config.Cow then Platform.with_lock t.struct_lock f
  else f ()

(* --- data plane helpers ------------------------------------------------------ *)

let page_size t = Ssd.page_size t.ssd

let page_bytes = page_size

let blocks_for t size = (size + page_size t - 1) / page_size t

(* Write [size] bytes of [buf] to the blocks of [extents], in order. *)
let write_data ?(span = Span.none) t extents buf size =
  if size > 0 then begin
    let ps = page_size t in
    let nblocks = blocks_for t size in
    let padded =
      if Bytes.length buf >= nblocks * ps then buf
      else begin
        let b = Bytes.make (nblocks * ps) '\000' in
        Bytes.blit buf 0 b 0 size;
        b
      end
    in
    let pos = ref 0 in
    List.iter
      (fun (start, len) ->
        Ssd.write ~span t.ssd ~page:start padded ~off:(!pos * ps) ~count:len;
        pos := !pos + len)
      extents
  end

let read_data ?(span = Span.none) t extents buf size =
  if size > 0 then begin
    let ps = page_size t in
    let nblocks = blocks_for t size in
    let scratch = Bytes.create (nblocks * ps) in
    let pos = ref 0 in
    List.iter
      (fun (start, len) ->
        if !pos < nblocks then begin
          let len = min len (nblocks - !pos) in
          Ssd.read ~span t.ssd ~page:start scratch ~off:(!pos * ps) ~count:len;
          pos := !pos + len
        end)
      extents;
    Bytes.blit scratch 0 buf 0 size
  end

(* --- allocation helpers (run under the frontend lock) ------------------------- *)

let alloc_blocks t nblocks =
  if nblocks = 0 then []
  else
    match Bitpool.alloc_run t.h.blockpool nblocks with
    | Some extents -> extents
    | None -> raise Out_of_blocks

let alloc_meta t =
  match Bitpool.alloc t.h.metapool with
  | Some m -> m
  | None -> raise Out_of_blocks

let free_extents t extents =
  List.iter
    (fun (s, l) ->
      for b = s to s + l - 1 do
        Bitpool.free t.h.blockpool b
      done)
    extents

(* Commit-time releases: performed under the frontend lock so replay (which
   processes pool effects serially in LSN order) can never observe a block
   freed by record X yet allocated by a record younger than X. *)
let release_freed t freed_meta freed_extents =
  if freed_meta >= 0 || freed_extents <> [] then
    Dipper.with_frontend_lock t.engine (fun () ->
        free_extents t freed_extents;
        if freed_meta >= 0 then Bitpool.free t.h.metapool freed_meta)

(* A put's record-size estimate for the append's log-space wait, computable
   before taking the lock. An overwrite of an object split across more
   extents can outgrow it; the append then sizes the record as built. *)
let put_max_slots key nblocks =
  let worst =
    Logrec.Put
      {
        key;
        size = 0;
        meta = 0;
        extents = List.init (max nblocks 1) (fun i -> (i * 2, 1));
        freed_meta = 0;
        freed_extents =
          List.init (max nblocks 1 + 4) (fun i -> (i * 2, 1));
      }
  in
  Logrec.slots_needed worst

let now t = t.platform.Platform.now ()

(* --- DRAM object cache glue --------------------------------------------------- *)

(* The cache is strictly volatile — it never touches a persistence
   domain, so crash recovery is unaffected by construction (a recovered
   store starts cold and refills on demand).

   Coherence argument. Reads consult the cache inside the reader window
   (between [read_entry] and [read_exit]), and writers maintain it from
   the write pipeline at the point right after [Dipper.wait_readers]:
   the log append under the frontend lock has already ordered the op and
   made its ticket visible to the conflict scan, so

   - every reader that entered BEFORE the append has drained (so no
     in-flight miss path can re-fill the stale value after our
     invalidation), and
   - every reader arriving AFTER the append is held at [read_entry] by
     the conflict scan until the op commits (so nobody observes the
     write-through before the op is acknowledged).

   Hence invalidation/write-through inherits exactly the order the
   frontend lock gave the log append: once an overwrite or delete has
   committed, a cached read can never return the older bytes. The
   [Stale_cache_read] fault skips this maintenance to prove the checker's
   live-read coherence property catches the resulting stale hits. *)

(* Modeled DRAM copy cost for moving [size] bytes between the cache and
   a caller/scratch buffer (~32 B/ns: ~128 ns for a 4 KB object). *)
let copy_cost t size =
  if size > 0 then t.platform.Platform.consume (max 1 (size / 32))

let cache_lookup t key =
  match t.cache with None -> None | Some c -> Cache.borrow c key

(* Miss-path fill; booked as its own [S_cache_fill] segment so the tail
   experiment can attribute residual read latency to fills vs ssd_queue. *)
let cache_fill ?(span = Span.none) t key buf len =
  match t.cache with
  | None -> ()
  | Some c ->
      copy_cost t len;
      Cache.put c key buf ~pos:0 ~len;
      Span.seg span Span.S_cache_fill

let cache_invalidate t key =
  match t.cache with
  | Some c when t.cfg.fault <> Config.Stale_cache_read -> Cache.invalidate c key
  | _ -> ()

let cache_write_through t key value size =
  match t.cache with
  | Some c when t.cfg.fault <> Config.Stale_cache_read ->
      copy_cost t size;
      Cache.put c key value ~pos:0 ~len:size
  | _ -> ()

(* --- the write pipeline (Figure 4, staged) ------------------------------------ *)

(* [oput], [odelete] and [obatch] run one pipeline; a single op is the
   group of one. Every put runs alloc → SSD payload → lock / conflict
   scan / log append → [wait_readers] → structures → cache → commit →
   release: allocation (step 4) and the data write (step 8) are STAGED
   ahead of the append. The op's in-flight window, which every same-key
   reader and writer must wait out, then holds only the log flush, the
   structure updates and the commit fence — no device time. Staging early
   is crash-safe: the freshly claimed blocks and meta id are unreachable
   until the record commits, and the pools are volatile (rebuilt from the
   log by recovery), so a crash before the append loses nothing durable.
   Ids a record frees still come from committed state, because the record
   is built under the append's lock hold. [txn_commit_writes] claims the
   same way but validates before its payload writes; [owrite] rewrites
   live pages inside its window.

   The op's span partitions it by step: [S_stage] (claim), [S_data]
   (payload), [S_lock] and [S_append] (the engine's cuts), then per
   record [S_ticket] (reader drain), [S_structs] (metadata entry) and
   [S_index] (B-tree), [S_structs] again for the cache maintenance, and
   the commit: [S_fence] for a one-record group, [S_commit] for the
   coalesced persist of a larger one. Table 3 is these sums. *)

type batch_op = Bput of string * Bytes.t | Bdelete of string

let batch_key = function Bput (k, _) -> k | Bdelete k -> k

(* A batch op after staging: a put carries its claimed ids, its payload
   already on the SSD. *)
type staged =
  | Sput of { key : string; value : Bytes.t; meta : int; extents : (int * int) list }
  | Sdelete of string

let staged_key = function Sput { key; _ } -> key | Sdelete k -> k

(* Fork-join over [items]: run [f] on each concurrently (one platform
   task per extra element, the first inline) and return when all are
   done. Used to overlap the SSD payload writes of one staging round. *)
let par_iter t items f =
  match items with
  | [] -> ()
  | [ x ] -> f x
  | x :: rest ->
      let mu = t.platform.Platform.new_mutex () in
      let cv = t.platform.Platform.new_cond () in
      let pending = ref (List.length rest) in
      List.iter
        (fun y ->
          t.platform.Platform.spawn "batch-io" (fun () ->
              f y;
              Platform.with_lock mu (fun () ->
                  decr pending;
                  if !pending = 0 then cv.Platform.signal ())))
        rest;
      f x;
      Platform.with_lock mu (fun () ->
          while !pending > 0 do
            cv.Platform.wait mu
          done)

let free_claim t = function
  | Sput { meta; extents; _ } ->
      free_extents t extents;
      Bitpool.free t.h.metapool meta
  | Sdelete _ -> ()

(* Step 4 for every put of [ops], all or nothing: if a claim runs out of
   blocks or meta ids, the ids already taken go back as [Out_of_blocks]
   unwinds. *)
let rec claim_all t = function
  | [] -> []
  | Bdelete k :: rest -> Sdelete k :: claim_all t rest
  | Bput (key, value) :: rest -> (
      let extents = alloc_blocks t (blocks_for t (Bytes.length value)) in
      let meta =
        match alloc_meta t with
        | m -> m
        | exception e ->
            free_extents t extents;
            raise e
      in
      let s = Sput { key; value; meta; extents } in
      match claim_all t rest with
      | staged -> s :: staged
      | exception e ->
          free_claim t s;
          raise e)

(* The claims share one frontend-lock hold, taken only when some op
   claims ids. *)
let claim t ops =
  if List.exists (function Bput _ -> true | Bdelete _ -> false) ops then
    Dipper.with_frontend_lock t.engine (fun () -> claim_all t ops)
  else claim_all t ops

(* Give back the ids of staged ops that never reached the log (volatile
   pools, no record names them: a plain free suffices). *)
let unstage t staged =
  Dipper.with_frontend_lock t.engine (fun () -> List.iter (free_claim t) staged)

(* Run [f]; if it raises, [unstage] first. *)
let unstage_on_error t staged f =
  match f () with
  | r -> r
  | exception e ->
      unstage t staged;
      raise e

(* Step 8 for every staged put, overlapped across the SSD's channels. *)
let write_payloads ~span t staged =
  match List.filter (function Sput _ -> true | Sdelete _ -> false) staged with
  | [] -> ()
  | puts ->
      par_iter t puts (function
        | Sput { value; extents; _ } ->
            write_data ~span t extents value (Bytes.length value)
        | Sdelete _ -> ())

(* Claim, then write every payload, before any log append. *)
let stage ~span t ops =
  let staged = claim t ops in
  Span.seg span Span.S_stage;
  write_payloads ~span t staged;
  Span.seg span Span.S_data;
  staged

(* Step 3, under the append's lock hold: find the binding a staged op
   replaces and build its record. *)
let record_of t = function
  | Sput { key; value; meta; extents } ->
      let freed_meta, freed_extents =
        match Btree.find t.h.btree key with
        | Some old_meta ->
            let _, exts = Metazone.read_object t.h.zone old_meta in
            (old_meta, of_mz exts)
        | None -> (-1, [])
      in
      Logrec.Put
        { key; size = Bytes.length value; meta; extents; freed_meta; freed_extents }
  | Sdelete key -> (
      match Btree.find t.h.btree key with
      | None -> Logrec.Noop { key }
      | Some meta ->
          let _, exts = Metazone.read_object t.h.zone meta in
          Logrec.Delete { key; meta; extents = of_mz exts })

let max_slots_of t = function
  | Sput { key; value; _ } -> put_max_slots key (blocks_for t (Bytes.length value))
  | Sdelete key -> put_max_slots key 1

(* Staged ops as append items. *)
let rec append_items_of t = function
  | [] -> []
  | s :: rest ->
      (staged_key s, max_slots_of t s, fun () -> record_of t s) :: append_items_of t rest

(* Steps 6 and 7, cut apart so Table 3 can tell metadata from B-tree. *)
let put_structures ~span t key meta size extents =
  t.platform.Platform.consume Config.costs.meta_ns;
  Metazone.write_object t.h.zone meta ~size (to_mz extents);
  Span.seg span Span.S_structs;
  t.platform.Platform.consume Config.costs.btree_ns;
  ignore (Btree.insert t.h.btree key meta);
  Span.seg span Span.S_index

let delete_structures t key =
  with_structs t (fun () ->
      t.platform.Platform.consume Config.costs.btree_ns;
      ignore (Btree.delete t.h.btree key));
  cache_invalidate t key

(* Steps 6-7 and cache maintenance for one appended record, after
   draining the key's readers. Returns the ids its commit releases,
   [None] for a delete that found nothing. *)
let apply_appended ~span t s op =
  match (s, op) with
  | Sput { key; value; _ }, Logrec.Put { size; meta; extents; freed_meta; freed_extents; _ }
    ->
      Dipper.wait_readers t.engine t.rc key;
      Span.seg span Span.S_ticket;
      with_structs t (fun () -> put_structures ~span t key meta size extents);
      cache_write_through t key value size;
      Some (freed_meta, freed_extents)
  | Sdelete key, Logrec.Delete { meta; extents; _ } ->
      Dipper.wait_readers t.engine t.rc key;
      Span.seg span Span.S_ticket;
      delete_structures t key;
      Some (meta, extents)
  | Sdelete _, Logrec.Noop _ -> None
  | _ -> assert false

let rec apply_all ~span t staged ops =
  match (staged, ops) with
  | s :: staged, op :: ops ->
      let post = apply_appended ~span t s op in
      post :: apply_all ~span t staged ops
  | _ -> []

let rec release_posts t = function
  | [] -> ()
  | Some (m, e) :: rest ->
      release_freed t m e;
      release_posts t rest
  | None :: rest -> release_posts t rest

(* Split a staged group into sub-batches of pairwise-distinct keys, each
   small enough to always fit the log. Distinct keys are required for
   correctness, not just to avoid self-conflict: a record's freed ids must
   come from state committed before its sub-batch, so that any surviving
   subset of the sub-batch replays against ids that were really allocated
   — if op B freed what same-sub-batch op A allocated and only B survived
   a crash, replay would free never-allocated ids. *)
let split_batches t staged =
  let max_batch_slots = max 8 (t.cfg.Config.log_slots / 2) in
  let out = ref [] and cur = ref [] and cur_slots = ref 0 in
  let seen = Hashtbl.create 16 in
  let flush () =
    if !cur <> [] then begin
      out := List.rev !cur :: !out;
      cur := [];
      cur_slots := 0;
      Hashtbl.reset seen
    end
  in
  List.iter
    (fun s ->
      let k = staged_key s in
      let n = max_slots_of t s in
      if Hashtbl.mem seen k || !cur_slots + n > max_batch_slots then flush ();
      Hashtbl.add seen k ();
      cur := s :: !cur;
      cur_slots := !cur_slots + n)
    staged;
  flush ();
  List.rev !out

(* One sub-batch (distinct keys), already staged: one append, steps 6–7
   per op, one commit, then the commit-time releases. If the append
   raises, the claims of this sub-batch and of the [later] ones go back. *)
let exec_sub_batch ctx t span ~later sub =
  let a, ops =
    match append ~span ctx (append_items_of t sub) with
    | r -> r
    | exception e ->
        unstage t (sub @ later);
        raise e
  in
  let posts = apply_all ~span t sub ops in
  Span.seg span Span.S_structs;
  Dipper.commit t.engine a;
  Span.seg span (match sub with [ _ ] -> Span.S_fence | _ -> Span.S_commit);
  release_posts t posts;
  posts

(* The sub-batches append and commit in order, so each record's freed ids
   come from state the earlier sub-batches committed. *)
let rec exec_sub_batches ctx t span = function
  | [] -> []
  | [ sub ] -> exec_sub_batch ctx t span ~later:[] sub
  | sub :: rest ->
      let r = exec_sub_batch ctx t span ~later:(List.concat rest) sub in
      r @ exec_sub_batches ctx t span rest

(* Staging runs once per call, before the split: every payload of the
   call shares one SSD round, however many duplicate-key sub-batches
   follow. A single op is its own sub-batch, with no split to run.
   Returns what each op's commit released, in input order: [None] only
   for a delete that found nothing. *)
let pipeline ctx t span ops =
  match stage ~span t ops with
  | [ _ ] as one -> exec_sub_batch ctx t span ~later:[] one
  | staged -> exec_sub_batches ctx t span (split_batches t staged)

(* Physical-logging put (Figure 9 naïve baseline): allocations, structure
   updates and releases all run inside the critical section under write
   capture; the record carries redo images of every modified byte range.
   Intended for the write-only ablation workload (see DESIGN.md). Its
   builder applies what it logs, so it must not run twice: the images of
   the ablation's small puts stay far below the quarter-log estimate, and
   a record that outgrew it (so [Dipper.append] would build it again)
   fails here rather than applying its updates a second time. *)
let oput_physical ctx t key value size =
  let nblocks = blocks_for t size in
  let data_extents = ref [] in
  let built = ref false in
  let build () =
    if !built then failwith "Dstore.oput_physical: record outgrew its estimate";
    built := true;
    let images =
      Dipper.capture_writes t.engine (fun () ->
          let freed_meta, freed_extents =
            match Btree.find t.h.btree key with
            | Some old_meta ->
                let _, exts = Metazone.read_object t.h.zone old_meta in
                (old_meta, of_mz exts)
            | None -> (-1, [])
          in
          let extents = alloc_blocks t nblocks in
          let meta = alloc_meta t in
          data_extents := extents;
          t.platform.Platform.consume
            (Config.costs.meta_ns + Config.costs.btree_ns);
          Metazone.write_object t.h.zone meta ~size (to_mz extents);
          ignore (Btree.insert t.h.btree key meta);
          if freed_meta >= 0 then Bitpool.free t.h.metapool freed_meta;
          List.iter
            (fun (s, l) ->
              for b = s to s + l - 1 do
                Bitpool.free t.h.blockpool b
              done)
            freed_extents)
    in
    Logrec.Phys { images }
  in
  let a, _ = append ctx [ (key, t.cfg.log_slots / 4, build) ] in
  write_data t !data_extents value size;
  Dipper.commit t.engine a

(* --- entry points: each a group over the one pipeline ------------------------- *)

(* The caller's [span], or a fresh one of [kind] that [finish_own]
   closes. A caller-owned span (the replication façade's) takes the
   engine's segments and stalls but stays open, so post-return waits
   (backup acks) land in the same record and the partition invariant
   still holds. *)
let span_of t span ?n_ops kind key =
  match span with Some s -> s | None -> Span.start t.obs.Obs.spans ?n_ops kind key

let finish_own span sp = match span with None -> Span.finish sp | Some _ -> ()

let oput ?span ctx key value =
  check_ctx ctx;
  let t = ctx.store in
  let t0 = now t in
  (match t.cfg.logging with
  | Config.Logical ->
      let sp = span_of t span Span.Put key in
      ignore (pipeline ctx t sp [ Bput (key, value) ]);
      finish_own span sp
  | Config.Physical -> oput_physical ctx t key value (Bytes.length value));
  Metrics.observe t.h_put (now t - t0)

(* A delete logs a logical record under either logging mode. *)
let delete_one ctx t span key =
  match pipeline ctx t span [ Bdelete key ] with
  | [ post ] -> Option.is_some post
  | _ -> assert false

let odelete ?span ctx key =
  check_ctx ctx;
  let t = ctx.store in
  let t0 = now t in
  let sp = span_of t span Span.Delete key in
  let r = delete_one ctx t sp key in
  finish_own span sp;
  Metrics.observe t.h_del (now t - t0);
  r

let obatch ?span ctx ops =
  check_ctx ctx;
  let t = ctx.store in
  match ops with
  | [] -> []
  | _ ->
      let t0 = now t in
      let results =
        match t.cfg.logging with
        | Config.Logical ->
            (* One Batch span covers the whole group commit; attribution
               weights it by op count (every op observes batch latency). *)
            let sp = span_of t span ~n_ops:(List.length ops) Span.Batch "(batch)" in
            let posts = pipeline ctx t sp ops in
            finish_own span sp;
            List.map Option.is_some posts
        | Config.Physical ->
            (* Physical logging captures redo images inside the critical
               section per op; run the batch as individual ops. *)
            List.map
              (function
                | Bput (k, v) ->
                    oput_physical ctx t k v (Bytes.length v);
                    true
                | Bdelete k -> delete_one ctx t Span.none k)
              ops
      in
      (* Group-commit acknowledgment: every op in the batch observes the
         whole batch's latency — nothing is durable earlier. *)
      let dt = now t - t0 in
      List.iter
        (fun op ->
          match op with
          | Bput _ -> Metrics.observe t.h_put dt
          | Bdelete _ -> Metrics.observe t.h_del dt)
        ops;
      results

let oput_batch ctx kvs =
  ignore (obatch ctx (List.map (fun (k, v) -> Bput (k, v)) kvs))

let odelete_batch ctx keys = obatch ctx (List.map (fun k -> Bdelete k) keys)

(* --- reads ----------------------------------------------------------------- *)

(* Wait out what a reader's conflict scan found, holding nothing, as
   [Conflict_retry] blame. *)
let wait_out ~span ctx key c =
  let t = ctx.store in
  if Span.live span then begin
    let tw = now t in
    Dipper.wait_conflict t.engine ~holder:(holder ctx) key c;
    Span.stall span Span.Conflict_retry (now t - tw)
  end
  else Dipper.wait_conflict t.engine ~holder:(holder ctx) key c

(* Reader protocol (§4.4): enter the read count, then back out and wait if
   a write on this name is in flight. A writer appends its record before
   draining the read count, so it only ever waits on readers that entered
   before its record appeared — and those readers never wait on it: no
   circular wait. *)
let rec read_entry ?(span = Span.none) ctx key =
  let t = ctx.store in
  Readcount.enter_reader t.rc key;
  match
    Dipper.conflicting_ticket ~ignore:(own_lock ctx key) ~holder:(holder ctx) t.engine key
  with
  | Dipper.Clear -> ()
  | c ->
      Readcount.exit_reader t.rc key;
      wait_out ~span ctx key c;
      read_entry ~span ctx key

let read_exit t key = Readcount.exit_reader t.rc key

(* A caller buffer too short for the object: leave the reader window
   and finish the span before raising, or the key's next writer would
   wait in [Dipper.wait_readers] for a reader that is gone. *)
let short_buffer ~span t key fn =
  read_exit t key;
  Span.finish span;
  invalid_arg (fn ^ ": buffer shorter than the object")

let oget_into ctx key buf =
  check_ctx ctx;
  let t = ctx.store in
  let tstart = now t in
  let span = Span.start t.obs.Obs.spans Span.Get key in
  read_entry ~span ctx key;
  Span.seg span Span.S_ticket;
  let result =
    match cache_lookup t key with
    | Some (cbuf, len) ->
        (* Hit: one DRAM probe + one copy straight into the caller's
           buffer — no index walk, no metadata read, no SSD. Copy out
           BEFORE charging modeled costs: [consume] is a scheduling
           point, and a concurrent op's fill/write-through could evict
           and recycle the borrowed buffer during the yield. *)
        if Bytes.length buf < len then
          short_buffer ~span t key "Dstore.oget_into";
        Bytes.blit cbuf 0 buf 0 len;
        t.platform.Platform.consume Config.costs.lookup_ns;
        copy_cost t len;
        Span.seg span Span.S_index;
        len
    | None -> (
        let located =
          with_structs_read t (fun () ->
              match Btree.find t.h.btree key with
              | None -> None
              | Some meta ->
                  t.platform.Platform.consume Config.costs.lookup_ns;
                  let size, extents = Metazone.read_object t.h.zone meta in
                  Some (size, extents))
        in
        Span.seg span Span.S_index;
        match located with
        | None -> -1
        | Some (size, extents) ->
            if Bytes.length buf < size then
              short_buffer ~span t key "Dstore.oget_into";
            read_data ~span t (of_mz extents) buf size;
            Span.seg span Span.S_data;
            cache_fill ~span t key buf size;
            size)
  in
  read_exit t key;
  Span.finish span;
  Metrics.observe t.h_get (now t - tstart);
  result

(* Shared miss-or-hit value fetch inside an open reader window;
   allocates the result buffer ([oget] / [oget_versioned]). *)
let fetch_value ~span t key =
  match cache_lookup t key with
  | Some (cbuf, len) ->
      (* Copy out before the [consume] yield — see [oget_into]. *)
      let buf = Bytes.create len in
      Bytes.blit cbuf 0 buf 0 len;
      t.platform.Platform.consume Config.costs.lookup_ns;
      copy_cost t len;
      Span.seg span Span.S_index;
      Some buf
  | None -> (
      match Btree.find t.h.btree key with
      | None ->
          Span.seg span Span.S_index;
          None
      | Some meta ->
          t.platform.Platform.consume Config.costs.lookup_ns;
          let size, extents = Metazone.read_object t.h.zone meta in
          Span.seg span Span.S_index;
          let buf = Bytes.create size in
          read_data ~span t (of_mz extents) buf size;
          Span.seg span Span.S_data;
          cache_fill ~span t key buf size;
          Some buf)

let oget ctx key =
  check_ctx ctx;
  let t = ctx.store in
  let tstart = now t in
  let span = Span.start t.obs.Obs.spans Span.Get key in
  read_entry ~span ctx key;
  Span.seg span Span.S_ticket;
  let result = fetch_value ~span t key in
  read_exit t key;
  Span.finish span;
  Metrics.observe t.h_get (now t - tstart);
  result

(* Zero-copy borrow seam for hot read loops: on a cache hit the returned
   buffer is the cache's own — valid only until ANY store mutation (a
   fill/write-through/invalidation by any client, not just the caller's
   own next op, may evict and recycle it) — so nothing is copied at all;
   on a miss, [scratch] is filled from the SSD path (warming the cache)
   and returned. No per-op allocation either way. Callers that share the
   store with concurrent writers must consume the view before yielding,
   or use [oget_into]. *)
let oget_view ctx key scratch =
  check_ctx ctx;
  let t = ctx.store in
  let tstart = now t in
  let span = Span.start t.obs.Obs.spans Span.Get key in
  read_entry ~span ctx key;
  Span.seg span Span.S_ticket;
  let result =
    match cache_lookup t key with
    | Some (cbuf, len) ->
        t.platform.Platform.consume Config.costs.lookup_ns;
        Span.seg span Span.S_index;
        Some (cbuf, len)
    | None -> (
        match Btree.find t.h.btree key with
        | None ->
            Span.seg span Span.S_index;
            None
        | Some meta ->
            t.platform.Platform.consume Config.costs.lookup_ns;
            let size, extents = Metazone.read_object t.h.zone meta in
            Span.seg span Span.S_index;
            if Bytes.length scratch < size then
              short_buffer ~span t key "Dstore.oget_view";
            read_data ~span t (of_mz extents) scratch size;
            Span.seg span Span.S_data;
            cache_fill ~span t key scratch size;
            Some (scratch, size))
  in
  read_exit t key;
  Span.finish span;
  Metrics.observe t.h_get (now t - tstart);
  result

let oexists ctx key =
  check_ctx ctx;
  let t = ctx.store in
  read_entry ctx key;
  let r = Btree.mem t.h.btree key in
  read_exit t key;
  r

(* --- filesystem-style API ----------------------------------------------------- *)

let oopen ctx name ?(create = true) mode =
  check_ctx ctx;
  let t = ctx.store in
  let exists = with_structs_read t (fun () -> Btree.mem t.h.btree name) in
  (match (exists, create, mode) with
  | true, _, _ -> ()
  | false, true, (Wr | Rdwr) ->
      let claimed = ref (-1) in
      let release () =
        if !claimed >= 0 then Bitpool.free t.h.metapool !claimed;
        claimed := -1
      in
      let a, ops =
        append_claiming ctx name 4 ~release (fun () ->
            (* Re-check under the lock: a racing oopen may have created it. *)
            match Btree.find t.h.btree name with
            | Some _ -> Logrec.Noop { key = name }
            | None ->
                claimed := alloc_meta t;
                Logrec.Create { key = name; meta = !claimed })
      in
      (match ops with
      | [ Logrec.Create { meta; _ } ] ->
          Dipper.wait_readers t.engine t.rc name;
          with_structs t (fun () ->
              t.platform.Platform.consume
                (Config.costs.meta_ns + Config.costs.btree_ns);
              Metazone.write_object t.h.zone meta ~size:0 [];
              ignore (Btree.insert t.h.btree name meta));
          cache_invalidate t name
      | _ -> ());
      Dipper.commit t.engine a
  | false, _, _ -> raise (Object_not_found name));
  {
    octx = ctx;
    name;
    mode = (match mode with Rd -> `Rd | Wr -> `Wr | Rdwr -> `Rdwr);
    closed = false;
  }

let check_obj o =
  if o.closed then invalid_arg "DStore: operation on closed object";
  check_ctx o.octx

let oclose o =
  check_obj o;
  o.closed <- true

let osize o =
  check_obj o;
  let t = o.octx.store in
  read_entry o.octx o.name;
  let size =
    with_structs_read t (fun () ->
        match Btree.find t.h.btree o.name with
        | None -> None
        | Some meta -> Some (fst (Metazone.read_object t.h.zone meta)))
  in
  read_exit t o.name;
  match size with None -> raise (Object_not_found o.name) | Some s -> s

(* Flatten extents into a page array for random page addressing. *)
let pages_of_extents extents =
  let flat = ref [] in
  List.iter
    (fun (s, l) ->
      for i = 0 to l - 1 do
        flat := (s + i) :: !flat
      done)
    extents;
  Array.of_list (List.rev !flat)

let oread o buf ~size ~off =
  check_obj o;
  if o.mode = `Wr then invalid_arg "DStore.oread: object opened write-only";
  let t = o.octx.store in
  let tstart = now t in
  let span = Span.start t.obs.Obs.spans Span.Read o.name in
  read_entry ~span o.octx o.name;
  Span.seg span Span.S_ticket;
  (* Whole-object cache hit: serve the byte range straight from the
     cached buffer (no index walk, no SSD). Misses take the page-granular
     SSD path below and do NOT fill — a partial read can't warm a
     whole-object cache. *)
  match cache_lookup t o.name with
  | Some (cbuf, osz) ->
      let n = if off >= osz then 0 else min size (osz - off) in
      (* Copy out before the [consume] yield — see [oget_into]. *)
      if n > 0 then Bytes.blit cbuf off buf 0 n;
      t.platform.Platform.consume Config.costs.lookup_ns;
      copy_cost t n;
      Span.seg span Span.S_index;
      read_exit t o.name;
      Span.finish span;
      Metrics.observe t.h_read (now t - tstart);
      n
  | None ->
  let located =
    with_structs_read t (fun () ->
        match Btree.find t.h.btree o.name with
        | None -> None
        | Some meta -> Some (Metazone.read_object t.h.zone meta))
  in
  let result =
    match located with
    | None ->
        read_exit t o.name;
        raise (Object_not_found o.name)
    | Some (osz, extents) ->
        if off >= osz then begin
          Span.seg span Span.S_index;
          0
        end
        else begin
          let n = min size (osz - off) in
          t.platform.Platform.consume Config.costs.lookup_ns;
          Span.seg span Span.S_index;
          let ps = page_size t in
          let first_page = off / ps and last_page = (off + n - 1) / ps in
          let scratch = Bytes.create ((last_page - first_page + 1) * ps) in
          let pages = pages_of_extents (of_mz extents) in
          for p = first_page to last_page do
            Ssd.read ~span t.ssd ~page:pages.(p) scratch
              ~off:((p - first_page) * ps)
              ~count:1
          done;
          Bytes.blit scratch (off - (first_page * ps)) buf 0 n;
          Span.seg span Span.S_data;
          n
        end
  in
  read_exit t o.name;
  Span.finish span;
  Metrics.observe t.h_read (now t - tstart);
  result

let owrite ?span:caller_span o buf ~size ~off =
  check_obj o;
  if o.mode = `Rd then invalid_arg "DStore.owrite: object opened read-only";
  let t = o.octx.store in
  if size = 0 then 0
  else begin
    let tstart = now t in
    let ps = page_size t in
    let name = o.name in
    let new_end = off + size in
    let span, owned =
      match caller_span with
      | Some s -> (s, false)
      | None -> (Span.start t.obs.Obs.spans Span.Write name, true)
    in
    let plan = ref None in
    let release () =
      Option.iter (fun (_, _, new_extents, _) -> free_extents t new_extents) !plan;
      plan := None
    in
    let a, ops =
      append_claiming ~span o.octx name
        (put_max_slots name (blocks_for t size + 1))
        ~release
        (fun () ->
          let meta =
            match Btree.find t.h.btree name with
            | Some m -> m
            | None -> raise (Object_not_found name)
          in
          let osz, extents = Metazone.read_object t.h.zone meta in
          let have_blocks = Metazone.blocks_of extents in
          let need_blocks = (max new_end osz + ps - 1) / ps in
          let extra = need_blocks - have_blocks in
          let new_extents = if extra > 0 then alloc_blocks t extra else [] in
          let new_size = max new_end osz in
          plan := Some (meta, of_mz extents, new_extents, new_size);
          if new_extents = [] && new_size = osz then
            (* In-place overwrite: no metadata change, no logical record
               needed (§4.3); the NOOP still serializes conflicting
               writers through the conflict scan. *)
            Logrec.Noop { key = name }
          else Logrec.Write { key = name; meta; size = new_size; new_extents })
    in
    let meta, old_extents, new_extents, new_size = Option.get !plan in
    Dipper.wait_readers t.engine t.rc name;
    Span.seg span Span.S_ticket;
    (* Partial overwrite (even the in-place NOOP case rewrites SSD
       bytes): the cached whole-object copy is stale either way. *)
    cache_invalidate t name;
    (match ops with
    | [ Logrec.Write _ ] ->
        with_structs t (fun () ->
            t.platform.Platform.consume Config.costs.meta_ns;
            if new_extents <> [] then
              Metazone.append_extents t.h.zone meta (to_mz new_extents);
            Metazone.set_size t.h.zone meta new_size)
    | _ -> ());
    Span.seg span Span.S_structs;
    (* Data: page-granular read-modify-write over the affected range. *)
    let pages = pages_of_extents (old_extents @ new_extents) in
    let first_page = off / ps and last_page = (new_end - 1) / ps in
    let window = (last_page - first_page + 1) * ps in
    let scratch = Bytes.make window '\000' in
    let old_pages = Metazone.blocks_of (to_mz old_extents) in
    let fetch_page p dst_off =
      if p < old_pages then
        Ssd.read ~span t.ssd ~page:pages.(p) scratch ~off:dst_off ~count:1
    in
    if off mod ps <> 0 then fetch_page first_page 0;
    if new_end mod ps <> 0 && last_page <> first_page then
      fetch_page last_page ((last_page - first_page) * ps);
    Bytes.blit buf 0 scratch (off - (first_page * ps)) size;
    for p = first_page to last_page do
      Ssd.write ~span t.ssd ~page:pages.(p) scratch
        ~off:((p - first_page) * ps)
        ~count:1
    done;
    Span.seg span Span.S_data;
    Dipper.commit t.engine a;
    Span.seg span Span.S_fence;
    if owned then Span.finish span;
    Metrics.observe t.h_write (now t - tstart);
    size
  end

(* --- advisory object locks (olock/ounlock, §4.5) ------------------------------- *)

let olock ctx name =
  check_ctx ctx;
  let t = ctx.store in
  let a, _ = append ctx [ (name, 2, fun () -> Logrec.Noop { key = name }) ] in
  Mutex.lock t.locks_guard;
  Hashtbl.replace t.held_locks name (ctx.id, a);
  Mutex.unlock t.locks_guard

let ounlock ctx name =
  check_ctx ctx;
  let t = ctx.store in
  Mutex.lock t.locks_guard;
  let entry = Hashtbl.find_opt t.held_locks name in
  Hashtbl.remove t.held_locks name;
  Mutex.unlock t.locks_guard;
  match entry with
  | Some (_, a) -> Dipper.commit t.engine a
  | None -> invalid_arg (Printf.sprintf "DStore.ounlock: %S is not locked" name)

(* --- OCC transaction write path (backend of lib/txn) --------------------------- *)

let key_version ctx key =
  check_ctx ctx;
  Dipper.key_version ctx.store.engine key

(* Versioned reader entry: the retry loop of [read_entry] with the
   conflict scan and version read fused into ONE frontend-lock round
   ([Dipper.conflicting_ticket_versioned]). Returns the version observed
   by the round that found no conflict. *)
let rec read_entry_versioned ?(span = Span.none) ctx key =
  let t = ctx.store in
  Readcount.enter_reader t.rc key;
  match
    Dipper.conflicting_ticket_versioned ~ignore:(own_lock ctx key) ~holder:(holder ctx)
      t.engine key
  with
  | Dipper.Clear, v -> v
  | c, _ ->
      Readcount.exit_reader t.rc key;
      if ctx.holds <> [] && Dipper.holder_must_abort c then begin
        let st = Dipper.stats t.engine in
        st.Dipper.txns_aborted <- st.Dipper.txns_aborted + 1;
        raise (Would_wait key)
      end;
      wait_out ~span ctx key c;
      read_entry_versioned ~span ctx key

(* Version BEFORE value: if a commit lands between the two reads, the
   recorded version is stale and validation aborts the transaction —
   never the reverse interleaving (fresh version, old value), which
   validation could not detect.

   Hoisted to a single versioned lookup: the version comes out of the
   reader entry's own conflict-scan lock round and the value out of one
   [fetch_value] in the same reader window — the old path paid a second
   lock acquisition ([Dipper.key_version]) and then re-ran the whole
   read protocol inside [oget], i.e. two frontend-lock rounds and two
   index passes per call on the transactional hot read path.

   A caller-owned [span] (a transaction's) takes the read's segments and
   ticket waits in place of a [Get] span of its own. *)
let oget_versioned ?span ctx key =
  check_ctx ctx;
  let t = ctx.store in
  let tstart = now t in
  let own = Option.is_none span in
  let span =
    match span with
    | Some s -> s
    | None -> Span.start t.obs.Obs.spans Span.Get key
  in
  let v = read_entry_versioned ~span ctx key in
  Span.seg span Span.S_ticket;
  let result = fetch_value ~span t key in
  read_exit t key;
  if own then Span.finish span;
  Metrics.observe t.h_get (now t - tstart);
  (v, result)

(* Reserve [keys] for the context, all or nothing (see [Dipper.reserve]);
   the context must hold none. *)
let reserve ?span ctx keys =
  check_ctx ctx;
  assert (ctx.holds = []);
  let ignore = List.concat_map (own_lock ctx) keys in
  Dipper.reserve ~ignore ?span ctx.store.engine ~holder:ctx.id keys;
  ctx.holds <- keys

let release ctx =
  match ctx.holds with
  | [] -> ()
  | keys ->
      Dipper.release ctx.store.engine ~holder:ctx.id keys;
      ctx.holds <- []

(* Commit a transaction's buffered write-set against its read-set.
   Validation comes before any device work: [claim] the allocations, then
   [Dipper.append] with the read-set (conflict scan, OCC validation and
   span staging under one lock hold, then the begin + members flush), and
   only on success write the SSD payloads. An aborted attempt therefore
   does no SSD I/O and needs only [unstage]'s in-memory frees. Crash-safe
   because the span stays uncommitted until [Dipper.commit] persists its
   commit record — after every payload write has returned — and
   recovery drops a span without one. The price is that the span's
   in-flight tickets are held across the payload writes, so concurrent
   accesses to member keys wait instead of racing. [oput] and [obatch]
   keep the payload-before-append order: they never abort, and their
   tickets stay free of device time. *)
let txn_commit_writes ?(span = Span.none) ctx ~reads ~writes =
  check_ctx ctx;
  let t = ctx.store in
  if t.cfg.logging <> Config.Logical then
    invalid_arg "DStore.txn_commit_writes: transactions require logical logging";
  match writes with
  | [] ->
      (* Read-only transaction: validation is the whole commit. *)
      Result.map ignore (append_items ~reads ctx [])
  | _ -> (
      let staged = claim t writes in
      Span.seg span Span.S_stage;
      match
        unstage_on_error t staged (fun () ->
            append_items ~span ~reads ctx (append_items_of t staged))
      with
      | Error key ->
          (* Stale read: nothing was appended or written. *)
          unstage t staged;
          Error key
      | Ok a ->
          write_payloads ~span t staged;
          Span.seg span Span.S_data;
          let posts = apply_all ~span t staged (ops_of a) in
          Span.seg span Span.S_structs;
          Dipper.commit t.engine a;
          Span.seg span Span.S_commit;
          release_posts t posts;
          Ok ())

(* --- introspection -------------------------------------------------------------- *)

let object_count t = Btree.length t.h.btree

let iter_names t f = Btree.iter t.h.btree (fun k _ -> f k)

let olist ctx ~prefix =
  check_ctx ctx;
  let t = ctx.store in
  let acc = ref [] in
  Btree.iter t.h.btree (fun k _ ->
      if String.length k >= String.length prefix
         && String.sub k 0 (String.length prefix) = prefix
      then acc := k :: !acc);
  List.rev !acc

let footprint t =
  {
    dram = Dipper.dram_footprint t.engine;
    pmem = Dipper.pmem_footprint t.engine;
    ssd = Bitpool.allocated t.h.blockpool * page_size t;
  }

let cache_stats t = Option.map Cache.stats t.cache

let cache_clear t = Option.iter Cache.clear t.cache
