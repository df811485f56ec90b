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

(* [par_iter]'s join: tasks still running, the first exception one raised. *)
type join = {
  mu : Platform.mutex;
  cv : Platform.cond;
  mutable pending : int;
  mutable failed : exn option;
}

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
  obs : Obs.t;
  joins : join list Atomic.t;  (* [par_iter]'s free join records *)
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
  id : int;  (* the engine's context id: nonzero *)
  mutable live : bool;
  mutable holds : Dipper.reservation option;  (* see [reserve] *)
}

type open_mode = Rd | Wr | Rdwr

type obj = { octx : ctx; name : string; mode : open_mode; mutable closed : bool }

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

let free_blocks pool extents =
  List.iter
    (fun (s, l) ->
      for b = s to s + l - 1 do
        Bitpool.free pool b
      done)
    extents

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
  match op with
  | Logrec.Put { meta; extents; freed_meta; freed_extents; _ } ->
      mark extents;
      Bitpool.set_allocated h.metapool meta;
      free_blocks h.blockpool freed_extents;
      if freed_meta >= 0 then Bitpool.free h.metapool freed_meta
  | Logrec.Create { meta; _ } -> Bitpool.set_allocated h.metapool meta
  | Logrec.Write { new_extents; _ } -> mark new_extents
  | Logrec.Delete { meta; extents; _ } ->
      free_blocks h.blockpool extents;
      Bitpool.free h.metapool meta
  | Logrec.Noop _ -> ()
  | Logrec.Phys _ -> ()
  (* Transaction framing never reaches replay: [Oplog.committed]
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
     pipeline's reader fencing (conflict lookup + wait_readers) is what
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
    obs;
    joins = Atomic.make [];
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
  { store = t; id = Atomic.fetch_and_add next_ctx_id 1; live = true; holds = None }

let ds_finalize ctx = ctx.live <- false

let check_ctx ctx = if not ctx.live then invalid_arg "DStore: finalized context"


(* Append [items] past the caller's own advisory locks and reservations. *)
let append_items ?span ?reads ctx items =
  Dipper.append ~ctx:ctx.id ~holding:(Option.is_some ctx.holds) ?span ?reads ctx.store.engine
    items

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

(* --- data plane helpers ------------------------------------------------------ *)

let page_bytes t = Ssd.page_size t.ssd

let ssd_channels t = (Ssd.config t.ssd).Ssd.channels

let blocks_for t size = (size + page_bytes t - 1) / page_bytes t

(* Write [size] bytes of [buf] to the blocks of [extents], in order. *)
let write_data ?(span = Span.none) t extents buf size =
  if size > 0 then begin
    let ps = page_bytes t in
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

type io = ?span:Span.t -> Ssd.t -> page:int -> Bytes.t -> off:int -> count:int -> unit

(* The one extent walker: [io] ([Ssd.read] or [Ssd.write]) object pages
   [first, first + n) against [buf], page p at page (p - origin) of [buf],
   one call per page or with [~runs] per device-contiguous stretch. The
   object lies on [extents], their head at object page [base]. *)
let rec move_pages ~span t (io : io) ~runs buf ~origin ~first ~n base = function
  | [] -> ()
  | { Metazone.start; len } :: rest ->
      let ps = page_bytes t in
      let lo = max first base and hi = min (first + n) (base + len) in
      if runs then begin
        if lo < hi then
          io ~span t.ssd ~page:(start + lo - base) buf ~off:((lo - origin) * ps) ~count:(hi - lo)
      end
      else
        for p = lo to hi - 1 do
          io ~span t.ssd ~page:(start + p - base) buf ~off:((p - origin) * ps) ~count:1
        done;
      if base + len < first + n then
        move_pages ~span t io ~runs buf ~origin ~first ~n (base + len) rest

(* --- allocation helpers (run under the frontend lock) ------------------------- *)

let alloc_blocks t nblocks =
  if nblocks = 0 then []
  else
    match Bitpool.alloc_run t.h.blockpool nblocks with
    | Some extents -> extents
    | None -> raise Out_of_blocks

let alloc_meta t =
  let m = Bitpool.alloc t.h.metapool in
  if m < 0 then raise Out_of_blocks;
  m

let free_extents t extents = free_blocks t.h.blockpool extents

let now t = t.platform.Platform.now ()

(* --- DRAM object cache glue --------------------------------------------------- *)

(* The cache is strictly volatile — it never touches a persistence
   domain, so crash recovery is unaffected by construction (a recovered
   store starts cold and refills on demand).

   Coherence argument. Reads consult the cache inside the reader window
   (between [read_entry] and [read_exit]), and writers maintain it from
   the write pipeline at the point right after [Dipper.wait_readers]:
   the log append under the frontend lock has already ordered the op and
   made its ticket visible to the conflict lookup, so

   - every reader that entered BEFORE the append has drained (so no
     in-flight miss path can re-fill the stale value after our
     invalidation), and
   - every reader arriving AFTER the append is held at [read_entry] by
     the conflict lookup until the op commits (so nobody observes the
     write-through before the op is acknowledged), except a
     transaction's read once the op has passed, which comes after the
     write-through and whose transaction commits only after the op.

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


(* --- the write bracket (Figure 4, staged) ------------------------------------- *)

(* Every writer runs one bracket, [write]: span, stage, append, per record
   reader drain, structures and cache, in-window data, commit, release,
   and the span and latency sample closed on every exit. Its group is one
   op, a batch, or a transaction's write-set (the single op being the
   degenerate transaction, Marathe et al.).

   The group's shape fixes where a payload goes. The puts of [oput],
   [odelete] and [obatch] claim their ids and write their SSD payloads
   before their append (steps 4 and 8 STAGED), so the in-flight window
   that same-key requests wait out holds no device time; crash-safe, as
   claimed ids are unreachable until the record commits and the pools
   are volatile. A backup's group arrives claimed and written. A
   transaction claims, validates in its append, then writes its payloads
   beside its structure updates and passes: an abort does no SSD I/O, and
   its keys are held for its append and structure updates only. [owrite]
   rewrites live pages inside its window, and a physical put writes its
   payload after the build that claimed and applied it. A record is
   built under the append's lock hold, so the ids it frees are committed
   state; a rebuild (the record outgrew its estimate) first gives back
   the previous build's claims, and a raising append every claim.

   Segments: [S_stage] (claim), [S_data] (payload), [S_lock] and
   [S_append] (the engine's), per record [S_ticket] (reader drain),
   [S_structs] (metadata) and [S_index] (B-tree), [S_structs] (cache),
   [S_data] (in-window data), and [S_fence] for one record's commit or
   [S_commit] for a group's or a transaction's. Table 3 is their sums. *)

type batch_op = Bput of string * Bytes.t | Bdelete of string

let batch_key = function Bput (k, _) -> k | Bdelete k -> k

(* One op of a write group. A put's ids are claimed at stage ([meta] -1
   until then). A create claims in its build; an owrite records there the
   object's extents and the blocks it claimed ([fresh]); a physical put
   claims and applies its updates there. *)
type staged =
  | Sput of {
      key : string; value : Bytes.t; mutable meta : int; mutable extents : (int * int) list }
  | Sdelete of string
  | Screate of { key : string; mutable meta : int }
  | Swrite of {
      key : string;
      buf : Bytes.t;
      size : int;
      off : int;
      mutable old : Metazone.extent list;
      mutable fresh : (int * int) list;
    }
  | Sphys of {
      key : string; value : Bytes.t; mutable extents : (int * int) list; mutable built : bool }

let staged_key = function
  | Sput { key; _ } | Screate { key; _ } | Swrite { key; _ } | Sphys { key; _ } | Sdelete key -> key

let put_of t key value =
  match t.cfg.logging with
  | Config.Logical -> Sput { key; value; meta = -1; extents = [] }
  | Config.Physical -> Sphys { key; value; extents = []; built = false }

(* Table 2 arguments, checked at entry: host work only, before any claim,
   lock or append. *)
let check_key what key =
  if String.length key > Btree.max_key_len then
    invalid_arg (Printf.sprintf "Dstore.%s: key longer than %d bytes" what Btree.max_key_len)

let check_range what buf ~size ~off =
  if off < 0 then invalid_arg (Printf.sprintf "Dstore.%s: off %d < 0" what off);
  if size < 0 || size > Bytes.length buf then
    invalid_arg (Printf.sprintf "Dstore.%s: size %d outside 0..%d" what size (Bytes.length buf))

(* [what]'s group of [ops], each key checked. *)
let rec staged_of t what = function
  | [] -> []
  | op :: rest ->
      check_key what (batch_key op);
      (match op with Bput (k, v) -> put_of t k v | Bdelete k -> Sdelete k)
      :: staged_of t what rest

(* Fork-join: [f] on each of [items] in a task of its own, [inline] on
   the caller's fiber; returns, or raises [inline]'s exception else the
   first a task raised, only once every task is done. Join records are
   pooled per store: a fork allocates its task closures and a list cell. *)
let rec take_join t =
  match Atomic.get t.joins with
  | j :: rest as l -> if Atomic.compare_and_set t.joins l rest then j else take_join t
  | [] ->
      let p = t.platform in
      { mu = p.Platform.new_mutex (); cv = p.Platform.new_cond (); pending = 0; failed = None }

let await t j =
  j.mu.Platform.lock ();
  while j.pending > 0 do j.cv.Platform.wait j.mu done;
  j.mu.Platform.unlock ();
  let failed = j.failed in
  j.failed <- None;
  while
    let l = Atomic.get t.joins in
    not (Atomic.compare_and_set t.joins l (j :: l))
  do () done;
  failed

let par_iter t items f ~inline =
  let j = take_join t in
  j.pending <- List.length items;
  List.iter
    (fun y ->
      t.platform.Platform.spawn "batch-io" (fun () ->
          let e = match f y with () -> None | exception e -> Some e in
          j.mu.Platform.lock ();
          if Option.is_none j.failed then j.failed <- e;
          j.pending <- j.pending - 1;
          if j.pending = 0 then j.cv.Platform.signal ();
          j.mu.Platform.unlock ()))
    items;
  match inline () with
  | r ->
      Option.iter raise (await t j);
      r
  | exception e ->
      ignore (await t j);
      raise e

(* Give back (under the frontend lock) and forget every id [s] holds that
   no committed record names: its stage's claims or its last build's. *)
let free_claim t = function
  | Sput p ->
      free_extents t p.extents;
      if p.meta >= 0 then Bitpool.free t.h.metapool p.meta;
      p.meta <- -1;
      p.extents <- []
  | Screate c ->
      if c.meta >= 0 then Bitpool.free t.h.metapool c.meta;
      c.meta <- -1
  | Swrite w ->
      free_extents t w.fresh;
      w.fresh <- []
  | Sdelete _ | Sphys _ -> ()

let rec free_claims t = function
  | [] -> ()
  | s :: rest ->
      free_claim t s;
      free_claims t rest

let rec claim_all t = function
  | [] -> ()
  | Sput p :: rest when p.meta < 0 ->
      p.extents <- alloc_blocks t (blocks_for t (Bytes.length p.value));
      p.meta <- alloc_meta t;
      claim_all t rest
  | _ :: rest -> claim_all t rest

(* Step 4 for every unclaimed put of [group] in one frontend-lock hold, all
   or nothing: if a claim runs out of ids, every id taken goes back as
   [Out_of_blocks] unwinds. Returns whether it claimed anything. *)
let claim_group t group =
  List.exists (function Sput { meta; _ } -> meta < 0 | _ -> false) group
  && Dipper.with_frontend_lock t.engine (fun () ->
         match claim_all t group with
         | () -> true
         | exception e ->
             free_claims t group;
             raise e)

let claim t ops =
  let group = staged_of t "claim" ops in
  ignore (claim_group t group);
  group

(* Give back the ids of staged ops that never reached the log (volatile
   pools, no record names them: a plain free suffices). *)
let unstage t group =
  Dipper.with_frontend_lock t.engine (fun () -> free_claims t group)

let write_staged ~span t = function
  | Sput { value; extents; _ } -> write_data ~span t extents value (Bytes.length value)
  | _ -> ()

let puts_of = List.filter (function Sput _ -> true | _ -> false)

(* Step 8 for every staged put, overlapped across the SSD's channels. *)
let write_payloads ?(span = Span.none) t group =
  match puts_of group with
  | [] -> ()
  | [ p ] -> write_staged ~span t p
  | p :: rest ->
      par_iter t rest (write_staged ~span t) ~inline:(fun () -> write_staged ~span t p)

(* The meta id [key] is bound to, -1 if none, and the extents of one. *)
let bound t key = match Btree.find t.h.btree key with Some m -> m | None -> -1

let extents_of t meta = if meta < 0 then [] else of_mz (snd (Metazone.read_object t.h.zone meta))

(* Step 3, under the append's lock hold: find the binding the op
   replaces, claim what the build needs, and build its record. *)
let record_of t = function
  | Sput { key; value; meta; extents } ->
      let freed_meta = bound t key in
      Logrec.Put
        { key; size = Bytes.length value; meta; extents; freed_meta;
          freed_extents = extents_of t freed_meta }
  | Sdelete key -> (
      match bound t key with
      | -1 -> Logrec.Noop { key }
      | meta -> Logrec.Delete { key; meta; extents = extents_of t meta })
  | Screate c when bound t c.key >= 0 ->
      (* Re-checked under the lock: a racing oopen created it. *)
      Logrec.Noop { key = c.key }
  | Screate c ->
      c.meta <- alloc_meta t;
      Logrec.Create { key = c.key; meta = c.meta }
  | Swrite w ->
      let meta = bound t w.key in
      if meta < 0 then raise (Object_not_found w.key);
      let osz, extents = Metazone.read_object t.h.zone meta in
      let size = max (w.off + w.size) osz in
      w.old <- extents;
      w.fresh <- alloc_blocks t (blocks_for t size - Metazone.blocks_of extents);
      if w.fresh = [] && size = osz then
        (* In-place overwrite: no metadata change, no logical record
           needed (§4.3); the NOOP still serializes conflicting writers
           through the conflict lookup. *)
        Logrec.Noop { key = w.key }
      else Logrec.Write { key = w.key; meta; size; new_extents = w.fresh }
  | Sphys p ->
      (* Figure 9's naïve baseline: claim, bind and release under write
         capture, so the record carries redo images of every byte range
         changed. Far below the quarter-log estimate for the ablation's
         small puts; one that outgrew it fails rather than apply twice. *)
      if p.built then failwith "Dstore.oput: physical record outgrew its estimate";
      p.built <- true;
      let size = Bytes.length p.value in
      let images =
        Dipper.capture_writes t.engine (fun () ->
            let freed_meta = bound t p.key in
            let freed_extents = extents_of t freed_meta in
            (* The meta id first, given back if the blocks run out. *)
            let meta = alloc_meta t in
            (p.extents <-
               match alloc_blocks t (blocks_for t size) with
               | extents -> extents
               | exception e ->
                   Bitpool.free t.h.metapool meta;
                   raise e);
            t.platform.Platform.consume (Config.costs.meta_ns + Config.costs.btree_ns);
            Metazone.write_object t.h.zone meta ~size (to_mz p.extents);
            ignore (Btree.insert t.h.btree p.key meta);
            if freed_meta >= 0 then Bitpool.free t.h.metapool freed_meta;
            free_extents t freed_extents)
      in
      Logrec.Phys { images }

let max_slots_of t = function
  | Sput { key; value; _ } -> Logrec.put_max_slots key (blocks_for t (Bytes.length value))
  | Sdelete key -> Logrec.put_max_slots key 1
  | Screate _ -> 4
  | Swrite w -> Logrec.put_max_slots w.key (blocks_for t w.size + 1)
  | Sphys _ -> t.cfg.log_slots / 4

(* Staged ops as append items; a rebuild first gives back what the previous
   build claimed (a put's claims are its stage's, kept). *)
let rec append_items_of t = function
  | [] -> []
  | s :: rest ->
      let build () =
        (match s with Sput _ -> () | _ -> free_claim t s);
        record_of t s
      in
      (staged_key s, max_slots_of t s, build) :: append_items_of t rest

(* Steps 6 and 7, cut apart so Table 3 can tell metadata from B-tree. *)
let put_structures ~span t key meta size extents =
  t.platform.Platform.consume Config.costs.meta_ns;
  Metazone.write_object t.h.zone meta ~size (to_mz extents);
  Span.seg span Span.S_structs;
  t.platform.Platform.consume Config.costs.btree_ns;
  ignore (Btree.insert t.h.btree key meta);
  Span.seg span Span.S_index

(* Steps 6-7 and cache maintenance for one appended record, after its
   reader drain; returns the ids its commit releases. A physical put
   applied its updates, releases included, in its build. *)
let apply_appended ~span t s op =
  match (s, op) with
  | (Sdelete _ | Screate _), Logrec.Noop _ -> None
  | Sphys _, _ -> Some (-1, [])
  | _ -> (
      let key = staged_key s in
      Dipper.wait_readers t.engine t.rc key;
      Span.seg span Span.S_ticket;
      match (s, op) with
      | Sput { value; _ }, Logrec.Put { size; meta; extents; freed_meta; freed_extents; _ } ->
          (* Called directly when unserialized: no closure per put. *)
          if serialized t then
            Platform.with_lock t.struct_lock (fun () ->
                put_structures ~span t key meta size extents)
          else put_structures ~span t key meta size extents;
          cache_write_through t key value size;
          Some (freed_meta, freed_extents)
      | _, Logrec.Delete { meta; extents; _ } ->
          with_structs t (fun () ->
              t.platform.Platform.consume Config.costs.btree_ns;
              ignore (Btree.delete t.h.btree key));
          cache_invalidate t key;
          Some (meta, extents)
      | _ ->
          (match op with
          | Logrec.Noop _ -> ()
          | _ -> with_structs t (fun () -> apply_op t.platform t.h op));
          (* Even an in-place owrite rewrites SSD bytes: the cached
             whole-object copy is stale either way. *)
          cache_invalidate t key;
          None)

let rec apply_all ~span t group ops =
  match (group, ops) with
  | s :: group, op :: ops ->
      let post = apply_appended ~span t s op in
      post :: apply_all ~span t group ops
  | _ -> []

(* Step 8 inside the window. An owrite rewrites the pages it covers in
   place, reading first a partial first or last page that held data. *)
let window_data ~span t = function
  | [ Swrite w ] ->
      let ps = page_bytes t in
      let first = w.off / ps and last = (w.off + w.size - 1) / ps in
      let scratch = Bytes.make ((last - first + 1) * ps) '\000' in
      let extents = if w.fresh = [] then w.old else w.old @ to_mz w.fresh in
      let fetch p =
        if p < Metazone.blocks_of w.old then
          move_pages ~span t Ssd.read ~runs:false scratch ~origin:first ~first:p ~n:1 0 extents
      in
      if w.off mod ps <> 0 then fetch first;
      if (w.off + w.size) mod ps <> 0 && last <> first then fetch last;
      Bytes.blit w.buf 0 scratch (w.off - (first * ps)) w.size;
      move_pages ~span t Ssd.write ~runs:false scratch ~origin:first ~first
        ~n:(last - first + 1) 0 extents;
      Span.seg span Span.S_data
  | [ Sphys { value; extents; _ } ] ->
      write_data ~span t extents value (Bytes.length value);
      Span.seg span Span.S_data
  | _ -> ()

(* Steps 5-8 of an appended group, but a transaction's payloads. *)
let apply_group ~span t group a =
  let posts = apply_all ~span t group (List.map Dipper.ticket_op (Dipper.members a)) in
  Span.seg span Span.S_structs;
  window_data ~span t group;
  posts

(* Commit-time releases: performed under the frontend lock so replay
   (which processes pool effects serially in LSN order) can never observe
   a block freed by record X yet allocated by a record younger than X. *)
let rec release_posts t = function
  | [] -> ()
  | Some (m, e) :: rest when m >= 0 || e <> [] ->
      Dipper.with_frontend_lock t.engine (fun () ->
          free_extents t e;
          if m >= 0 then Bitpool.free t.h.metapool m);
      release_posts t rest
  | _ :: rest -> release_posts t rest

(* Split a group into sub-batches of pairwise-distinct keys, each small
   enough to always fit the log. Distinct keys are required for
   correctness, not just to avoid self-conflict: a record's freed ids must
   come from state committed before its sub-batch, so that any surviving
   subset of the sub-batch replays against ids that were really allocated
   — if op B freed what same-sub-batch op A allocated and only B survived
   a crash, replay would free never-allocated ids. Physical logging
   captures its redo images per op, so there each op is a sub-batch. *)
let split_batches t group =
  let limit = if t.cfg.logging = Config.Physical then 0 else max 8 (t.cfg.Config.log_slots / 2) in
  (* [cur] holds [keys] in [slots] of log; [out] the sub-batches, reversed. *)
  let rec go out cur keys slots = function
    | [] -> List.rev (if cur = [] then out else List.rev cur :: out)
    | s :: rest ->
        let k = staged_key s and n = max_slots_of t s in
        if cur <> [] && (List.mem k keys || slots + n > limit) then
          go (List.rev cur :: out) [ s ] [ k ] n rest
        else go out (s :: cur) (k :: keys) (slots + n) rest
  in
  go [] [] [] 0 group

(* A transaction whose read-set went stale: nothing was appended. *)
exception Stale of string

(* A transaction's steps 5-9: its payload writes forked beside its
   structure updates, then its pass (which drops the context's
   reservations), the join, and its commit, which first waits out its
   dependencies. A payload write that raises after the pass abandons the
   group, so that its dependents fail rather than wait forever; its keys
   stay blocked to every other client. *)
let commit_txn ctx t span sub a =
  let io = Span.detach span in
  let posts =
    match
      par_iter t (puts_of sub) (write_staged ~span:io t) ~inline:(fun () ->
          let posts = apply_group ~span t sub a in
          Dipper.pass t.engine a ctx.holds;
          ctx.holds <- None;
          posts)
    with
    | posts -> posts
    | exception e ->
        Dipper.abandon t.engine a;
        raise e
  in
  Span.absorb span io;
  Span.seg span Span.S_data;
  Dipper.commit ~span t.engine a;
  posts

(* One sub-batch (distinct keys): one append, steps 5–8 per op, one
   commit, the releases. If the append raises or a transaction's
   validation fails, the claims of this and the [later] sub-batches go back. *)
let exec_sub_batch ?reads ctx t span ~later sub =
  let a =
    match append_items ~span ?reads ctx (append_items_of t sub) with
    | Ok a -> a
    | Error key ->
        unstage t sub;
        raise (Stale key)
    | exception e ->
        unstage t (sub @ later);
        raise e
  in
  let posts =
    match reads with
    | None ->
        let posts = apply_group ~span t sub a in
        Dipper.commit t.engine a;
        posts
    | Some _ -> commit_txn ctx t span sub a
  in
  Span.seg span (match (sub, reads) with [ _ ], None -> Span.S_fence | _ -> Span.S_commit);
  release_posts t posts;
  posts

(* The sub-batches append and commit in order, so each record's freed ids
   come from state the earlier sub-batches committed. A single op and a
   transaction are one sub-batch, with no split to run. *)
let rec exec_sub_batches ctx t span = function
  | [] -> []
  | [ sub ] -> exec_sub_batch ctx t span ~later:[] sub
  | sub :: rest ->
      let r = exec_sub_batch ctx t span ~later:(List.concat rest) sub in
      r @ exec_sub_batches ctx t span rest

let exec ?reads ctx t span group =
  match group with
  | _ :: _ :: _ when Option.is_none reads -> exec_sub_batches ctx t span (split_batches t group)
  | _ -> exec_sub_batch ?reads ctx t span ~later:[] group

(* One op's span and sample go by its kind; a batch has one [Batch] span
   and a sample per op; a transaction, the caller's span. *)
type writer = One | Batch | Txn

(* A caller-owned span (the replication façade's, a transaction's) takes
   the engine's segments and stalls but stays open, so post-return waits
   (backup acks) land in the same record and the partition invariant
   still holds. *)
let finish_own span sp = match span with None -> Span.finish sp | Some _ -> ()

(* A group's own span: none for a create, nor under physical logging for
   puts and batches (the Figure 9 ablation, measured by client latency). *)
let own_span t w group =
  let r = t.obs.Obs.spans in
  match (w, group) with
  | One, [ (Sput { key; _ } | Sdelete key | Swrite { key; _ }) as s ] ->
      let kind = match s with Sput _ -> Span.Put | Sdelete _ -> Span.Delete | _ -> Span.Write in
      Span.start r kind key
  | Batch, _ when t.cfg.logging = Config.Logical ->
      Span.start r ~n_ops:(List.length group) Span.Batch "(batch)"
  | _ -> Span.none

(* Every op observes the whole call's latency: nothing in a group is
   durable earlier. *)
let rec observe_group t dt = function
  | [] -> ()
  | s :: rest ->
      (match s with
      | Sput _ | Sphys _ -> Metrics.observe t.h_put dt
      | Sdelete _ -> Metrics.observe t.h_del dt
      | Swrite _ -> Metrics.observe t.h_write dt
      | Screate _ -> ());
      observe_group t dt rest

let close t span sp w group t0 =
  finish_own span sp;
  if w <> Txn then observe_group t (now t - t0) group

(* Returns what each op's commit released, in input order. *)
let write ?span ?reads ctx w group =
  check_ctx ctx;
  let t = ctx.store in
  match group with
  | [] -> []
  | _ -> (
      let t0 = now t in
      let sp = match span with Some s -> s | None -> own_span t w group in
      match
        (* Steps 4 and 8 before the append: claim the puts and, without a
           read-set, write them; a backup's group arrives claimed, written. *)
        if claim_group t group then begin
          Span.seg sp Span.S_stage;
          if w <> Txn then begin
            write_payloads ~span:sp t group;
            Span.seg sp Span.S_data
          end
        end;
        exec ?reads ctx t sp group
      with
      | posts ->
          close t span sp w group t0;
          posts
      | exception e ->
          close t span sp w group t0;
          raise e)

(* --- entry points: each one writer over the one bracket ------------------------ *)

let oput ?span ctx key value =
  check_key "oput" key;
  ignore (write ?span ctx One [ put_of ctx.store key value ])

(* A delete logs a logical record under either logging mode. *)
let odelete ?span ctx key =
  check_key "odelete" key;
  List.exists Option.is_some (write ?span ctx One [ Sdelete key ])

(* One Batch span covers a whole group commit; attribution weights it by
   op count (every op observes batch latency). *)
let obatch ?span ctx ops =
  List.map Option.is_some (write ?span ctx Batch (staged_of ctx.store "obatch" ops))

let exec_staged ?span ctx staged = List.map Option.is_some (write ?span ctx Batch staged)

let oput_batch ctx kvs = ignore (obatch ctx (List.map (fun (k, v) -> Bput (k, v)) kvs))

let odelete_batch ctx keys = obatch ctx (List.map (fun k -> Bdelete k) keys)

(* --- reads ----------------------------------------------------------------- *)

(* The one way out of the read count: a writer may be parked draining
   exactly this reader ([Dipper.wait_readers]). *)
let read_exit t key =
  Readcount.exit_reader t.rc key;
  Dipper.reader_exited t.engine

(* Reader protocol (§4.4): enter the read count, then back out and wait if
   a write on this name is in flight. A writer appends its record before
   draining the read count, so it only ever waits on readers that entered
   before its record appeared — and those readers never wait on it: no
   circular wait. A transaction's read ([pass]) goes past passed members
   (see [Dipper.pass]). A reservation holder raises [Would_wait] rather
   than wait on a NOOP. Returns the version the lookup observed. *)
let rec read_entry ~span ~pass ctx key =
  let t = ctx.store in
  Readcount.enter_reader t.rc key;
  match Dipper.lookup ~ctx:ctx.id ~pass t.engine key with
  | v -> v
  | exception Dipper.Busy tk ->
      read_exit t key;
      if Option.is_some ctx.holds && Dipper.holder_must_abort tk then begin
        let st = Dipper.stats t.engine in
        st.Dipper.txns_aborted <- st.Dipper.txns_aborted + 1;
        raise (Would_wait key)
      end;
      Dipper.wait_conflict ~span ~pass t.engine tk;
      read_entry ~span ~pass ctx key

(* Where a read delivers the object, and what it returns. *)
type _ sink =
  | Into : int sink  (* into the caller's buffer: the size, -1 if absent *)
  | Fresh : Bytes.t option sink  (* into a buffer of its own *)
  | Versioned : (int * Bytes.t option) sink  (* [Fresh], with the entry's version *)
  | View : (Bytes.t * int) option sink  (* the cache's own buffer on a hit, else [buf] *)
  | Exists : bool sink
  | Size : int sink
  | Range : int sink  (* [len] bytes from [off] into [buf], clipped at the end *)

let find_entry t key ~entry =
  match Btree.find t.h.btree key with
  | None -> (-1, [])
  | Some meta -> if entry then Metazone.read_object t.h.zone meta else (0, [])

(* The index half of a miss: the key's (size, extents), size -1 if absent;
   without [entry], the metadata read is skipped. Under CoW this runs
   under the structure guard: a B-tree split shrinks the child before the
   parent's cell goes in, and the parent write can yield in a CoW fault
   between the two, so an unguarded walk could miss a key that moved right
   (see [serialized]). Without CoW a reader needs no guard: every
   structure mutation is atomic between scheduling points, so the walk is
   called directly, with no closure per read. *)
let locate t key ~entry =
  if t.cfg.checkpoint = Config.Cow then
    Platform.with_lock t.struct_lock (fun () -> find_entry t key ~entry)
  else find_entry t key ~entry

(* The index probe plus a copy of [n] bytes, then the [S_index] cut. *)
let charge_lookup t sp n =
  t.platform.Platform.consume Config.costs.lookup_ns;
  copy_cost t n;
  Span.seg sp Span.S_index

(* A cache hit. Copies out BEFORE charging modeled costs: [consume] is a
   scheduling point, and a concurrent op's fill/write-through could evict
   and recycle the borrowed buffer during the yield. A view copies
   nothing: it hands out the borrowed buffer itself. *)
let rec from_cache : type r.
    t -> Span.t -> r sink -> int -> Bytes.t -> off:int -> len:int ->
    (Bytes.t * int) option -> r =
 fun t sp sink v buf ~off ~len hit ->
  let cbuf, clen = Option.get hit in
  match sink with
  | Into ->
      if Bytes.length buf < clen then
        invalid_arg "Dstore.oget_into: buffer shorter than the object";
      Bytes.blit cbuf 0 buf 0 clen;
      charge_lookup t sp clen;
      clen
  | Fresh ->
      let b = Bytes.sub cbuf 0 clen in
      charge_lookup t sp clen;
      Some b
  | Versioned -> (v, from_cache t sp Fresh v buf ~off ~len hit)
  | View ->
      charge_lookup t sp 0;
      hit
  | Range ->
      let n = if off >= clen then 0 else min len (clen - off) in
      if n > 0 then Bytes.blit cbuf off buf 0 n;
      charge_lookup t sp n;
      n
  | Exists -> true
  | Size -> clen

(* A whole object off the SSD into [buf], extent by extent, then the
   cache fill. *)
let read_whole t sp key extents buf size what =
  charge_lookup t sp 0;
  if Bytes.length buf < size then invalid_arg (what ^ ": buffer shorter than the object");
  if size > 0 then begin
    let n = blocks_for t size in
    let scratch = Bytes.create (n * page_bytes t) in
    move_pages ~span:sp t Ssd.read ~runs:true scratch ~origin:0 ~first:0 ~n 0 extents;
    Bytes.blit scratch 0 buf 0 size
  end;
  Span.seg sp Span.S_data;
  cache_fill ~span:sp t key buf size;
  buf

(* [n] > 0 bytes from [off], off the SSD page by page. A partial read
   cannot warm a whole-object cache, so it fills nothing. *)
let read_range t sp extents buf ~off n =
  charge_lookup t sp 0;
  let ps = page_bytes t in
  let first = off / ps and last = (off + n - 1) / ps in
  let scratch = Bytes.create ((last - first + 1) * ps) in
  move_pages ~span:sp t Ssd.read ~runs:false scratch ~origin:first ~first ~n:(last - first + 1) 0
    extents;
  Bytes.blit scratch (off - (first * ps)) buf 0 n;
  Span.seg sp Span.S_data;
  n

(* A miss, [located] in the index. Where nothing is read, the [S_index]
   cut charges nothing. *)
let rec from_index : type r.
    t -> Span.t -> r sink -> int -> string -> Bytes.t -> off:int -> len:int ->
    int * Metazone.extent list -> r =
 fun t sp sink v key buf ~off ~len ((size, extents) as located) ->
  match sink with
  | Into ->
      if size < 0 then (Span.seg sp Span.S_index; -1)
      else (ignore (read_whole t sp key extents buf size "Dstore.oget_into"); size)
  | Fresh ->
      if size < 0 then (Span.seg sp Span.S_index; None)
      else Some (read_whole t sp key extents (Bytes.create size) size "Dstore.oget")
  | Versioned -> (v, from_index t sp Fresh v key buf ~off ~len located)
  | View ->
      if size < 0 then (Span.seg sp Span.S_index; None)
      else Some (read_whole t sp key extents buf size "Dstore.oget_view", size)
  | Exists -> (Span.seg sp Span.S_index; size >= 0)
  | Size -> if size < 0 then raise (Object_not_found key) else (Span.seg sp Span.S_index; size)
  | Range ->
      if size < 0 then raise (Object_not_found key)
      else if off >= size then (Span.seg sp Span.S_index; 0)
      else read_range t sp extents buf ~off (min len (size - off))

let read_close t span sp kind t0 =
  finish_own span sp;
  Metrics.observe (if kind = Span.Read then t.h_read else t.h_get) (now t - t0)

(* Every read: enter the read count, take a cache hit or locate the object
   in the index, deliver it to [sink], leave. The span (the caller's, or a
   [Get] / [Read] one of its own) and the latency histogram close on every
   exit, a raise included, and the read count is left on every exit past
   the entry. Existence and size come from the index alone, so they leave
   the cache's hit counts and CLOCK bits alone. Only a versioned read
   passes; one that misses the cache waits for the pages of the passed
   write it is about to follow. *)
let read : type r.
    ?span:Span.t -> ctx -> r sink -> string -> Bytes.t -> off:int -> len:int -> r =
 fun ?span ctx sink key buf ~off ~len ->
  check_ctx ctx;
  let t = ctx.store in
  let t0 = now t in
  let kind = match sink with Size | Range -> Span.Read | _ -> Span.Get in
  let sp = match span with Some s -> s | None -> Span.start t.obs.Obs.spans kind key in
  let pass = match sink with Versioned -> true | _ -> false in
  match read_entry ~span:sp ~pass ctx key with
  | exception e ->
      read_close t span sp kind t0;
      raise e
  | v -> (
      Span.seg sp Span.S_ticket;
      match
        match match sink with Exists | Size -> None | _ -> cache_lookup t key with
        | Some _ as hit -> from_cache t sp sink v buf ~off ~len hit
        | None ->
            if pass then Dipper.wait_written t.engine key;
            from_index t sp sink v key buf ~off ~len
              (locate t key ~entry:(match sink with Exists -> false | _ -> true))
      with
      | r ->
          read_exit t key;
          read_close t span sp kind t0;
          r
      | exception e ->
          read_exit t key;
          read_close t span sp kind t0;
          raise e)

let oget_into ctx key buf = read ctx Into key buf ~off:0 ~len:0

let oget ctx key = read ctx Fresh key Bytes.empty ~off:0 ~len:0

let oget_view ctx key scratch = read ctx View key scratch ~off:0 ~len:0

let oexists ctx key = read ctx Exists key Bytes.empty ~off:0 ~len:0


(* --- filesystem-style API ----------------------------------------------------- *)

let oopen ctx name ?(create = true) mode =
  check_ctx ctx;
  check_key "oopen" name;
  if fst (locate ctx.store name ~entry:false) < 0 then begin
    if (not create) || mode = Rd then raise (Object_not_found name);
    ignore (write ctx One [ Screate { key = name; meta = -1 } ])
  end;
  { octx = ctx; name; mode; closed = false }

let check_obj o =
  if o.closed then invalid_arg "DStore: operation on closed object";
  check_ctx o.octx

let oclose o =
  check_obj o;
  o.closed <- true

let osize o =
  check_obj o;
  read o.octx Size o.name Bytes.empty ~off:0 ~len:0

let oread o buf ~size ~off =
  check_obj o;
  if o.mode = Wr then invalid_arg "DStore.oread: object opened write-only";
  check_range "oread" buf ~size ~off;
  if size = 0 then 0 else read o.octx Range o.name buf ~off ~len:size

let owrite ?span o buf ~size ~off =
  check_obj o;
  if o.mode = Rd then invalid_arg "DStore.owrite: object opened read-only";
  check_range "owrite" buf ~size ~off;
  if size = 0 then 0
  else begin
    ignore
      (write ?span o.octx One [ Swrite { key = o.name; buf; size; off; old = []; fresh = [] } ]);
    size
  end

(* --- advisory object locks (olock/ounlock, §4.5) ------------------------------- *)

let olock ctx name =
  check_ctx ctx;
  Dipper.lock ctx.store.engine ~ctx:ctx.id name

let ounlock ctx name =
  check_ctx ctx;
  if not (Dipper.unlock ctx.store.engine ~ctx:ctx.id name) then
    invalid_arg (Printf.sprintf "DStore.ounlock: %S is not locked" name)

(* --- OCC transaction write path (backend of lib/txn) --------------------------- *)

let key_version ctx key =
  check_ctx ctx;
  Dipper.key_version ctx.store.engine key

(* Version BEFORE value: if a commit lands between the two reads, the
   recorded version is stale and validation aborts the transaction —
   never the reverse interleaving (fresh version, old value), which
   validation could not detect. The version comes out of the reader
   entry's own lookup and the value out of the same reader window: one
   frontend-lock round and one index pass.

   A caller-owned [span] (a transaction's) takes the read's segments and
   ticket waits in place of a [Get] span of its own. *)
let oget_versioned ?span ctx key = read ?span ctx Versioned key Bytes.empty ~off:0 ~len:0

(* Reserve [keys] for the context, all or nothing (see [Dipper.reserve]);
   the context must hold none. *)
let reserve ?span ctx keys =
  check_ctx ctx;
  assert (Option.is_none ctx.holds);
  ctx.holds <- Some (Dipper.reserve ?span ctx.store.engine ~ctx:ctx.id keys)

let release ctx =
  match ctx.holds with
  | None -> ()
  | Some r ->
      Dipper.release ctx.store.engine r;
      ctx.holds <- None

(* A transaction is the write group with a read-set: [Dipper.append]
   validates it under the lock hold that appends the begin + members
   span, and only then do the payload writes run, beside the structure
   updates and the pass. Crash-safe because the span stays uncommitted
   until [Dipper.commit] persists its commit record after the join and
   after the commits of the transactions it took values from, recovery
   drops a span without one, and every other reader of a member waits on
   its ticket until then. *)
let txn_commit_writes ?span ctx ~reads ~writes =
  check_ctx ctx;
  let t = ctx.store in
  if t.cfg.logging <> Config.Logical then
    invalid_arg "DStore.txn_commit_writes: transactions require logical logging";
  let group = staged_of t "txn_commit_writes" writes in
  if group = [] then (* Read-only: validation is the whole commit. *)
    Result.map ignore (append_items ~reads ctx [])
  else
    match write ?span ~reads ctx Txn group with
    | _ -> Ok ()
    | exception Stale key -> Error key


(* --- introspection -------------------------------------------------------------- *)

let object_count t = Btree.length t.h.btree

let iter_names t f = Btree.iter t.h.btree (fun k _ -> f k)

let olist ctx ~prefix =
  check_ctx ctx;
  let t = ctx.store in
  let acc = ref [] in
  Btree.iter t.h.btree (fun k _ -> if String.starts_with ~prefix k then acc := k :: !acc);
  List.rev !acc

let footprint t =
  {
    dram = Dipper.dram_footprint t.engine;
    pmem = Dipper.pmem_footprint t.engine;
    ssd = Bitpool.allocated t.h.blockpool * page_bytes t;
  }

let cache_stats t = Option.map Cache.stats t.cache

let cache_clear t = Option.iter Cache.clear t.cache
