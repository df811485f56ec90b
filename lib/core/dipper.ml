open Dstore_platform
open Dstore_pmem
open Dstore_memory
module Obs = Dstore_obs.Obs
module Metrics = Dstore_obs.Metrics
module Span = Dstore_obs.Span

exception Log_full

exception Dependency_failed

type hooks = {
  format_structures : Space.t -> unit;
  prepare : Space.t -> Logrec.op -> unit;
  apply : Space.t -> Logrec.op -> unit;
}

type ticket = {
  mutable lsn : int;  (* 0 for a reservation, which is never logged *)
  mutable log_id : int;
  mutable slot : int;
  op : Logrec.op;
  entry : entry;  (* its key's; [blank] for a transaction's framing records *)
  mutable owner : int;  (* the context holding this lock or reservation, else 0 *)
  state : int Atomic.t;  (* [held], [passed], [failed] or [done_], maybe [barred] *)
}

(* One key of the per-key concurrency table ([t.keys]). *)
and entry = {
  mutable tickets : ticket list;  (* in-flight records and reservations, oldest first *)
  mutable version : int;  (* committed OCC version *)
  mutable waiters : waiter;  (* parked clients in stamp order, chained by [next] *)
}

(* A parked client, pooled, with a cond of its own so that a wake reaches
   exactly it; [awaits] is its ticket's [state], which must reach [until].
   Chains end in [nil]. *)
and waiter = {
  cond : Platform.cond;
  mutable seq : int;  (* park stamp: the wake order *)
  mutable awaits : int Atomic.t;
  mutable until : int;
  mutable ready : bool;
  mutable next : waiter;
}

(* A ticket's life, in its state word's low two bits: [held] once
   appended (or reserved), then for a transaction's member [passed]
   (structures applied, payloads still running), then [done_] (committed
   or released) or [failed] (it will never commit). A failed ticket stays
   on its key: only its dependents, which wait for [failed], see it end;
   every other client waits for [done_] and parks for good (fail-stop).
   [barred] is a bit on top: a client that may not pass found the ticket
   in its way, and no transaction may pass it either until it is done. *)
let held = 0

let passed = 1

let failed = 2

let done_ = 3

let barred = 4

let stage_of tk = Atomic.get tk.state land 3

(* Whether [tk]'s stage is [until] or later. *)
let reached tk until = stage_of tk >= until

(* A transaction may go past a passed ticket nobody barred. *)
let passable tk = Atomic.get tk.state = passed

(* Its values are visible but not durable: a transaction that takes them
   depends on it. *)
let applied tk =
  let s = stage_of tk in
  s = passed || s = failed

let no_cond = { Platform.wait = ignore; signal = ignore; broadcast = ignore }

let rec nil =
  { cond = no_cond; seq = 0; awaits = Atomic.make 0; until = 0; ready = false; next = nil }

(* Unknown keys and framing records. Never mutated. *)
let blank = { tickets = []; version = 0; waiters = nil }

type stats = {
  mutable checkpoints : int;
  mutable ckpt_total_ns : int;
  mutable ckpt_archive_ns : int;
  mutable ckpt_clone_ns : int;
  mutable ckpt_replay_ns : int;
  mutable ckpt_persist_ns : int;
  mutable ckpt_publish_ns : int;
  mutable ckpt_bytes_cloned : int;
  mutable ckpt_bytes_skipped : int;
  mutable ckpt_full_clones : int;
  mutable ckpt_delta_clones : int;
  mutable log_full_stalls : int;
  mutable conflict_waits : int;
  mutable records_appended : int;
  mutable batches_committed : int;
  mutable batch_records : int;
  mutable txns_committed : int;
  mutable txns_aborted : int;
  mutable txn_member_records : int;
  mutable records_replayed : int;
  mutable records_moved : int;
  mutable cow_faults : int;
  mutable recovery_metadata_ns : int;
  mutable recovery_replay_ns : int;
  mutable recovery_replayed_records : int;
}

let fresh_stats () =
  {
    checkpoints = 0;
    ckpt_total_ns = 0;
    ckpt_archive_ns = 0;
    ckpt_clone_ns = 0;
    ckpt_replay_ns = 0;
    ckpt_persist_ns = 0;
    ckpt_publish_ns = 0;
    ckpt_bytes_cloned = 0;
    ckpt_bytes_skipped = 0;
    ckpt_full_clones = 0;
    ckpt_delta_clones = 0;
    log_full_stalls = 0;
    conflict_waits = 0;
    records_appended = 0;
    batches_committed = 0;
    batch_records = 0;
    txns_committed = 0;
    txns_aborted = 0;
    txn_member_records = 0;
    records_replayed = 0;
    records_moved = 0;
    cow_faults = 0;
    recovery_metadata_ns = 0;
    recovery_replay_ns = 0;
    recovery_replayed_records = 0;
  }

(* --- device layout ------------------------------------------------------ *)

let align4k n = (n + 4095) land lnot 4095

type layout = {
  log_off : int array;
  log_bytes : int;
  space_off : int array;
  space_bytes : int;
  total : int;
}

let layout_of (cfg : Config.t) =
  let log_bytes = align4k (Oplog.region_bytes ~slots:cfg.log_slots) in
  let space_bytes = align4k cfg.space_bytes in
  let log0 = 4096 in
  let log1 = log0 + log_bytes in
  let space0 = log1 + log_bytes in
  let space1 = space0 + space_bytes in
  {
    log_off = [| log0; log1 |];
    log_bytes;
    space_off = [| space0; space1 |];
    space_bytes;
    total = space1 + space_bytes;
  }

let layout_bytes cfg = (layout_of cfg).total

(* --- copy-on-write barrier state ---------------------------------------- *)

let page_bytes = 4096

type cow = {
  mutable active : bool;
  mutable marked_pages : int;
  ro : Bytes.t;  (* one byte per volatile page: 1 = write-protected *)
  mutable remaining : int;
  mutable target_off : int;  (* device offset of the space being built *)
  sem : Platform.sem;  (* fault-handler serialization (mmap_sem) *)
}

type capture = { mutable buf : (int * string) list; mutable on : bool }

(* --- delta-clone dirty epochs -------------------------------------------- *)

(* One volatile dirty set per PMEM half: [pages] flags the 4 KB pages the
   last checkpoint replay wrote while that half was the clone target.
   Consumed by the *next* checkpoint, whose clone source this half has
   become: source and (new) target then differ by exactly these pages plus
   the grown used prefix. [valid] is false until a replay has completed
   with tracking on — fresh engine, recovered engine, aborted checkpoint —
   and an invalid set forces a full clone. *)
type delta = { mutable valid : bool; pages : Bytes.t }

type t = {
  platform : Platform.t;
  pm : Pmem.t;
  cfg : Config.t;
  hooks : hooks;
  lay : layout;
  logs : Oplog.t array;
  mutable active_log : int;
  mutable next_base : int;  (* lsn base for the next log reset *)
  root : Root.t;
  mutable volatile : Space.t;
  volatile_raw : Bytes.t;
  mutable current_space : int;
  mutable last_applied : int;
  in_flight : (int, ticket) Hashtbl.t;  (* LSN -> ticket: what a log swap re-homes *)
  keys : (string, entry) Hashtbl.t;
      (* The per-key concurrency table: [tickets] and [version] under the
         frontend lock, [waiters] under [wait_lock]. Entries are never
         removed; versions restart at 0 after recovery, which is safe
         because read observations never survive a crash. *)
  mutable next_txn : int;  (* transaction ids, engine-local *)
  lock : Platform.mutex;
  cond_ckpt : Platform.cond;  (* manager sleeps here *)
  cond_space : Platform.cond;  (* writers wait for log space *)
  cond_done : Platform.cond;  (* checkpoint_now waits here *)
  wait_lock : Platform.mutex;
      (* Guards the entries' waiters, the waiter pool and the drain wait,
         never the frontend lock. A waker reads a waiter count
         without it and takes it only to wake, so an unwatched commit or
         reader exit costs one atomic load; the counts are atomic so that,
         on OS threads, a waker sees a waiter that has not yet re-checked
         its predicate. *)
  ticket_waiters : int Atomic.t;
  mutable spare : waiter;  (* the waiter pool, chained by [next] *)
  mutable parks : int;  (* parks so far: each waiter's stamp, so wakes run in park order *)
  cond_drain : Platform.cond;  (* writers draining a key's readers *)
  drain_waiters : int Atomic.t;
  mutable ckpt_needed : bool;
  mutable ckpt_running : bool;
  mutable stopping : bool;
  cow : cow;
  cap : capture;
  deltas : delta array;  (* one dirty epoch per PMEM half *)
  st : stats;
  obs : Obs.t;
  batch_fill : Metrics.histo;  (* records per multi-record commit *)
}

let volatile t = t.volatile

let stats t = t.st

let obs t = t.obs

(* Verification seam (dstore_check): read-only access to the persistent
   pieces a recovered-state checker must inspect. *)
let log_handles t = Array.copy t.logs

let root_snapshot t = Root.read t.root

(* Engine statistics surface on the registry as callback gauges over the
   live stats record: the record stays the single always-on source of
   truth (its counters carry protocol meaning and must not be silenced by
   an observability opt-out), and the unified export reads it lazily. *)
let register_stat_views m (st : stats) =
  let module M = Metrics in
  M.gauge_fn m "dipper.checkpoints" (fun () -> st.checkpoints);
  M.gauge_fn m "dipper.ckpt_total_ns" (fun () -> st.ckpt_total_ns);
  M.gauge_fn m "dipper.ckpt_archive_ns" (fun () -> st.ckpt_archive_ns);
  M.gauge_fn m "dipper.ckpt_clone_ns" (fun () -> st.ckpt_clone_ns);
  M.gauge_fn m "dipper.ckpt_replay_ns" (fun () -> st.ckpt_replay_ns);
  M.gauge_fn m "dipper.ckpt_persist_ns" (fun () -> st.ckpt_persist_ns);
  M.gauge_fn m "dipper.ckpt_publish_ns" (fun () -> st.ckpt_publish_ns);
  M.gauge_fn m "dipper.ckpt_bytes_cloned" (fun () -> st.ckpt_bytes_cloned);
  M.gauge_fn m "dipper.ckpt_bytes_skipped" (fun () -> st.ckpt_bytes_skipped);
  M.gauge_fn m "dipper.ckpt_full_clones" (fun () -> st.ckpt_full_clones);
  M.gauge_fn m "dipper.ckpt_delta_clones" (fun () -> st.ckpt_delta_clones);
  M.gauge_fn m "dipper.log_full_stalls" (fun () -> st.log_full_stalls);
  M.gauge_fn m "dipper.conflict_waits" (fun () -> st.conflict_waits);
  M.gauge_fn m "dipper.records_appended" (fun () -> st.records_appended);
  M.gauge_fn m "dipper.batches_committed" (fun () -> st.batches_committed);
  M.gauge_fn m "dipper.batch_records" (fun () -> st.batch_records);
  M.gauge_fn m "dipper.txns_committed" (fun () -> st.txns_committed);
  M.gauge_fn m "dipper.txns_aborted" (fun () -> st.txns_aborted);
  M.gauge_fn m "dipper.txn_member_records" (fun () -> st.txn_member_records);
  M.gauge_fn m "dipper.records_replayed" (fun () -> st.records_replayed);
  M.gauge_fn m "dipper.records_moved" (fun () -> st.records_moved);
  M.gauge_fn m "dipper.cow_faults" (fun () -> st.cow_faults);
  M.gauge_fn m "dipper.recovery_metadata_ns" (fun () -> st.recovery_metadata_ns);
  M.gauge_fn m "dipper.recovery_replay_ns" (fun () -> st.recovery_replay_ns);
  M.gauge_fn m "dipper.recovery_replayed_records" (fun () ->
      st.recovery_replayed_records)

let ticket_op tk = tk.op

(* --- volatile arena wrapper --------------------------------------------- *)

(* The volatile space's Mem is wrapped with (a) the CoW write barrier: a
   store to a write-protected page copies the page to the PMEM target
   first — the "page fault handler" of §4.5 — and (b) the physical-logging
   capture used by the Figure 9 naïve baseline. *)
let cow_fault platform pm cow raw page =
  cow.sem.Platform.acquire ();
  if cow.active && page < cow.marked_pages && Bytes.get cow.ro page = '\001'
  then begin
    (* Fault trap + TLB shootdown, then the page copy — serialized by the
       fault handler (mmap_sem), which is where CoW's tail comes from. *)
    platform.Platform.consume Config.costs.cow_fault_ns;
    let off = page * page_bytes in
    Pmem.blit_from_bytes pm raw ~src:off ~dst:(cow.target_off + off)
      ~len:page_bytes;
    Pmem.persist pm (cow.target_off + off) page_bytes;
    Bytes.set cow.ro page '\000';
    cow.remaining <- cow.remaining - 1
  end;
  cow.sem.Platform.release ()

let wrap_volatile platform pm cow cap st (base : Mem.t) raw : Mem.t =
  let pre off len =
    if cow.active then begin
      let first = off / page_bytes and last = (off + len - 1) / page_bytes in
      for p = first to min last (cow.marked_pages - 1) do
        if Bytes.get cow.ro p = '\001' then begin
          st.cow_faults <- st.cow_faults + 1;
          cow_fault platform pm cow raw p
        end
      done
    end
  in
  let post off len =
    if cap.on then cap.buf <- (off, Mem.read_string base ~off ~len) :: cap.buf
  in
  {
    base with
    set_u8 = (fun o v -> pre o 1; base.Mem.set_u8 o v; post o 1);
    set_u16 = (fun o v -> pre o 2; base.Mem.set_u16 o v; post o 2);
    set_u32 = (fun o v -> pre o 4; base.Mem.set_u32 o v; post o 4);
    set_u64 = (fun o v -> pre o 8; base.Mem.set_u64 o v; post o 8);
    blit_from_bytes =
      (fun b ~src ~dst ~len ->
        pre dst len;
        base.Mem.blit_from_bytes b ~src ~dst ~len;
        post dst len);
    blit_within =
      (fun ~src ~dst ~len ->
        pre dst len;
        base.Mem.blit_within ~src ~dst ~len;
        post dst len);
    fill =
      (fun off len v ->
        pre off len;
        base.Mem.fill off len v;
        post off len);
  }

(* --- construction -------------------------------------------------------- *)

let space_mem t i =
  Mem.of_pmem t.pm ~off:t.lay.space_off.(i) ~len:t.lay.space_bytes

let shadow_space t = Space.attach (space_mem t t.current_space)

let make_engine ?obs platform pm (cfg : Config.t) hooks root =
  let obs =
    match obs with
    | Some o -> o
    | None ->
        Obs.create ~enabled:cfg.Config.obs_enabled
          ~now:(fun () -> platform.Platform.now ())
          ()
  in
  Pmem.attach_obs pm obs;
  (* Checkpoint-interference blame needs no per-device plumbing: span
     periods sample the shared bandwidth domain's bulk-busy clock. *)
  Span.set_ambient obs.Obs.spans (fun () -> Pmem.bulk_busy_ns pm);
  let lay = layout_of cfg in
  if Pmem.size pm < lay.total then
    invalid_arg
      (Printf.sprintf "Dipper: device too small (%d < %d)" (Pmem.size pm)
         lay.total);
  let raw = Bytes.make cfg.space_bytes '\000' in
  let cow =
    {
      active = false;
      marked_pages = 0;
      ro = Bytes.make (cfg.space_bytes / page_bytes) '\000';
      remaining = 0;
      target_off = 0;
      sem = platform.Platform.new_sem 1;
    }
  in
  let cap = { buf = []; on = false } in
  let space_pages = lay.space_bytes / page_bytes in
  let deltas =
    Array.init 2 (fun _ -> { valid = false; pages = Bytes.make space_pages '\000' })
  in
  let st = fresh_stats () in
  register_stat_views obs.Obs.metrics st;
  let logs =
    Array.map
      (fun off ->
        Oplog.attach ~obs ~fault:cfg.Config.fault pm ~off ~slots:cfg.log_slots)
      lay.log_off
  in
  ( {
      platform;
      pm;
      cfg;
      hooks;
      lay;
      logs;
      active_log = 0;
      next_base = 0;
      root;
      (* Placeholder until the real volatile space is built below. *)
      volatile = Space.format (Mem.dram 4096);
      volatile_raw = raw;
      current_space = 0;
      last_applied = 0;
      in_flight = Hashtbl.create 64;
      keys = Hashtbl.create 256;
      next_txn = 1;
      lock = platform.Platform.new_mutex ();
      cond_ckpt = platform.Platform.new_cond ();
      cond_space = platform.Platform.new_cond ();
      cond_done = platform.Platform.new_cond ();
      wait_lock = platform.Platform.new_mutex ();
      ticket_waiters = Atomic.make 0;
      spare = nil;
      parks = 0;
      cond_drain = platform.Platform.new_cond ();
      drain_waiters = Atomic.make 0;
      ckpt_needed = false;
      ckpt_running = false;
      stopping = false;
      cow;
      cap;
      deltas;
      st;
      obs;
      batch_fill = Metrics.histogram obs.Obs.metrics "dipper.batch_fill";
    },
    raw,
    cow,
    cap )

let is_initialized pm = Root.is_initialized pm ~off:0

(* --- checkpoint machinery ------------------------------------------------ *)

let root_state t ~in_progress ~archived =
  {
    Root.current_space = t.current_space;
    active_log = t.active_log;
    ckpt_in_progress = in_progress;
    ckpt_archived_log = archived;
    last_applied_lsn = t.last_applied;
  }

(* The in-flight records in LSN order. Call under the frontend lock. *)
let live_tickets t =
  Hashtbl.fold (fun _ tk acc -> tk :: acc) t.in_flight []
  |> List.sort (fun a b -> compare a.lsn b.lsn)

(* Swap active/archived logs and re-home uncommitted records (§3.5) in
   place: the tickets keep their key entries and waiters. The moved
   records are written at consecutive slots in LSN order and persisted
   as one group, under the lock, so a commit persisting only their
   commit lines cannot leave a torn committed record. The standby log
   must already be reset. Called under the frontend lock. *)
let swap_logs t =
  let arch = t.active_log in
  let standby = 1 - arch in
  let nl = t.logs.(standby) in
  let tickets = live_tickets t in
  let records = List.length tickets in
  (* The whole moved span is reserved before anything changes. It fits:
     the records come from a log of the same capacity, and [nl] is
     empty. *)
  let first =
    if records = 0 then 0
    else Oplog.reserve nl (List.fold_left (fun n tk -> n + Logrec.slots_needed tk.op) 0 tickets)
  in
  assert (first >= 0);
  t.active_log <- standby;
  Root.publish t.root (root_state t ~in_progress:true ~archived:arch);
  Hashtbl.reset t.in_flight;
  let (_ : int) =
    List.fold_left
      (fun slot tk ->
        let lsn = Oplog.lsn_base nl + slot in
        Oplog.write_record nl ~slot ~lsn tk.op;
        tk.log_id <- standby;
        tk.slot <- slot;
        tk.lsn <- lsn;
        Hashtbl.add t.in_flight lsn tk;
        slot + Logrec.slots_needed tk.op)
      first tickets
  in
  if records > 0 then Oplog.persist nl ~slot:first ~records;
  t.st.records_moved <- t.st.records_moved + records;
  arch

(* Replay [entries] onto [space] one record at a time in LSN order: its
   pool effects, then its structure effects. A physical record's images
   carry pool bytes too, so a log that mixes them with logical records
   (physical puts, logical deletes) must replay exactly in this order. *)
let replay_serial t space entries =
  List.iter
    (fun e ->
      t.hooks.prepare space e.Oplog.op;
      t.hooks.apply space e.Oplog.op)
    entries

(* Replay [entries] onto [shadow] with a worker pool. Operations on the
   same key hash to the same worker, preserving conflict order; across
   workers, order is free (observational equivalence, §3.7). Physical
   records have no key and are order-sensitive, so they force one worker. *)
let replay_pool t shadow entries =
  let has_phys =
    List.exists
      (fun e -> match e.Oplog.op with Logrec.Phys _ -> true | _ -> false)
      entries
  in
  let workers = if has_phys then 1 else max 1 t.cfg.checkpoint_workers in
  if entries = [] then ()
  else if workers = 1 then begin
    replay_serial t shadow entries;
    t.st.records_replayed <- t.st.records_replayed + List.length entries
  end
  else begin
    (* Phase 1, serial in LSN order: allocation-pool effects. These are
       the steps the frontend performed inside its critical section, so
       their order is the log order; they touch nothing the parallel
       phase reads. *)
    List.iter (fun e -> t.hooks.prepare shadow e.Oplog.op) entries;
    let buckets = Array.make workers [] in
    List.iter
      (fun e ->
        let b =
          match Logrec.op_key e.Oplog.op with
          | Some k -> Hashtbl.hash k mod workers
          | None -> 0
        in
        buckets.(b) <- e :: buckets.(b))
      entries;
    let m = t.platform.Platform.new_mutex () in
    let c = t.platform.Platform.new_cond () in
    let pending = ref 0 in
    Array.iteri
      (fun i bucket ->
        let bucket = List.rev bucket in
        if bucket <> [] then begin
          incr pending;
          t.platform.Platform.spawn
            (Printf.sprintf "ckpt-worker-%d" i)
            (fun () ->
              List.iter
                (fun e ->
                  t.hooks.apply shadow e.Oplog.op;
                  t.st.records_replayed <- t.st.records_replayed + 1)
                bucket;
              Platform.with_lock m (fun () ->
                  decr pending;
                  c.Platform.signal ()))
        end)
      buckets;
    Platform.with_lock m (fun () ->
        while !pending > 0 do
          c.Platform.wait m
        done)
  end

let space_used_raw t i =
  (* Read the Space header fields directly; an unformatted half counts 0. *)
  let off = t.lay.space_off.(i) in
  let magic = Pmem.get_u64 t.pm off in
  if magic = 0 then 0 else Pmem.get_u64 t.pm (off + 16)

(* Clone the current shadow space into the other PMEM half wholesale,
   charging bandwidth costs, and return it attached. *)
let clone_full t ~target =
  let src = Space.attach (space_mem t t.current_space) in
  let n = Space.used_bytes src in
  Pmem.bulk_read_cost t.pm n;
  t.st.ckpt_bytes_cloned <- t.st.ckpt_bytes_cloned + n;
  t.st.ckpt_full_clones <- t.st.ckpt_full_clones + 1;
  Space.copy_into src (space_mem t target)

let space_pages t = t.lay.space_bytes / page_bytes

(* Flag every page intersecting [0, upto) in [set]. *)
let mark_prefix set ~upto =
  if upto > 0 then Bytes.fill set 0 (((upto - 1) / page_bytes) + 1) '\001'

(* Delta clone: copy into [target] only the pages the previous checkpoint's
   replay dirtied in the source half (its dirty epoch) plus the grown used
   prefix. Falls back to a full copy whenever the epoch can't vouch for the
   target — no completed tracked replay since this process started (dirty
   sets are volatile), or a target half that isn't a formatted space with a
   sane used prefix. Either way [copyset] ends up flagging every page this
   clone wrote, which is what the persist phase must flush. *)
let clone_delta t ~target ~copyset =
  let src_epoch = t.deltas.(t.current_space) in
  let tgt_used = space_used_raw t target in
  let src = Space.attach (space_mem t t.current_space) in
  let src_used = Space.used_bytes src in
  if
    (not src_epoch.valid)
    || tgt_used < Space.header_bytes
    || tgt_used > src_used
  then begin
    let shadow = clone_full t ~target in
    mark_prefix copyset ~upto:src_used;
    shadow
  end
  else begin
    let is_dirty p = Bytes.get src_epoch.pages p = '\001' in
    let on_page p = Bytes.set copyset p '\001' in
    let shadow, copied =
      Pmem.with_bulk t.pm (fun () ->
          let shadow, copied =
            Space.copy_delta src (space_mem t target) ~page_bytes ~is_dirty
              ~on_page
          in
          Pmem.bulk_read_cost t.pm copied;
          (shadow, copied))
    in
    t.st.ckpt_bytes_cloned <- t.st.ckpt_bytes_cloned + copied;
    t.st.ckpt_bytes_skipped <- t.st.ckpt_bytes_skipped + max 0 (src_used - copied);
    t.st.ckpt_delta_clones <- t.st.ckpt_delta_clones + 1;
    shadow
  end

(* Persist exactly the pages this checkpoint wrote in the target half —
   the cloned pages plus the pages the replay dirtied — as coalesced runs
   under one bulk registration, then a single fence. The union covers
   every byte stored into the half since its last publish, so this is the
   delta analogue of [Space.persist_used]. *)
let persist_delta t ~target ~copyset shadow =
  let epoch = t.deltas.(target) in
  let used = Space.used_bytes shadow in
  let npages = min (space_pages t) ((used + page_bytes - 1) / page_bytes) in
  let base = t.lay.space_off.(target) in
  let written p =
    Bytes.get copyset p = '\001' || Bytes.get epoch.pages p = '\001'
  in
  Pmem.with_bulk t.pm (fun () ->
      let p = ref 0 in
      while !p < npages do
        if written !p then begin
          let q = ref !p in
          while !q + 1 < npages && written (!q + 1) do incr q done;
          let off = !p * page_bytes in
          let len = min (((!q + 1) * page_bytes) - off) (t.lay.space_bytes - off) in
          Pmem.flush t.pm (base + off) len;
          p := !q + 1
        end
        else incr p
      done);
  Pmem.fence t.pm

let finish_checkpoint t ~target ~arch =
  Platform.with_lock t.lock (fun () ->
      t.current_space <- target;
      t.last_applied <-
        Oplog.lsn_base t.logs.(arch) + Oplog.capacity t.logs.(arch) - 1;
      Root.publish t.root (root_state t ~in_progress:false ~archived:arch))

(* One full DIPPER checkpoint cycle (§3.5), phase-timed. Under delta
   clones the replay runs over a write-tracking view of the target half:
   the recorded pages become that half's dirty epoch, consumed when it
   turns into the clone source next checkpoint. Tracking stays on even
   when this clone fell back to a full copy — any clone leaves target ==
   source, which is all the next delta needs. The epoch is only marked
   valid after the persist pass, so an aborted checkpoint (crash harness)
   leaves it invalid and the redo falls back to a full clone. *)
let dipper_checkpoint t sp =
  let now () = t.platform.Platform.now () in
  let t0 = now () in
  let standby = 1 - t.active_log in
  Oplog.reset t.logs.(standby) ~lsn_base:t.next_base;
  t.next_base <- t.next_base + t.cfg.log_slots;
  let arch = Platform.with_lock t.lock (fun () -> swap_logs t) in
  let t1 = now () in
  t.st.ckpt_archive_ns <- t.st.ckpt_archive_ns + (t1 - t0);
  Span.seg sp Span.S_ckpt_archive;
  let target = 1 - t.current_space in
  let delta_cfg = t.cfg.Config.ckpt_clone = Config.Delta in
  let copyset =
    if delta_cfg then Bytes.make (space_pages t) '\000' else Bytes.empty
  in
  let shadow =
    if not delta_cfg then clone_full t ~target
    else begin
      let (_ : Space.t) = clone_delta t ~target ~copyset in
      (* Start the target's next dirty epoch and replay through a tracked
         view of the half, so every structure write lands in it. *)
      let epoch = t.deltas.(target) in
      Bytes.fill epoch.pages 0 (Bytes.length epoch.pages) '\000';
      epoch.valid <- false;
      let mark off len =
        let first = off / page_bytes and last = (off + len - 1) / page_bytes in
        for p = first to min last (Bytes.length epoch.pages - 1) do
          Bytes.set epoch.pages p '\001'
        done
      in
      let note =
        (* Skip_dirty_track loses the replay's dirt entirely: the next delta
           clone publishes a half missing this checkpoint's structure
           updates — the bug class the checker must catch. *)
        if t.cfg.Config.fault = Config.Skip_dirty_track then fun _ _ -> ()
        else mark
      in
      Space.attach (Mem.tracked (space_mem t target) ~note)
    end
  in
  let entries = Oplog.committed t.logs.(arch) ~above:t.last_applied in
  let t2 = now () in
  t.st.ckpt_clone_ns <- t.st.ckpt_clone_ns + (t2 - t1);
  Span.seg sp Span.S_ckpt_clone;
  replay_pool t shadow entries;
  let t3 = now () in
  t.st.ckpt_replay_ns <- t.st.ckpt_replay_ns + (t3 - t2);
  Span.seg sp Span.S_ckpt_replay;
  if delta_cfg then begin
    persist_delta t ~target ~copyset shadow;
    t.deltas.(target).valid <- true
  end
  else Space.persist_used shadow;
  let t4 = now () in
  t.st.ckpt_persist_ns <- t.st.ckpt_persist_ns + (t4 - t3);
  Span.seg sp Span.S_ckpt_persist;
  finish_checkpoint t ~target ~arch;
  t.st.ckpt_publish_ns <- t.st.ckpt_publish_ns + (now () - t4);
  Span.seg sp Span.S_ckpt_publish

(* One CoW checkpoint cycle (§4.5): snapshot the volatile space by page
   copy instead of log replay. The archived log is still swapped out (its
   effects are contained in the snapshot). *)
let cow_checkpoint t sp =
  let now () = t.platform.Platform.now () in
  let t0 = now () in
  let standby = 1 - t.active_log in
  Oplog.reset t.logs.(standby) ~lsn_base:t.next_base;
  t.next_base <- t.next_base + t.cfg.log_slots;
  let target = 1 - t.current_space in
  let arch =
    Platform.with_lock t.lock (fun () ->
        let arch = swap_logs t in
        (* Mark: every used page becomes read-only. Fast — a flag sweep. *)
        let pages =
          (Space.used_bytes t.volatile + page_bytes - 1) / page_bytes
        in
        t.cow.target_off <- t.lay.space_off.(target);
        t.cow.marked_pages <- pages;
        t.cow.remaining <- pages;
        Bytes.fill t.cow.ro 0 pages '\001';
        t.cow.active <- true;
        arch)
  in
  let t1 = now () in
  t.st.ckpt_archive_ns <- t.st.ckpt_archive_ns + (t1 - t0);
  Span.seg sp Span.S_ckpt_archive;
  (* Background copier: walk pages; clients racing us absorb faults. The
     copier persists each page as it goes, so the whole copy loop counts
     as the clone+persist phases combined; it is booked under clone. *)
  for p = 0 to t.cow.marked_pages - 1 do
    if Bytes.get t.cow.ro p = '\001' then
      cow_fault t.platform t.pm t.cow t.volatile_raw p
  done;
  t.cow.active <- false;
  let t2 = now () in
  t.st.ckpt_clone_ns <- t.st.ckpt_clone_ns + (t2 - t1);
  Span.seg sp Span.S_ckpt_clone;
  finish_checkpoint t ~target ~arch;
  t.st.ckpt_publish_ns <- t.st.ckpt_publish_ns + (now () - t2);
  Span.seg sp Span.S_ckpt_publish

let do_checkpoint t =
  let t0 = t.platform.Platform.now () in
  let sp = Span.start t.obs.Obs.spans Span.Checkpoint "ckpt" in
  (match t.cfg.checkpoint with
  | Config.Dipper -> dipper_checkpoint t sp
  | Config.Cow -> cow_checkpoint t sp
  | Config.No_checkpoint -> ());
  Span.finish sp;
  t.st.checkpoints <- t.st.checkpoints + 1;
  t.st.ckpt_total_ns <- t.st.ckpt_total_ns + (t.platform.Platform.now () - t0)

let manager_loop t () =
  let continue_ = ref true in
  while !continue_ do
    let should_run =
      Platform.with_lock t.lock (fun () ->
          while not (t.ckpt_needed || t.stopping) do
            t.cond_ckpt.Platform.wait t.lock
          done;
          if t.stopping then false
          else begin
            t.ckpt_needed <- false;
            t.ckpt_running <- true;
            true
          end)
    in
    if not should_run then continue_ := false
    else begin
      do_checkpoint t;
      Platform.with_lock t.lock (fun () ->
          t.ckpt_running <- false;
          t.cond_done.Platform.broadcast ();
          t.cond_space.Platform.broadcast ())
    end
  done

let spawn_manager t =
  if t.cfg.checkpoint <> Config.No_checkpoint then
    t.platform.Platform.spawn "dipper-ckpt-manager" (manager_loop t)

(* --- public lifecycle ----------------------------------------------------- *)

let create ?obs platform pm cfg hooks =
  let root =
    Root.init pm ~off:0
      {
        Root.current_space = 0;
        active_log = 0;
        ckpt_in_progress = false;
        ckpt_archived_log = 0;
        last_applied_lsn = 0;
      }
  in
  let t, raw, cow, cap = make_engine ?obs platform pm cfg hooks root in
  let base = Mem.of_bytes raw in
  let wrapped = wrap_volatile platform pm cow cap t.st base raw in
  let volatile = Space.format wrapped in
  hooks.format_structures volatile;
  t.volatile <- volatile;
  (* Shadow space 0: identical structure, created by the same code. *)
  let shadow = Space.format (space_mem t 0) in
  hooks.format_structures shadow;
  Space.persist_used shadow;
  Oplog.reset t.logs.(0) ~lsn_base:1;
  Oplog.reset t.logs.(1) ~lsn_base:(1 + cfg.log_slots);
  t.next_base <- 1 + (2 * cfg.log_slots);
  spawn_manager t;
  t

let recover ?obs platform pm cfg hooks =
  let root = Root.attach pm ~off:0 in
  let t, raw, cow, cap = make_engine ?obs platform pm cfg hooks root in
  let t0 = platform.Platform.now () in
  let sp = Span.start t.obs.Obs.spans Span.Recovery "recover" in
  let rs = Root.read root in
  t.active_log <- rs.Root.active_log;
  t.current_space <- rs.Root.current_space;
  t.last_applied <- rs.Root.last_applied_lsn;
  (* Phase 1: if a checkpoint was interrupted, redo it from the old shadow
     copies (§3.6) — identical for DIPPER and CoW configurations. *)
  if rs.Root.ckpt_in_progress then begin
    let arch = rs.Root.ckpt_archived_log in
    let target = 1 - t.current_space in
    (* Always a full clone: the dirty epochs died with the crash. *)
    let shadow = clone_full t ~target in
    let entries = Oplog.committed t.logs.(arch) ~above:t.last_applied in
    replay_serial t shadow entries;
    t.st.records_replayed <- t.st.records_replayed + List.length entries;
    Space.persist_used shadow;
    finish_checkpoint t ~target ~arch
  end;
  (* Phase 2: rebuild the volatile space — bulk copy of the current shadow
     (the "replicate the PMEM allocator state in the DRAM allocator" step). *)
  let pspace = Space.attach (space_mem t t.current_space) in
  let used = Space.used_bytes pspace in
  Pmem.bulk_read_cost pm used;
  let base = Mem.of_bytes raw in
  let wrapped = wrap_volatile platform pm cow cap t.st base raw in
  t.volatile <- Space.copy_into pspace wrapped;
  t.st.recovery_metadata_ns <- platform.Platform.now () - t0;
  Span.seg sp Span.S_rec_metadata;
  (* Phase 3: replay committed records beyond the watermark from both logs
     in LSN order (robust to a crash landing anywhere around a swap).
     [Oplog.committed] is the replay-visibility filter the checkpoint
     shares: a span's members surface as committed iff its Txn_commit
     record persisted — the pending-transaction buffer of §3.6 extended
     to multi-key spans — and committed records beyond the watermark,
     minus Noops, are kept. *)
  let t1 = platform.Platform.now () in
  let entries =
    Oplog.committed t.logs.(0) ~above:t.last_applied
    @ Oplog.committed t.logs.(1) ~above:t.last_applied
    |> List.sort (fun a b -> compare a.Oplog.lsn b.Oplog.lsn)
  in
  replay_serial t t.volatile entries;
  t.st.recovery_replayed_records <-
    t.st.recovery_replayed_records + List.length entries;
  t.st.recovery_replay_ns <- platform.Platform.now () - t1;
  Span.seg sp Span.S_rec_replay;
  (* Resume appending after the last valid record of the active log. *)
  Oplog.recover_tail t.logs.(t.active_log);
  t.next_base <-
    max
      (Oplog.lsn_base t.logs.(0))
      (Oplog.lsn_base t.logs.(1))
    + cfg.log_slots;
  Span.finish sp;
  spawn_manager t;
  t

let stop t =
  Platform.with_lock t.lock (fun () ->
      t.stopping <- true;
      t.cond_ckpt.Platform.broadcast ())

(* --- the per-key table -------------------------------------------------------- *)

(* What a lookup found: the ticket a client must wait out. *)
exception Busy of ticket

(* Call the lookups under the frontend lock. *)
let find_entry t key =
  match Hashtbl.find t.keys key with e -> e | exception Not_found -> blank

let entry_of t key =
  match Hashtbl.find t.keys key with
  | e -> e
  | exception Not_found ->
      let e = { tickets = []; version = 0; waiters = nil } in
      Hashtbl.add t.keys key e;
      e

(* [ctx] owns the ticket: an advisory lock or a reservation it took. *)
let owns ctx tk = tk.owner <> 0 && tk.owner = ctx

(* The oldest ticket [ctx] does not own and, when [pass], may not go
   past either. *)
let rec foreign ctx ~pass = function
  | [] -> None
  | tk :: rest ->
      if owns ctx tk || (pass && passable tk) then foreign ctx ~pass rest else Some tk

(* A client that may not pass found the key busy: bar every ticket on it
   that it does not own, so that no transaction passes them while it
   waits and a stream of passing transactions cannot starve it. A bar
   lost to a concurrent commit is moot. Call under the frontend lock. *)
let rec bar ctx = function
  | [] -> ()
  | tk :: rest ->
      let s = Atomic.get tk.state in
      if (not (owns ctx tk)) && s land 3 < done_ then
        ignore (Atomic.compare_and_set tk.state s (s lor barred));
      bar ctx rest

(* [foreign], barring the key's tickets when a client that may not pass
   meets one. *)
let blocking ctx ~pass e =
  match foreign ctx ~pass e.tickets with
  | Some _ as busy ->
      if not pass then bar ctx e.tickets;
      busy
  | None -> None

(* The first conflict on the items' keys, in item order. Allocates
   nothing when there is none. *)
let rec items_conflict t ~ctx ~pass = function
  | [] -> None
  | (key, _, _) :: rest -> (
      match blocking ctx ~pass (find_entry t key) with
      | Some tk -> Some (key, tk)
      | None -> items_conflict t ~ctx ~pass rest)

let rec remove tk = function
  | [] -> []
  | x :: rest -> if x == tk then rest else x :: remove tk rest

(* Locked by hand: the lookup cannot raise, and a [with_lock] closure
   would cost every read an allocation. *)
let lookup ~ctx ~pass t key =
  t.lock.Platform.lock ();
  let e = find_entry t key in
  let tk = blocking ctx ~pass e and v = e.version in
  t.lock.Platform.unlock ();
  match tk with Some tk -> raise (Busy tk) | None -> v

let key_version t key =
  Platform.with_lock t.lock (fun () -> (find_entry t key).version)

(* --- parked waits ------------------------------------------------------------ *)

(* [w] into the chain at [c], kept in stamp order. *)
let rec insert w c =
  if c == nil || w.seq < c.seq then begin
    w.next <- c;
    w
  end
  else begin
    c.next <- insert w c.next;
    c
  end

(* The paper's CC spins on the commit flag (§4.4); here a waiter parks on
   the ticket's key until the ticket reaches [until] and a [signal] wakes
   it. *)
let park t tk until =
  if not (reached tk until) then begin
    t.wait_lock.Platform.lock ();
    Atomic.incr t.ticket_waiters;
    if not (reached tk until) then begin
      let w = if t.spare == nil then { nil with cond = t.platform.Platform.new_cond () } else t.spare in
      t.spare <- w.next;
      t.parks <- t.parks + 1;
      w.seq <- t.parks;
      w.awaits <- tk.state;
      w.until <- until;
      w.ready <- false;
      tk.entry.waiters <- insert w tk.entry.waiters;
      while not w.ready do
        w.cond.Platform.wait t.wait_lock
      done;
      w.next <- t.spare;
      t.spare <- w
    end;
    Atomic.decr t.ticket_waiters;
    t.wait_lock.Platform.unlock ()
  end

(* How far a client waits a ticket out: one that may pass, until it can
   (a barred or failed ticket, only once done); any other, until it is
   done. *)
let until_for ~pass tk = if pass && Atomic.get tk.state <= passed then passed else done_

(* A wait's start and, after it, its duration booked as [cause] blame on
   a live [span]. By hand rather than around a closure: a wait allocates
   nothing. *)
let wait_began t span = if Span.live span then t.platform.Platform.now () else 0

let blame t span cause t0 =
  if Span.live span then Span.stall span cause (t.platform.Platform.now () - t0)

let wait_conflict ?(span = Span.none) ~pass t tk =
  let t0 = wait_began t span in
  park t tk (until_for ~pass tk);
  blame t span Span.Conflict_retry t0

(* No hold-and-wait: a reservation holder waits only on commit tickets,
   never on a NOOP — another holder's reservation, or an advisory lock
   held for as long as its owner likes. *)
let holder_must_abort tk = match tk.op with Logrec.Noop _ -> true | _ -> false

(* A writer draining the key's readers parks until a reader exit
   ([reader_exited]) finds the count at zero. One cond serves every
   drain: a woken writer whose key still has readers parks again. *)
let wait_readers t rc key =
  let open Dstore_structs in
  if Readcount.readers rc key <> 0 then begin
    t.wait_lock.Platform.lock ();
    Atomic.incr t.drain_waiters;
    while Readcount.readers rc key <> 0 do
      t.cond_drain.Platform.wait t.wait_lock
    done;
    Atomic.decr t.drain_waiters;
    t.wait_lock.Platform.unlock ()
  end

(* The exiting reader made its count zero before the check. *)
let reader_exited t =
  if Atomic.get t.drain_waiters > 0 then begin
    t.wait_lock.Platform.lock ();
    t.cond_drain.Platform.broadcast ();
    t.wait_lock.Platform.unlock ()
  end

let request_checkpoint_locked t =
  t.ckpt_needed <- true;
  t.cond_ckpt.Platform.signal ()

let with_frontend_lock t f = Platform.with_lock t.lock f

(* --- one append, one commit (Figure 4, §3.4) -------------------------------- *)

(* An appended, uncommitted group: the member records in item order and,
   for a transaction, its frame. Its records sit at consecutive slots of
   one log: they are staged under one lock hold, and a log swap re-homes
   every in-flight record in LSN order. So [stage] persists them with one
   [Oplog.persist] and [commit] sets and persists their commit words with
   one [Oplog.commit], and [Oplog] picks the protocol from the record
   count. A transaction's commit record is the exception: it is staged
   last, left out of both, and made valid by [Oplog.flush_txn_commit].
   Every record holds an in-flight ticket until commit, so conflict
   lookups block concurrent writers on its key (a passed member, only
   those that may not pass). *)

(* A transaction's Txn_begin and Txn_commit records, and its
   dependencies: the passed members of other transactions whose values
   it read or overwrote. Its commit record waits until they are done. *)
type frame = { opening : ticket; closing : ticket; deps : ticket list }

type appended = { members : ticket list; frame : frame option }

let members a = a.members

(* The first stale read: a commit or a pass bumped its key's version
   after the transaction observed it. *)
let rec stale_read t = function
  | [] -> None
  | (k, v) :: rest -> if (find_entry t k).version <> v then Some k else stale_read t rest

(* The applied tickets of other transactions on [tks], onto [acc]. *)
let rec applied_of ctx acc = function
  | [] -> acc
  | tk :: rest -> applied_of ctx (if (not (owns ctx tk)) && applied tk then tk :: acc else acc) rest

(* The dependencies of a transaction that validated a read of, or
   appends over, each element's key ([key_of]): the applied tickets on
   it, whose values it took. Call under the frontend lock. *)
let rec deps_on t ~ctx key_of acc = function
  | [] -> acc
  | x :: rest -> deps_on t ~ctx key_of (applied_of ctx acc (find_entry t (key_of x)).tickets) rest

(* Wait, holding nothing, until every dependency is done; the first that
   failed instead, if any. A dependency is always an older append than its
   dependent, so these waits form no cycle. *)
let rec await_deps t = function
  | [] -> None
  | tk :: rest ->
      park t tk failed;
      if stage_of tk = failed then Some tk else await_deps t rest

(* Steps 2–3 under the lock, in item order: each item's builder finds the
   binding it replaces and builds its record, sized here. *)
let rec build = function
  | [] -> []
  | (_, _, f) :: rest ->
      let op = f () in
      (op, Logrec.slots_needed op) :: build rest

(* Reserve, write and ticket one record of [n] slots in the active log,
   queued last on its key's entry. *)
let stage_record t log entry op n =
  let slot = Oplog.reserve log n in
  assert (slot >= 0);
  let lsn = Oplog.lsn_base log + slot in
  Oplog.write_record log ~slot ~lsn op;
  t.platform.Platform.consume Config.costs.log_cpu_ns;
  let tk =
    { lsn; log_id = t.active_log; slot; op; entry; owner = 0; state = Atomic.make held }
  in
  Hashtbl.add t.in_flight lsn tk;
  if entry != blank then entry.tickets <- entry.tickets @ [ tk ];
  tk

let rec stage_members t log items ops =
  match (items, ops) with
  | (key, _, _) :: items, (op, n) :: ops ->
      let tk = stage_record t log (entry_of t key) op n in
      tk :: stage_members t log items ops
  | _ -> []

(* Step 5 under the lock: stage every record of the group into consecutive
   slots of the active log, then the checkpoint trigger, the release, and
   the persist outside the critical section. Records are located before
   the release (a swap may re-home them after it); a transaction's commit
   record, staged last, is left unflushed until [commit]. *)
let stage t span ~txn ~deps items ops =
  let log = t.logs.(t.active_log) in
  let first = Oplog.tail log in
  let opened =
    if txn then begin
      let id = t.next_txn in
      t.next_txn <- id + 1;
      let n = List.length ops in
      let op = Logrec.Txn_begin { txn = id; members = n } in
      Some (id, stage_record t log blank op (Logrec.slots_needed op))
    end
    else None
  in
  let members = stage_members t log items ops in
  let n = List.length members in
  let frame =
    match opened with
    | Some (id, opening) ->
        let op = Logrec.Txn_commit { txn = id } in
        Some { opening; closing = stage_record t log blank op (Logrec.slots_needed op); deps }
    | None -> None
  in
  if
    t.cfg.checkpoint <> Config.No_checkpoint
    && float_of_int (Oplog.tail log)
       >= t.cfg.checkpoint_threshold *. float_of_int (Oplog.capacity log)
  then request_checkpoint_locked t;
  Span.seg span Span.S_lock;
  t.lock.Platform.unlock ();
  Oplog.persist log ~slot:first ~records:(if txn then n + 1 else n);
  t.st.records_appended <- t.st.records_appended + n + if txn then 2 else 0;
  Span.seg span Span.S_append;
  { members; frame }

(* An OCC abort under the lock: nothing was appended. *)
let abort_locked t key =
  t.st.txns_aborted <- t.st.txns_aborted + 1;
  t.lock.Platform.unlock ();
  Error key

(* A read-only transaction, validated under the lock: it commits once the
   values it read are durable, and aborts if one never will be. *)
let commit_reads t ~ctx reads =
  let deps = deps_on t ~ctx fst [] reads in
  t.lock.Platform.unlock ();
  match await_deps t deps with
  | None ->
      t.st.txns_committed <- t.st.txns_committed + 1;
      Ok { members = []; frame = None }
  | Some tk ->
      t.st.txns_aborted <- t.st.txns_aborted + 1;
      Error (Option.value (Logrec.op_key tk.op) ~default:"")

(* Steps 1–6 of one append attempt, [need] slots of log space: conflict
   lookup and wait, log-full stall, validation, builders, staging. It and
   its helpers are top-level functions, not closures over the call, so a
   single put's append allocates no closure on the hot path. A
   transaction ([reads] given) may go past passed tickets, and one whose
   caller holds reservations aborts where [holder_must_abort] forbids the
   wait. *)
let rec attempt t ~ctx ~holding ~span ~reads ~txn items need =
  if need > Oplog.capacity t.logs.(t.active_log) then raise Log_full;
  let pass = Option.is_some reads in
  t.lock.Platform.lock ();
  match items_conflict t ~ctx ~pass items with
  | Some (key, tk) when holding && pass && holder_must_abort tk -> abort_locked t key
  | Some (_, tk) ->
      t.lock.Platform.unlock ();
      t.st.conflict_waits <- t.st.conflict_waits + 1;
      wait_conflict ~span ~pass t tk;
      attempt t ~ctx ~holding ~span ~reads ~txn items need
  | None when Oplog.free_slots t.logs.(t.active_log) < need ->
      if t.cfg.checkpoint = Config.No_checkpoint then begin
        t.lock.Platform.unlock ();
        raise Log_full
      end;
      request_checkpoint_locked t;
      t.st.log_full_stalls <- t.st.log_full_stalls + 1;
      (* cond wait releases and re-acquires the frontend lock *)
      let t0 = wait_began t span in
      t.cond_space.Platform.wait t.lock;
      blame t span Span.Log_full t0;
      t.lock.Platform.unlock ();
      attempt t ~ctx ~holding ~span ~reads ~txn items need
  | None -> (
      (* OCC validation shares this lock hold with the append: no
         conflicting record is in flight (the lookup above) but passed
         ones, whose versions already moved, so a read is stale exactly
         when a commit or a pass bumped its key's version after the
         transaction observed it. *)
      match match reads with Some r -> stale_read t r | None -> None with
      | Some key -> abort_locked t key
      | None when items = [] -> (
          match reads with
          | Some r -> commit_reads t ~ctx r
          | None ->
              t.lock.Platform.unlock ();
              Ok { members = []; frame = None })
      | None -> (
          match build items with
          | exception e ->
              t.lock.Platform.unlock ();
              raise e
          | ops ->
              let actual =
                List.fold_left (fun acc (_, n) -> acc + n) 0 ops + if txn then 2 else 0
              in
              if actual > Oplog.free_slots t.logs.(t.active_log) then begin
                (* A record outgrew its estimate (an overwrite freeing more
                   extents than the estimate allows): wait for room for the
                   records as built, then build them again. *)
                t.lock.Platform.unlock ();
                attempt t ~ctx ~holding ~span ~reads ~txn items actual
              end
              else
                let deps =
                  match reads with
                  | Some r -> deps_on t ~ctx (fun (k, _, _) -> k) (deps_on t ~ctx fst [] r) items
                  | None -> []
                in
                Ok (stage t span ~txn ~deps items ops)))

let append ~ctx ?(holding = false) ?(span = Span.none) ?reads t items =
  let txn = reads <> None && items <> [] in
  let estimate = List.fold_left (fun n (_, bound, _) -> n + bound) 0 items in
  attempt t ~ctx ~holding ~span ~reads ~txn items (estimate + if txn then 2 else 0)

(* Unlink from [e]'s chain the waiters whose ticket reached their mark,
   into [batch] in stamp order. Call under [wait_lock]. *)
let rec take e prev w batch =
  if w == nil then batch
  else if Atomic.get w.awaits land 3 >= w.until then begin
    let next = w.next in
    if prev == nil then e.waiters <- next else prev.next <- next;
    take e prev next (insert w batch)
  end
  else take e w w.next batch

let rec wake w =
  if w != nil then begin
    let next = w.next in
    w.ready <- true;
    w.cond.Platform.signal ();
    wake next
  end

(* Wake exactly the waiters parked on [tks] whose ticket reached their
   mark. *)
let signal t tks =
  if Atomic.get t.ticket_waiters > 0 then begin
    t.wait_lock.Platform.lock ();
    wake (List.fold_left (fun b tk -> take tk.entry nil tk.entry.waiters b) nil tks);
    t.wait_lock.Platform.unlock ()
  end

(* Mark the tickets done and wake the waiters parked on them. *)
let finish t tks =
  List.iter (fun tk -> Atomic.set tk.state done_) tks;
  signal t tks

(* Drop the ticket from its key's entry and bump the key's version,
   unless its pass did: every commit on the key, Noop commits included
   (an in-place [owrite] changes bytes under a Noop record), invalidates
   its readers. Call under the frontend lock. *)
let unqueue tk =
  let e = tk.entry in
  if e != blank then begin
    e.tickets <- remove tk e.tickets;
    if stage_of tk <> passed then e.version <- e.version + 1
  end

(* Drop the ticket from the in-flight set and its key's entry. *)
let retire t tk =
  Hashtbl.remove t.in_flight tk.lsn;
  unqueue tk

(* The pass: [a]'s structures and cache are applied while its payload
   writes may still run. Its members become passable and their keys'
   versions move now (their commit moves them no more); [r], the
   committing context's reservations, drops. Then the clients parked on
   any of them wake: a transaction to go past them, any other client to
   wait on. *)
let pass t a r =
  t.lock.Platform.lock ();
  List.iter
    (fun tk ->
      Atomic.set tk.state (Atomic.get tk.state lor passed);
      tk.entry.version <- tk.entry.version + 1)
    a.members;
  match r with
  | None ->
      t.lock.Platform.unlock ();
      signal t a.members
  | Some r ->
      List.iter (fun tk -> tk.entry.tickets <- remove tk tk.entry.tickets) r;
      t.lock.Platform.unlock ();
      List.iter (fun tk -> Atomic.set tk.state done_) r;
      signal t (a.members @ r)

(* Passed [members] will never commit. They stay in flight and on their
   keys, so every client but their dependents still waits on them for
   good, as on a group that raised before its pass: its structures and
   cache are applied and uncommitted. Their dependents wake to [failed]
   and fail in turn. *)
let fail t members =
  List.iter (fun tk -> Atomic.set tk.state failed) members;
  signal t members

(* Only a passed group has dependents to free. *)
let abandon t a =
  match a.members with tk :: _ when stage_of tk = passed -> fail t a.members | _ -> ()

let rec retire_all t = function
  | [] -> ()
  | tk :: rest ->
      retire t tk;
      retire_all t rest

(* Step 9. A record's commit word (or, for a transaction, the commit
   record) is located under the lock — a concurrent swap may have
   re-homed it — and the ticket retired there with its key's version
   bumped; the persist runs outside. A transaction first waits out its
   dependencies ([Conflict_retry] blame on a live [span]), and its
   tickets stay on their keys until its commit record is durable, so
   that a later transaction still finds them as dependencies. Conflict
   waiters release once the group is durable. *)
let commit ?(span = Span.none) t a =
  match (a.frame, a.members) with
  | _, [] -> ()
  | Some f, members ->
      let tks = f.opening :: f.closing :: members in
      let t0 = wait_began t span in
      let lost = await_deps t f.deps in
      if f.deps <> [] then blame t span Span.Conflict_retry t0;
      if Option.is_some lost then begin
        fail t members;
        raise Dependency_failed
      end;
      (* Locked by hand: nothing in either hold raises. *)
      let c = f.closing in
      t.lock.Platform.lock ();
      List.iter (fun tk -> Hashtbl.remove t.in_flight tk.lsn) tks;
      let log_id = c.log_id and slot = c.slot in
      t.lock.Platform.unlock ();
      Oplog.flush_txn_commit t.logs.(log_id) ~slot;
      t.lock.Platform.lock ();
      List.iter unqueue tks;
      t.lock.Platform.unlock ();
      t.st.txns_committed <- t.st.txns_committed + 1;
      t.st.txn_member_records <- t.st.txn_member_records + List.length members;
      finish t tks
  | None, (first :: _ as tks) ->
      (* Locked by hand, [Oplog.commit] releasing: nothing in the hold
         raises, and a [with_lock] closure returning the location would
         cost every put two allocations. *)
      let n = List.length tks in
      t.lock.Platform.lock ();
      let log = t.logs.(first.log_id) and slot = first.slot in
      retire_all t tks;
      Oplog.commit log ~slot ~records:n ~unlock:t.lock.Platform.unlock;
      if n > 1 then begin
        t.st.batches_committed <- t.st.batches_committed + 1;
        t.st.batch_records <- t.st.batch_records + n;
        Metrics.observe t.batch_fill n
      end;
      finish t tks

(* A passing read that missed the cache follows the index to the pages
   of the youngest applied write on [key], which may still be in flight:
   wait until it is done (or failed, which fails the reader's
   transaction too). No write on the key passes meanwhile, since the
   reader's count holds back every later structure update. *)
let wait_written t key =
  t.lock.Platform.lock ();
  let last =
    List.fold_left (fun acc tk -> if applied tk then Some tk else acc) None (find_entry t key).tickets
  in
  t.lock.Platform.unlock ();
  Option.iter (fun tk -> park t tk failed) last

(* --- reservations ------------------------------------------------------------ *)

type reservation = ticket list

(* One unlogged NOOP ticket per key, owned by the holder, all or nothing
   in one frontend-lock hold. While any key has a ticket the holder may
   not go past, wait holding nothing ([Txn_retry] blame), then look
   again. A reservation goes past passed tickets like the transaction it
   serves. *)
let rec reserve ?(span = Span.none) t ~ctx keys =
  t.lock.Platform.lock ();
  (* the lookups take append items: (key, size estimate, builder) *)
  match items_conflict t ~ctx ~pass:true (List.map (fun k -> (k, 0, ())) keys) with
  | Some (_, tk) ->
      t.lock.Platform.unlock ();
      let t0 = wait_began t span in
      park t tk (until_for ~pass:true tk);
      blame t span Span.Txn_retry t0;
      reserve ~span t ~ctx keys
  | None ->
      let hold key =
        let entry = entry_of t key and state = Atomic.make held in
        let tk = { lsn = 0; log_id = 0; slot = 0; op = Noop { key }; entry; owner = ctx; state } in
        entry.tickets <- entry.tickets @ [ tk ];
        tk
      in
      let r = List.map hold keys in
      t.lock.Platform.unlock ();
      r

(* Unlike a commit, a release bumps no version. *)
let release t r =
  Platform.with_lock t.lock (fun () ->
      List.iter (fun tk -> tk.entry.tickets <- remove tk tk.entry.tickets) r);
  finish t r

(* --- advisory locks ----------------------------------------------------------- *)

(* The lock is a NOOP record [ctx] owns: other clients wait it out like
   any in-flight record, its owner passes it. *)
let lock t ~ctx key =
  match append ~ctx t [ (key, 2, fun () -> Logrec.Noop { key }) ] with
  | Ok { members = [ tk ]; _ } -> with_frontend_lock t (fun () -> tk.owner <- ctx)
  | _ -> assert false

let unlock t ~ctx key =
  let held tk = owns ctx tk && tk.lsn > 0 in
  match with_frontend_lock t (fun () -> List.find_opt held (find_entry t key).tickets) with
  | Some tk ->
      commit t { members = [ tk ]; frame = None };
      true
  | None -> false

let in_flight t =
  Platform.with_lock t.lock (fun () ->
      List.map (fun tk -> (tk, Logrec.op_key tk.op, tk.owner)) (live_tickets t))

(* --- physical logging capture ------------------------------------------------ *)

let capture_writes t f =
  assert (not t.cap.on);
  t.cap.buf <- [];
  t.cap.on <- true;
  (match f () with
  | () -> t.cap.on <- false
  | exception e ->
      t.cap.on <- false;
      raise e);
  List.rev t.cap.buf

(* --- checkpoint control ------------------------------------------------------ *)

let checkpoint_now t =
  if t.cfg.checkpoint = Config.No_checkpoint then ()
  else
    Platform.with_lock t.lock (fun () ->
        request_checkpoint_locked t;
        while t.ckpt_needed || t.ckpt_running do
          t.cond_done.Platform.wait t.lock
        done)

let is_checkpoint_running t = t.ckpt_running

let log_fill t =
  let log = t.logs.(t.active_log) in
  float_of_int (Oplog.tail log) /. float_of_int (max 1 (Oplog.capacity log))

(* --- snapshot image transfer (replica catch-up) --------------------------- *)

(* The published space half doubles as the node's checkpoint-consistent
   transfer image: after [checkpoint_now] under a write barrier it holds
   the entire committed history, so a laggard that installs these bytes
   plus the journal suffix converges to byte identity. The capture copies
   to DRAM immediately (the half is recycled by the next checkpoint). *)
let capture_image t =
  let src = Space.attach (space_mem t t.current_space) in
  let used = Space.used_bytes src in
  Pmem.bulk_read_cost t.pm used;
  let buf = Bytes.create used in
  Pmem.blit_to_bytes t.pm ~src:t.lay.space_off.(t.current_space) buf ~dst:0
    ~len:used;
  buf

(* Overwrite a (possibly stale, possibly uninitialized) device with a
   captured image, leaving it exactly as a freshly-recovered store:
   image in half 0, both logs empty, root pointing at them. Ordering is
   the crash-safety story: the root magic is zeroed first, so a crash
   anywhere mid-install leaves a device that [Root.attach] refuses —
   visibly non-promotable rather than half-old, half-new. [Root.init]
   lands last and completes the install atomically. *)
let install_image pm (cfg : Config.t) ~image =
  let lay = layout_of cfg in
  if Pmem.size pm < lay.total then
    invalid_arg
      (Printf.sprintf "Dipper.install_image: device too small (%d < %d)"
         (Pmem.size pm) lay.total);
  let len = Bytes.length image in
  if len > lay.space_bytes then
    invalid_arg "Dipper.install_image: image larger than a space half";
  Root.invalidate pm ~off:0;
  Pmem.blit_from_bytes pm image ~src:0 ~dst:lay.space_off.(0) ~len;
  Pmem.persist pm lay.space_off.(0) len;
  let logs =
    Array.map (fun off -> Oplog.attach pm ~off ~slots:cfg.log_slots) lay.log_off
  in
  Oplog.reset logs.(0) ~lsn_base:1;
  Oplog.reset logs.(1) ~lsn_base:(1 + cfg.log_slots);
  ignore
    (Root.init pm ~off:0
       {
         Root.current_space = 0;
         active_log = 0;
         ckpt_in_progress = false;
         ckpt_archived_log = 0;
         last_applied_lsn = 0;
       })

(* --- footprint ------------------------------------------------------------ *)

let pmem_footprint t =
  Root.bytes + (2 * t.lay.log_bytes) + space_used_raw t 0 + space_used_raw t 1

let dram_footprint t = Space.used_bytes t.volatile
