(** Builders wiring each evaluated system onto fresh simulated devices.

    Every system gets its own PMEM and SSD instances sized from a common
    {!scale}, so comparisons share identical device parameters — the
    paper's single-testbed methodology. *)

open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_core
open Dstore_baselines

type scale = {
  objects : int;
  value_bytes : int;
  ssd_pages : int;
  ssd_channels : int;
  crash_model : bool;  (** Dirty-line tracking; off for performance runs. *)
  retain_data : bool;  (** Keep payload bytes on the SSD model. *)
  log_slots : int;  (** DIPPER log / cached-journal capacity. *)
  cache_mb : int;  (** DRAM object-cache budget (MiB); 0 disables. *)
}

let default_scale =
  {
    objects = 10_000;
    value_bytes = 4096;
    ssd_pages = 96 * 1024;
    ssd_channels = 8;
    crash_model = false;
    retain_data = false;
    log_slots = 8192;
    cache_mb = 0;
  }

let make_ssd platform scale =
  Ssd.create platform
    {
      Ssd.default_config with
      pages = scale.ssd_pages;
      channels = scale.ssd_channels;
      retain_data = scale.retain_data;
    }

(* Each device gets its own bandwidth domain so foreground flushes
   contend with the device's bulk transfers (checkpoint clones, recovery
   copies): while a bulk transfer is in flight, line flushes pay the
   shared-load rate — the mechanism by which a long clone shows up in the
   client write tail on real PMEM. *)
let make_pmem platform scale bytes =
  Pmem.create platform
    {
      Pmem.default_config with
      size = bytes;
      crash_model = scale.crash_model;
      share = Some (Pmem.Bw.create ());
    }

(* Space sizing: metadata zone + bitmaps + B-tree nodes + key blobs, with
   generous slack. *)
let space_bytes_for scale =
  let per_object = 64 (* zone *) + 64 (* btree share *) + 32 (* key blob *) in
  max (8 * 1024 * 1024) (4 * 1024 * 1024 + (scale.objects * per_object * 3))

let dstore_config scale =
  {
    Config.default with
    log_slots = scale.log_slots;
    space_bytes = space_bytes_for scale;
    meta_entries = Dstore_util.Base_bits.ceil_pow2 (2 * scale.objects);
    ssd_blocks = scale.ssd_pages;
    cache_bytes = scale.cache_mb * 1024 * 1024;
  }

let dstore ?(tweak = Fun.id) ?label platform scale : Kv_intf.system =
  let cfg = tweak (dstore_config scale) in
  let pm = make_pmem platform scale (Dipper.layout_bytes cfg) in
  let ssd = make_ssd platform scale in
  let st = Dstore.create platform pm ssd cfg in
  let name =
    match label with
    | Some l -> l
    | None -> (
        match (cfg.Config.checkpoint, cfg.Config.logging) with
        | Config.Dipper, Config.Logical -> "DStore"
        | Config.Cow, _ -> "DStore (CoW)"
        | Config.No_checkpoint, _ -> "DStore (no ckpt)"
        | _, Config.Physical -> "DStore (physical)")
  in
  {
    Kv_intf.name;
    client =
      (fun () ->
        let ctx = Dstore.ds_init st in
        {
          Kv_intf.put = (fun k v -> Dstore.oput ctx k v);
          get = (fun k buf -> Dstore.oget_into ctx k buf);
          delete = (fun k -> ignore (Dstore.odelete ctx k));
          put_batch = Some (fun kvs -> Dstore.oput_batch ctx kvs);
          read_view =
            Some
              (fun k buf ->
                match Dstore.oget_view ctx k buf with
                | Some (_, n) -> n
                | None -> -1);
        });
    checkpoint_now = Some (fun () -> Dstore.checkpoint_now st);
    stop = (fun () -> Dstore.stop st);
    footprint =
      (fun () ->
        let f = Dstore.footprint st in
        (f.Dstore.dram, f.Dstore.pmem, f.Dstore.ssd));
    pms = [ pm ];
    ssds = [ ssd ];
    obs = Some (Dstore.obs st);
  }

let dstore_store ?(tweak = Fun.id) platform scale =
  (* Variant returning the raw store for experiments that need internals
     (its spans, engine stats, recovery). *)
  let cfg = tweak (dstore_config scale) in
  let pm = make_pmem platform scale (Dipper.layout_bytes cfg) in
  let ssd = make_ssd platform scale in
  (Dstore.create platform pm ssd cfg, pm, ssd, cfg)

let cow_tweak cfg = { cfg with Config.checkpoint = Config.Cow }

let no_ckpt_tweak cfg =
  { cfg with Config.checkpoint = Config.No_checkpoint; log_slots = 1 lsl 20 }

let cached ?label ?(tweak = Fun.id) platform scale : Kv_intf.system =
  let cfg =
    tweak
      {
        Cached_store.default_config with
        space_bytes = space_bytes_for scale;
        meta_entries = Dstore_util.Base_bits.ceil_pow2 (2 * scale.objects);
        ssd_blocks = scale.ssd_pages;
      }
  in
  let pm = make_pmem platform scale (Cached_store.pmem_bytes cfg) in
  let ssd = make_ssd platform scale in
  let st = Cached_store.create platform pm ssd cfg in
  {
    Kv_intf.name = Option.value label ~default:"MongoDB-PM (cached)";
    client =
      (fun () ->
        {
          Kv_intf.put = (fun k v -> Cached_store.put st k v);
          get = (fun k buf -> Cached_store.get st k buf);
          delete = (fun k -> ignore (Cached_store.delete st k));
          put_batch = None;
          read_view = None;
        });
    checkpoint_now = Some (fun () -> Cached_store.checkpoint_now st);
    stop = (fun () -> Cached_store.stop st);
    footprint = (fun () -> Cached_store.footprint st);
    pms = [ pm ];
    ssds = [ ssd ];
    obs = None;
  }

let lsm ?label platform scale : Kv_intf.system =
  let memtable_bytes = max (1 lsl 20) (scale.objects * scale.value_bytes / 8) in
  let cfg =
    {
      Lsm_store.default_config with
      memtable_bytes;
      wal_bytes = 16 * memtable_bytes;
      max_objects = 2 * scale.objects;
    }
  in
  let pm = make_pmem platform scale (Lsm_store.pmem_bytes cfg) in
  let ssd = make_ssd platform scale in
  let st = Lsm_store.create platform pm ssd cfg in
  {
    Kv_intf.name = Option.value label ~default:"PMEM-RocksDB (LSM)";
    client =
      (fun () ->
        {
          Kv_intf.put = (fun k v -> Lsm_store.put st k v);
          get = (fun k buf -> Lsm_store.get st k buf);
          delete = (fun k -> ignore (Lsm_store.delete st k));
          put_batch = None;
          read_view = None;
        });
    checkpoint_now = None;
    stop = (fun () -> Lsm_store.stop st);
    footprint = (fun () -> Lsm_store.footprint st);
    pms = [ pm ];
    ssds = [ ssd ];
    obs = None;
  }

let lsm_no_stall ?label platform scale : Kv_intf.system =
  let memtable_bytes = 8 * 1024 * 1024 in
  let cfg =
    {
      Lsm_store.memtable_bytes;
      wal_bytes = 16 * memtable_bytes;
      l0_limit = 64;
      run_limit = 1_000_000;
      max_objects = 2 * scale.objects;
    }
  in
  let pm = make_pmem platform scale (Lsm_store.pmem_bytes cfg) in
  let ssd = make_ssd platform scale in
  let st = Lsm_store.create platform pm ssd cfg in
  {
    Kv_intf.name = Option.value label ~default:"PMEM-RocksDB (no stalls)";
    client =
      (fun () ->
        {
          Kv_intf.put = (fun k v -> Lsm_store.put st k v);
          get = (fun k buf -> Lsm_store.get st k buf);
          delete = (fun k -> ignore (Lsm_store.delete st k));
          put_batch = None;
          read_view = None;
        });
    checkpoint_now = None;
    stop = (fun () -> Lsm_store.stop st);
    footprint = (fun () -> Lsm_store.footprint st);
    pms = [ pm ];
    ssds = [ ssd ];
    obs = None;
  }

(* A hash-partitioned cluster of DStore shards. Device sizing divides the
   scale across shards (each shard owns 1/N of the objects and SSD pages,
   with its own channels — adding a shard adds hardware, the scale-out
   premise), while every shard's PMEM shares one bandwidth domain: the
   shards model distinct namespaces on the same DIMMs, which is what makes
   coinciding checkpoints globally visible. *)
let sharded ?(shards = 4) platform scale : Kv_intf.system =
  let open Dstore_shard in
  let per =
    {
      scale with
      objects = max 1 (scale.objects / shards);
      ssd_pages = max 1024 (scale.ssd_pages / shards);
      cache_mb =
        (if scale.cache_mb = 0 then 0 else max 1 (scale.cache_mb / shards));
    }
  in
  let cfg = dstore_config per in
  let bw = Pmem.Bw.create () in
  let nodes =
    Array.init shards (fun _ ->
        let pm =
          Pmem.create platform
            {
              Pmem.default_config with
              size = Dipper.layout_bytes cfg;
              crash_model = scale.crash_model;
              share = Some bw;
            }
        in
        { Cluster.pm; ssd = make_ssd platform per })
  in
  let c = Cluster.create platform cfg nodes in
  {
    Kv_intf.name = Printf.sprintf "DStore x%d" shards;
    client =
      (fun () ->
        let ctx = Cluster.ds_init c in
        {
          Kv_intf.put = (fun k v -> Cluster.oput ctx k v);
          get = (fun k buf -> Cluster.oget_into ctx k buf);
          delete = (fun k -> ignore (Cluster.odelete ctx k));
          put_batch = Some (fun kvs -> Cluster.oput_batch ctx kvs);
          read_view =
            Some
              (fun k buf ->
                match Cluster.oget_view ctx k buf with
                | Some (_, n) -> n
                | None -> -1);
        });
    checkpoint_now = Some (fun () -> Cluster.checkpoint_now c);
    stop = (fun () -> Cluster.stop c);
    footprint =
      (fun () ->
        let f = Cluster.footprint c in
        (f.Dstore.dram, f.Dstore.pmem, f.Dstore.ssd));
    pms = Array.to_list (Array.map (fun (nd : Cluster.node) -> nd.Cluster.pm) nodes);
    ssds = Array.to_list (Array.map (fun (nd : Cluster.node) -> nd.Cluster.ssd) nodes);
    obs = Some (Cluster.obs c);
  }

(* A replicated primary-backup group. Every node is a distinct machine:
   full-scale devices each, with its own bandwidth domain (replication
   adds hardware, it does not split it). The returned [Group.t] exposes
   status/lag and the failover controls to experiments and the CLI. *)
let replicated ?(backups = 1) ?mode ?link_latency_ns ?apply_depth
    ?label platform scale : Kv_intf.system * Dstore_repl.Group.t =
  let open Dstore_repl in
  if backups < 1 then invalid_arg "Systems.replicated: backups < 1";
  let cfg = dstore_config scale in
  let cfg =
    match apply_depth with
    | None -> cfg
    | Some d -> { cfg with Config.repl_apply_depth = max 1 d }
  in
  let nodes =
    Array.init (backups + 1) (fun _ ->
        {
          Group.pm = make_pmem platform scale (Dipper.layout_bytes cfg);
          ssd = make_ssd platform scale;
        })
  in
  let link =
    match link_latency_ns with
    | None -> Link.default_config
    | Some latency_ns -> { Link.default_config with Link.latency_ns }
  in
  let g = Group.create ?mode ~link platform cfg nodes in
  let name =
    match label with
    | Some l -> l
    | None ->
        Printf.sprintf "DStore repl x%d (%s)" backups
          (Repl.durability_name (Group.mode g))
  in
  ( {
      Kv_intf.name;
      client =
        (fun () ->
          let ctx = Group.ds_init g in
          (* The runner's clean shutdown can race a client sleeping in
             its think time across the window deadline: the group is
             sealed before that client issues its next op. Every other
             system tolerates post-stop ops, so the harness adapter
             absorbs the Fenced those see — group/primary semantics stay
             strict everywhere else. *)
          let absorb default f =
            try f () with Primary.Fenced when not (Group.primary_alive g) ->
              default
          in
          {
            Kv_intf.put = (fun k v -> absorb () (fun () -> Group.oput ctx k v));
            get = (fun k buf -> absorb 0 (fun () -> Group.oget_into ctx k buf));
            delete =
              (fun k -> absorb () (fun () -> ignore (Group.odelete ctx k)));
            put_batch =
              Some (fun kvs -> absorb () (fun () -> Group.oput_batch ctx kvs));
            read_view = None;
          });
      checkpoint_now = Some (fun () -> Group.checkpoint_now g);
      stop = (fun () -> Group.stop g);
      footprint =
        (fun () ->
          let f = Dstore.footprint (Group.store g) in
          (f.Dstore.dram, f.Dstore.pmem, f.Dstore.ssd));
      pms =
        Array.to_list (Array.map (fun (nd : Group.node) -> nd.Group.pm) nodes);
      ssds =
        Array.to_list (Array.map (fun (nd : Group.node) -> nd.Group.ssd) nodes);
      obs = Some (Group.obs g);
    },
    g )

let inline ?label platform scale : Kv_intf.system =
  let cfg =
    {
      Inline_store.default_config with
      space_bytes =
        (4 * 1024 * 1024)
        + (scale.objects * (scale.value_bytes + 128) * 3);
      max_objects = 2 * scale.objects;
    }
  in
  let pm = make_pmem platform scale (Inline_store.pmem_bytes cfg) in
  let st = Inline_store.create platform pm cfg in
  {
    Kv_intf.name = Option.value label ~default:"MongoDB-PMSE (inline)";
    client =
      (fun () ->
        {
          Kv_intf.put = (fun k v -> Inline_store.put st k v);
          get = (fun k buf -> Inline_store.get st k buf);
          delete = (fun k -> ignore (Inline_store.delete st k));
          put_batch = None;
          read_view = None;
        });
    checkpoint_now = None;
    stop = (fun () -> Inline_store.stop st);
    footprint = (fun () -> Inline_store.footprint st);
    pms = [ pm ];
    ssds = [];
    obs = None;
  }
