open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_core
module Obs = Dstore_obs.Obs
module Metrics = Dstore_obs.Metrics
module Span = Dstore_obs.Span

type node = Dstore.node = { pm : Pmem.t; ssd : Ssd.t }

type shard = { index : int; store : Dstore.t; pm : Pmem.t }

type t = {
  platform : Platform.t;
  map : Shard_map.t;
  shards : shard array;
  obs : Obs.t;
  mutable stopped : bool;
}

let register_views c =
  let m = c.obs.Obs.metrics in
  Metrics.gauge_fn m "cluster.shards" (fun () -> Array.length c.shards);
  Array.iter
    (fun sh ->
      let eng = Dstore.engine sh.store in
      let p = Printf.sprintf "shard%d." sh.index in
      Metrics.gauge_fn m (p ^ "log_fill_pct") (fun () ->
          int_of_float (100.0 *. Dipper.log_fill eng));
      Metrics.gauge_fn m (p ^ "ckpt_running") (fun () ->
          if Dipper.is_checkpoint_running eng then 1 else 0);
      Metrics.gauge_fn m (p ^ "objects") (fun () -> Dstore.object_count sh.store))
    c.shards

let verify_roots c =
  let problems = ref [] in
  Array.iter
    (fun sh ->
      let bad fmt =
        Printf.ksprintf
          (fun s -> problems := Printf.sprintf "shard%d: %s" sh.index s :: !problems)
          fmt
      in
      let rs = Dipper.root_snapshot (Dstore.engine sh.store) in
      if rs.Root.current_space <> 0 && rs.Root.current_space <> 1 then
        bad "root current_space %d not in {0,1}" rs.Root.current_space;
      if rs.Root.active_log <> 0 && rs.Root.active_log <> 1 then
        bad "root active_log %d not in {0,1}" rs.Root.active_log;
      if rs.Root.ckpt_archived_log <> 0 && rs.Root.ckpt_archived_log <> 1 then
        bad "root ckpt_archived_log %d not in {0,1}" rs.Root.ckpt_archived_log;
      if rs.Root.ckpt_in_progress then
        bad "root still marks a checkpoint in progress after recovery";
      if rs.Root.last_applied_lsn < 0 then
        bad "root applied watermark %d negative" rs.Root.last_applied_lsn)
    c.shards;
  List.rev !problems

let make ~recovering ?obs ?(shard_obs = fun _ -> None) platform
    (cfg : Config.t) (nodes : node array) =
  let n = Array.length nodes in
  if n = 0 then invalid_arg "Cluster: need at least one node";
  let obs =
    match obs with
    | Some o -> o
    | None ->
        Obs.create ~enabled:cfg.Config.obs_enabled ~now:platform.Platform.now
          ()
  in
  if recovering then
    Array.iteri
      (fun i (nd : node) ->
        if not (Dstore.is_initialized nd.pm) then
          failwith
            (Printf.sprintf "Cluster.recover: shard %d holds no initialized store" i))
      nodes;
  let shards =
    Array.mapi
      (fun i (nd : node) ->
        let sobs = shard_obs i in
        let store =
          if recovering then Dstore.recover ?obs:sobs platform nd.pm nd.ssd cfg
          else Dstore.create ?obs:sobs platform nd.pm nd.ssd cfg
        in
        { index = i; store; pm = nd.pm })
      nodes
  in
  let c =
    { platform; map = Shard_map.create ~shards:n; shards; obs; stopped = false }
  in
  register_views c;
  if recovering then begin
    match verify_roots c with
    | [] -> ()
    | problems -> failwith ("Cluster.recover: " ^ String.concat "; " problems)
  end;
  c

let create ?obs ?shard_obs platform cfg nodes =
  make ~recovering:false ?obs ?shard_obs platform cfg nodes

let recover ?obs ?shard_obs platform cfg nodes =
  make ~recovering:true ?obs ?shard_obs platform cfg nodes

let stop c =
  if not c.stopped then begin
    c.stopped <- true;
    Array.iter (fun sh -> Dstore.stop sh.store) c.shards;
    (* Fold each shard's registry into the cluster registry under a
       shard<i>. prefix — after this, the cluster obs alone carries the
       whole cluster's final metrics (exporters read one registry). *)
    Array.iter
      (fun sh ->
        (* A shard sharing the cluster handle (shard_obs) already writes
           into this registry; self-merging would duplicate its series. *)
        if Dstore.obs sh.store != c.obs then begin
          Metrics.merge_into
            ~prefix:(Printf.sprintf "shard%d." sh.index)
            ~materialize:true ~dst:c.obs.Obs.metrics
            (Dstore.obs sh.store).Obs.metrics;
          Span.merge_into ~dst:c.obs.Obs.spans
            (Dstore.obs sh.store).Obs.spans
        end)
      c.shards
  end

let crash c mode_of =
  Array.iteri (fun i sh -> Pmem.crash sh.pm (mode_of i)) c.shards

(* --- Table 2 API ---------------------------------------------------------- *)

type ctx = { c : t; ctxs : Dstore.ctx array }

let ds_init c = { c; ctxs = Array.map (fun sh -> Dstore.ds_init sh.store) c.shards }

let ds_finalize ctx = Array.iter Dstore.ds_finalize ctx.ctxs

let route ctx key = ctx.ctxs.(Shard_map.shard_of ctx.c.map key)

let oput ctx key v = Dstore.oput (route ctx key) key v

let oget ctx key = Dstore.oget (route ctx key) key

let oget_into ctx key buf = Dstore.oget_into (route ctx key) key buf

let oget_view ctx key buf = Dstore.oget_view (route ctx key) key buf

let odelete ctx key = Dstore.odelete (route ctx key) key

let oexists ctx key = Dstore.oexists (route ctx key) key

(* Group commit across shards: partition the batch by routing hash
   (preserving each shard's sub-order), run one Dstore batch per shard,
   and reassemble the per-op results in input order. Each shard's
   sub-batch gets its own group commit; the call returns only when every
   sub-batch has committed, so the cluster-level durability contract
   matches the engine's. *)
let obatch ctx ops =
  match ops with
  | [] -> []
  | _ ->
      let n = Array.length ctx.ctxs in
      let buckets = Array.make n [] in
      let order = Array.make n [] in
      List.iteri
        (fun i op ->
          let s = Shard_map.shard_of ctx.c.map (Dstore.batch_key op) in
          buckets.(s) <- op :: buckets.(s);
          order.(s) <- i :: order.(s))
        ops;
      let results = Array.make (List.length ops) false in
      Array.iteri
        (fun s bucket ->
          match bucket with
          | [] -> ()
          | _ ->
              let sub = List.rev bucket in
              let idxs = List.rev order.(s) in
              let rs = Dstore.obatch ctx.ctxs.(s) sub in
              List.iter2 (fun i r -> results.(i) <- r) idxs rs)
        buckets;
      Array.to_list results

let oput_batch ctx kvs =
  ignore (obatch ctx (List.map (fun (k, v) -> Dstore.Bput (k, v)) kvs))

let odelete_batch ctx keys =
  obatch ctx (List.map (fun k -> Dstore.Bdelete k) keys)

let oopen ctx name ?create mode = Dstore.oopen (route ctx name) name ?create mode

let oread = Dstore.oread

let owrite o buf ~size ~off = Dstore.owrite o buf ~size ~off

let oclose = Dstore.oclose

let osize = Dstore.osize

let olock ctx key = Dstore.olock (route ctx key) key

let ounlock ctx key = Dstore.ounlock (route ctx key) key

(* Single-shard transaction fast path: a txn is routed by its declared
   footprint's first key and runs entirely on that shard's engine (one
   log span, one validation). Cross-shard footprints are rejected up
   front — DStore has no distributed commit, and silently spanning
   shards would break the all-or-nothing crash contract. *)
let txn ?retries ctx ~keys fn =
  let s = match keys with [] -> 0 | k :: _ -> Shard_map.shard_of ctx.c.map k in
  match
    List.find_opt (fun k -> Shard_map.shard_of ctx.c.map k <> s) keys
  with
  | Some k -> Error (Dstore_txn.Cross_shard k)
  | None -> Dstore_txn.txn ?retries ctx.ctxs.(s) fn

let olist ctx ~prefix =
  Array.fold_left
    (fun acc sctx -> List.rev_append (Dstore.olist sctx ~prefix) acc)
    [] ctx.ctxs
  |> List.sort compare

(* --- introspection -------------------------------------------------------- *)

let shard_count c = Array.length c.shards

let shard_of c key = Shard_map.shard_of c.map key

let shard_store c i = c.shards.(i).store

let object_count c =
  Array.fold_left (fun acc sh -> acc + Dstore.object_count sh.store) 0 c.shards

let iter_names c f =
  let acc = ref [] in
  Array.iter
    (fun sh -> Dstore.iter_names sh.store (fun name -> acc := name :: !acc))
    c.shards;
  List.iter f (List.sort compare !acc)

let footprint c =
  Array.fold_left
    (fun acc sh ->
      let f = Dstore.footprint sh.store in
      {
        Dstore.dram = acc.Dstore.dram + f.Dstore.dram;
        pmem = acc.Dstore.pmem + f.Dstore.pmem;
        ssd = acc.Dstore.ssd + f.Dstore.ssd;
      })
    { Dstore.dram = 0; pmem = 0; ssd = 0 }
    c.shards

let checkpoint_now c =
  Array.iter (fun sh -> Dstore.checkpoint_now sh.store) c.shards

(* Per-shard DRAM cache stats, summed into one cluster view ([None] when
   no shard has a cache). Per-shard series need no extra plumbing: each
   shard's registry carries its own cache.* gauges, which [stop] /
   [aggregate_metrics] fold in under the shard<i>. prefix. *)
let cache_stats c =
  Array.fold_left
    (fun acc sh ->
      match Dstore.cache_stats sh.store with
      | None -> acc
      | Some (s : Dstore_cache.Cache.stats) -> (
          match acc with
          | None -> Some s
          | Some (a : Dstore_cache.Cache.stats) ->
              Some
                {
                  Dstore_cache.Cache.budget = a.budget + s.budget;
                  bytes = a.bytes + s.bytes;
                  entries = a.entries + s.entries;
                  hits = a.hits + s.hits;
                  misses = a.misses + s.misses;
                  evictions = a.evictions + s.evictions;
                  invalidations = a.invalidations + s.invalidations;
                  fills = a.fills + s.fills;
                  recycled = a.recycled + s.recycled;
                }))
    None c.shards

let cache_clear c = Array.iter (fun sh -> Dstore.cache_clear sh.store) c.shards

let log_fill c i = Dipper.log_fill (Dstore.engine c.shards.(i).store)

let is_checkpoint_running c i =
  Dipper.is_checkpoint_running (Dstore.engine c.shards.(i).store)

let obs c = c.obs

(* Union of the cluster handle's span recorder and every shard recorder
   that is distinct from it — a consistent snapshot for live tail
   reports, without mutating any source recorder. *)
let tail_recorder c =
  let dst =
    Span.create
      ~capacity:(max 256 (Span.capacity c.obs.Obs.spans))
      ~enabled:true ~now:c.platform.Platform.now ()
  in
  Span.merge_into ~dst c.obs.Obs.spans;
  Array.iter
    (fun sh ->
      if Dstore.obs sh.store != c.obs then
        Span.merge_into ~dst (Dstore.obs sh.store).Obs.spans)
    c.shards;
  dst

let aggregate_metrics c =
  let m = Metrics.create () in
  Metrics.merge_into ~materialize:true ~dst:m c.obs.Obs.metrics;
  Array.iter
    (fun sh ->
      if Dstore.obs sh.store != c.obs then
        Metrics.merge_into
          ~prefix:(Printf.sprintf "shard%d." sh.index)
          ~materialize:true ~dst:m
          (Dstore.obs sh.store).Obs.metrics)
    c.shards;
  m
