open Dstore_platform
open Dstore_pmem
open Dstore_ssd

type config = {
  memtable_bytes : int;
  l0_limit : int;
  run_limit : int;
  wal_bytes : int;
  max_objects : int;
}

let default_config =
  {
    memtable_bytes = 4 * 1024 * 1024;
    l0_limit = 4;
    run_limit = 6;
    wal_bytes = 32 * 1024 * 1024;
    max_objects = 1 lsl 20;
  }

(* Modeled CPU of the RocksDB software path: memtable skiplist insert +
   WAL framing/group-commit on writes; memtable/immutable/bloom probing
   on reads. Calibrated to published RocksDB microbenchmarks (~2-5 us per
   4KB op before device time). *)
let put_cpu_ns = 2_500

let get_cpu_ns = 1_500

type stats = {
  mutable flushes : int;
  mutable compactions : int;
  mutable write_stalls : int;
  mutable stall_ns : int;
  mutable recovery_metadata_ns : int;
  mutable recovery_replay_ns : int;
}

(* --- PMEM layout ------------------------------------------------------------
   [ header 4096 | catalog 64KB | WAL segments ]
   Header: magic u64 | active_seg u64 | next_seq u64 |
           per segment (max 8): seq u64, used u64, live u64.
   Catalog: nruns u64 | per run (max 128): start u32, data_pages u32,
            index_pages u32, seq u32. *)

let magic = 0x4C534D53 (* "LSMS" *)

let max_segments = 8

let hdr_off = 0

let cat_off = 4096

let cat_bytes = 65536

let wal_off = cat_off + cat_bytes

let pmem_bytes cfg = wal_off + cfg.wal_bytes

let seg_meta_off i = hdr_off + 24 + (i * 24)

(* A memtable: insertion-ordered log of (key -> value option) with a
   current-value map; None is a tombstone. *)
type memtable = {
  entries : (string, Bytes.t option) Hashtbl.t;
  mutable bytes : int;
  mutable seg : int;  (** WAL segment backing this memtable. *)
  mutable seq : int;
}

(* An SSD-resident sorted run: one value per page, plus serialized index
   pages after the data. *)
type run = {
  start_page : int;
  data_pages : int;
  index_pages : int;
  rseq : int;
  (* (key, page offset within run, value size, tombstone) sorted by key *)
  index : (string * int * int * bool) array;
}

type t = {
  platform : Platform.t;
  pm : Pmem.t;
  ssd : Ssd.t;
  cfg : config;
  m : Platform.mutex;
  work : Platform.cond;  (* flusher wakeups *)
  room : Platform.cond;  (* stalled writers *)
  mutable active : memtable;
  mutable frozen : memtable list;  (* oldest last *)
  mutable runs : run list;  (* newest first *)
  mutable next_page : int;
  mutable next_seq : int;
  mutable free_segs : int list;
  mutable stopping : bool;
  st : stats;
}

let stats t = t.st

let seg_size cfg = cfg.wal_bytes / max_segments

let seg_off cfg i = wal_off + (i * seg_size cfg)

(* --- WAL ------------------------------------------------------------------- *)

(* Segment record: len u32 | klen u16 | del u8 | pad u8 | key | value.
   The segment's used counter (in the header, persisted after the record)
   is the validity frontier. *)
let wal_append t mt key (value : Bytes.t option) =
  let klen = String.length key in
  let vlen = match value with Some v -> Bytes.length v | None -> 0 in
  let len = 8 + klen + vlen in
  let seg = mt.seg in
  let used_off = seg_meta_off seg + 8 in
  let used = Pmem.get_u64 t.pm used_off in
  assert (used + len <= seg_size t.cfg) (* update() freezes before this *);
  let base = seg_off t.cfg seg + used in
  let buf = Bytes.create len in
  Bytes.set_int32_le buf 0 (Int32.of_int len);
  Bytes.set_uint16_le buf 4 klen;
  Bytes.set_uint8 buf 6 (if value = None then 1 else 0);
  Bytes.blit_string key 0 buf 8 klen;
  (match value with Some v -> Bytes.blit v 0 buf (8 + klen) vlen | None -> ());
  Pmem.blit_from_bytes t.pm buf ~src:0 ~dst:base ~len;
  Pmem.persist t.pm base len;
  Pmem.set_u64 t.pm used_off (used + len);
  Pmem.persist t.pm used_off 8

let wal_scan t seg =
  let used = Pmem.get_u64 t.pm (seg_meta_off seg + 8) in
  let base = seg_off t.cfg seg in
  let acc = ref [] in
  let pos = ref 0 in
  while !pos < used do
    let len = Pmem.get_u32 t.pm (base + !pos) in
    let klen = Pmem.get_u16 t.pm (base + !pos + 4) in
    let del = Pmem.get_u8 t.pm (base + !pos + 6) = 1 in
    let key =
      let b = Bytes.create klen in
      Pmem.blit_to_bytes t.pm ~src:(base + !pos + 8) b ~dst:0 ~len:klen;
      Bytes.to_string b
    in
    let vlen = len - 8 - klen in
    let value =
      if del then None
      else begin
        let v = Bytes.create vlen in
        Pmem.blit_to_bytes t.pm ~src:(base + !pos + 8 + klen) v ~dst:0 ~len:vlen;
        Some v
      end
    in
    acc := (key, value) :: !acc;
    pos := !pos + len
  done;
  List.rev !acc

let seg_reset t seg ~seq ~live =
  Pmem.set_u64 t.pm (seg_meta_off seg) seq;
  Pmem.set_u64 t.pm (seg_meta_off seg + 8) 0;
  Pmem.set_u64 t.pm (seg_meta_off seg + 16) (if live then 1 else 0);
  Pmem.persist t.pm (seg_meta_off seg) 24

(* --- catalog ----------------------------------------------------------------- *)

let persist_catalog t =
  let runs = List.rev t.runs (* oldest first on media *) in
  Pmem.set_u64 t.pm cat_off (List.length runs);
  List.iteri
    (fun i r ->
      let o = cat_off + 8 + (i * 16) in
      Pmem.set_u32 t.pm o r.start_page;
      Pmem.set_u32 t.pm (o + 4) r.data_pages;
      Pmem.set_u32 t.pm (o + 8) r.index_pages;
      Pmem.set_u32 t.pm (o + 12) r.rseq)
    runs;
  Pmem.persist t.pm cat_off (8 + (16 * max 1 (List.length runs)))

(* --- run building ------------------------------------------------------------- *)

let ps t = Ssd.page_size t.ssd

let alloc_pages t n =
  if t.next_page + n > Ssd.pages t.ssd then t.next_page <- 0;
  if t.next_page + n > Ssd.pages t.ssd then
    failwith "Lsm_store: SSD exhausted (size the device larger)";
  let p = t.next_page in
  t.next_page <- p + n;
  p

let encode_index entries =
  let buf = Buffer.create 4096 in
  Buffer.add_int32_le buf (Int32.of_int (Array.length entries));
  Array.iter
    (fun (key, page, size, del) ->
      Buffer.add_uint16_le buf (String.length key);
      Buffer.add_string buf key;
      Buffer.add_int32_le buf (Int32.of_int page);
      Buffer.add_int32_le buf (Int32.of_int size);
      Buffer.add_uint8 buf (if del then 1 else 0))
    entries;
  Buffer.to_bytes buf

let decode_index b =
  let pos = ref 4 in
  let n = Int32.to_int (Bytes.get_int32_le b 0) in
  Array.init n (fun _ ->
      let klen = Bytes.get_uint16_le b !pos in
      let key = Bytes.sub_string b (!pos + 2) klen in
      let page = Int32.to_int (Bytes.get_int32_le b (!pos + 2 + klen)) in
      let size = Int32.to_int (Bytes.get_int32_le b (!pos + 6 + klen)) in
      let del = Bytes.get_uint8 b (!pos + 10 + klen) = 1 in
      pos := !pos + 11 + klen;
      (key, page, size, del))

(* Write a sorted (key, value option, size) sequence as a run. *)
let write_run t ~rseq kvs =
  let page_size = ps t in
  let n = List.length kvs in
  let live = List.filter (fun (_, v, _) -> v <> None) kvs in
  let data_pages = List.length live in
  let index_entries = Array.make n ("", 0, 0, false) in
  let data = Bytes.make (max page_size (data_pages * page_size)) '\000' in
  let dp = ref 0 in
  List.iteri
    (fun i (key, value, size) ->
      match value with
      | Some v ->
          Bytes.blit v 0 data (!dp * page_size) (min size page_size);
          index_entries.(i) <- (key, !dp, size, false);
          incr dp
      | None -> index_entries.(i) <- (key, -1, 0, true))
    kvs;
  let index_bytes = encode_index index_entries in
  let index_pages = (Bytes.length index_bytes + page_size - 1) / page_size in
  let total = data_pages + index_pages in
  let start_page = alloc_pages t total in
  if data_pages > 0 then
    Ssd.write t.ssd ~page:start_page data ~off:0 ~count:data_pages;
  let ipad = Bytes.make (index_pages * page_size) '\000' in
  Bytes.blit index_bytes 0 ipad 0 (Bytes.length index_bytes);
  Ssd.write t.ssd ~page:(start_page + data_pages) ipad ~off:0 ~count:index_pages;
  { start_page; data_pages; index_pages; rseq; index = index_entries }

let read_run_index t ~start_page ~data_pages ~index_pages ~rseq =
  let page_size = ps t in
  let b = Bytes.create (index_pages * page_size) in
  Ssd.read t.ssd ~page:(start_page + data_pages) b ~off:0 ~count:index_pages;
  { start_page; data_pages; index_pages; rseq; index = decode_index b }

(* --- flusher / compaction ------------------------------------------------------ *)

let sorted_kvs mt =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) mt.entries []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (k, v) ->
         (k, v, match v with Some b -> Bytes.length b | None -> 0))

let major_compaction t =
  (* Merge every run, newest wins, dropping tombstones. *)
  let merged = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      (* old runs processed after new ones must not override *)
      ignore r)
    [];
  let runs_old_first = List.rev t.runs in
  List.iter
    (fun r ->
      Array.iter
        (fun (key, page, size, del) ->
          if del then Hashtbl.replace merged key None
          else begin
            let v = Bytes.create size in
            if size > 0 then begin
              let page_size = ps t in
              let scratch = Bytes.create page_size in
              Ssd.read t.ssd ~page:(r.start_page + page) scratch ~off:0 ~count:1;
              Bytes.blit scratch 0 v 0 (min size page_size)
            end;
            Hashtbl.replace merged key (Some v)
          end)
        r.index)
    runs_old_first;
  let kvs =
    Hashtbl.fold
      (fun k v acc -> match v with Some b -> (k, Some b, Bytes.length b) :: acc | None -> acc)
      merged []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  t.next_seq <- t.next_seq + 1;
  let run = if kvs = [] then None else Some (write_run t ~rseq:t.next_seq kvs) in
  Platform.with_lock t.m (fun () ->
      t.runs <- (match run with Some r -> [ r ] | None -> []);
      persist_catalog t;
      t.st.compactions <- t.st.compactions + 1)

let flusher t () =
  let continue_ = ref true in
  while !continue_ do
    let job =
      Platform.with_lock t.m (fun () ->
          while t.frozen = [] && not t.stopping do
            t.work.Platform.wait t.m
          done;
          if t.frozen = [] then None
          else begin
            let rec last = function [ x ] -> x | _ :: r -> last r | [] -> assert false in
            Some (last t.frozen)
          end)
    in
    match job with
    | None -> continue_ := false
    | Some mt ->
        let kvs = sorted_kvs mt in
        let run = write_run t ~rseq:mt.seq kvs in
        Platform.with_lock t.m (fun () ->
            t.runs <- run :: t.runs;
            persist_catalog t;
            t.frozen <-
              List.filter (fun m -> m != mt) t.frozen;
            seg_reset t mt.seg ~seq:0 ~live:false;
            t.free_segs <- mt.seg :: t.free_segs;
            t.st.flushes <- t.st.flushes + 1;
            t.room.Platform.broadcast ());
        if List.length t.runs > t.cfg.run_limit then major_compaction t
  done

(* --- lifecycle -------------------------------------------------------------------- *)

let fresh_stats () =
  {
    flushes = 0;
    compactions = 0;
    write_stalls = 0;
    stall_ns = 0;
    recovery_metadata_ns = 0;
    recovery_replay_ns = 0;
  }

let new_memtable seg seq = { entries = Hashtbl.create 1024; bytes = 0; seg; seq }

let make platform pm ssd cfg =
  {
    platform;
    pm;
    ssd;
    cfg;
    m = platform.Platform.new_mutex ();
    work = platform.Platform.new_cond ();
    room = platform.Platform.new_cond ();
    active = new_memtable 0 1;
    frozen = [];
    runs = [];
    next_page = 0;
    next_seq = 1;
    free_segs = List.init (max_segments - 1) (fun i -> i + 1);
    stopping = false;
    st = fresh_stats ();
  }

let create platform pm ssd cfg =
  assert (pmem_bytes cfg <= Pmem.size pm);
  let t = make platform pm ssd cfg in
  Pmem.set_u64 pm hdr_off magic;
  Pmem.persist pm hdr_off 8;
  for i = 0 to max_segments - 1 do
    seg_reset t i ~seq:(if i = 0 then 1 else 0) ~live:(i = 0)
  done;
  persist_catalog t;
  platform.Platform.spawn "lsm-flusher" (flusher t);
  t

let recover platform pm ssd cfg =
  if Pmem.get_u64 pm hdr_off <> magic then
    invalid_arg "Lsm_store.recover: no store on device";
  let t = make platform pm ssd cfg in
  let t0 = platform.Platform.now () in
  (* Catalog + run indexes from the SSD. *)
  let nruns = Pmem.get_u64 pm cat_off in
  let runs = ref [] in
  for i = 0 to nruns - 1 do
    let o = cat_off + 8 + (i * 16) in
    let r =
      read_run_index t ~start_page:(Pmem.get_u32 pm o)
        ~data_pages:(Pmem.get_u32 pm (o + 4))
        ~index_pages:(Pmem.get_u32 pm (o + 8))
        ~rseq:(Pmem.get_u32 pm (o + 12))
    in
    runs := r :: !runs (* newest first *)
  done;
  t.runs <- !runs;
  (* Recompute the bump pointer past the highest catalogued page. *)
  List.iter
    (fun r ->
      t.next_page <- max t.next_page (r.start_page + r.data_pages + r.index_pages))
    t.runs;
  t.st.recovery_metadata_ns <- platform.Platform.now () - t0;
  (* WAL replay: live segments in sequence order. *)
  let t1 = platform.Platform.now () in
  let live_segs =
    List.init max_segments Fun.id
    |> List.filter (fun i -> Pmem.get_u64 pm (seg_meta_off i + 16) = 1)
    |> List.sort (fun a b ->
           compare (Pmem.get_u64 pm (seg_meta_off a)) (Pmem.get_u64 pm (seg_meta_off b)))
  in
  let memtables =
    List.map
      (fun seg ->
        let seq = Pmem.get_u64 pm (seg_meta_off seg) in
        let mt = new_memtable seg seq in
        List.iter
          (fun (k, v) ->
            mt.entries |> fun h ->
            Hashtbl.replace h k v;
            mt.bytes <-
              mt.bytes + String.length k
              + (match v with Some b -> Bytes.length b | None -> 0))
          (wal_scan t seg);
        mt)
      live_segs
  in
  (match List.rev memtables with
  | [] ->
      let seg = 0 in
      seg_reset t seg ~seq:t.next_seq ~live:true;
      t.active <- new_memtable seg t.next_seq
  | newest :: older ->
      t.active <- newest;
      t.frozen <- older);
  t.next_seq <-
    1 + List.fold_left (fun acc mt -> max acc mt.seq) 1 memtables
    |> max (1 + List.fold_left (fun acc r -> max acc r.rseq) 1 t.runs);
  t.free_segs <-
    List.init max_segments Fun.id
    |> List.filter (fun i -> Pmem.get_u64 pm (seg_meta_off i + 16) = 0);
  t.st.recovery_replay_ns <- platform.Platform.now () - t1;
  platform.Platform.spawn "lsm-flusher" (flusher t);
  t

let stop t =
  Platform.with_lock t.m (fun () ->
      t.stopping <- true;
      t.work.Platform.broadcast ())

(* --- operations ------------------------------------------------------------------- *)

(* Freeze the active memtable, stalling if L0 is at its limit. Caller
   holds the store lock. *)
let rec freeze_locked t =
  if List.length t.frozen >= t.cfg.l0_limit then begin
    (* RocksDB write stall: L0 full, compaction busy. *)
    t.st.write_stalls <- t.st.write_stalls + 1;
    let t0 = t.platform.Platform.now () in
    t.room.Platform.wait t.m;
    t.st.stall_ns <- t.st.stall_ns + (t.platform.Platform.now () - t0);
    freeze_locked t
  end
  else begin
    match t.free_segs with
    | [] ->
        (* All WAL segments busy: wait for a flush. *)
        t.st.write_stalls <- t.st.write_stalls + 1;
        let t0 = t.platform.Platform.now () in
        t.room.Platform.wait t.m;
        t.st.stall_ns <- t.st.stall_ns + (t.platform.Platform.now () - t0);
        freeze_locked t
    | seg :: rest ->
        t.free_segs <- rest;
        t.next_seq <- t.next_seq + 1;
        seg_reset t seg ~seq:t.next_seq ~live:true;
        t.frozen <- t.active :: t.frozen;
        t.active <- new_memtable seg t.next_seq;
        t.work.Platform.signal ()
  end

(* Space the active WAL segment still has. *)
let seg_room t mt =
  seg_size t.cfg - Pmem.get_u64 t.pm (seg_meta_off mt.seg + 8)

let update t key value =
  t.platform.Platform.consume put_cpu_ns;
  Platform.with_lock t.m (fun () ->
      let rec_len =
        8 + String.length key
        + (match value with Some v -> Bytes.length v | None -> 0)
      in
      if t.active.bytes >= t.cfg.memtable_bytes || seg_room t t.active < rec_len
      then freeze_locked t;
      let mt = t.active in
      wal_append t mt key value;
      Hashtbl.replace mt.entries key value;
      mt.bytes <-
        mt.bytes + String.length key + 32
        + (match value with Some v -> Bytes.length v | None -> 0))

let put t key value = update t key (Some value)

let delete t key =
  update t key None;
  true

let find_in_run t r key buf =
  (* Binary search the sorted index. *)
  let lo = ref 0 and hi = ref (Array.length r.index - 1) in
  let found = ref None in
  while !found = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let k, page, size, del = r.index.(mid) in
    let c = compare key k in
    if c = 0 then found := Some (page, size, del)
    else if c > 0 then lo := mid + 1
    else hi := mid - 1
  done;
  match !found with
  | Some (_, _, true) -> Some (-1)
  | Some (page, size, _) ->
      let page_size = ps t in
      let scratch = Bytes.create page_size in
      Ssd.read t.ssd ~page:(r.start_page + page) scratch ~off:0 ~count:1;
      Bytes.blit scratch 0 buf 0 (min size (Bytes.length buf));
      Some size
  | None -> None

let get t key buf =
  t.platform.Platform.consume get_cpu_ns;
  let from_mem =
    Platform.with_lock t.m (fun () ->
        match Hashtbl.find_opt t.active.entries key with
        | Some v -> Some v
        | None ->
            let rec scan = function
              | [] -> None
              | mt :: rest -> (
                  match Hashtbl.find_opt mt.entries key with
                  | Some v -> Some v
                  | None -> scan rest)
            in
            scan t.frozen)
  in
  match from_mem with
  | Some None -> -1
  | Some (Some v) ->
      Bytes.blit v 0 buf 0 (min (Bytes.length v) (Bytes.length buf));
      Bytes.length v
  | None ->
      let runs = Platform.with_lock t.m (fun () -> t.runs) in
      let rec scan = function
        | [] -> -1
        | r :: rest -> (
            match find_in_run t r key buf with
            | Some size -> size
            | None -> scan rest)
      in
      scan runs

let flush_now t =
  Platform.with_lock t.m (fun () -> freeze_locked t);
  (* Wait for the flusher to drain. *)
  let rec wait () =
    let busy = Platform.with_lock t.m (fun () -> t.frozen <> []) in
    if busy then begin
      t.platform.Platform.sleep 100_000;
      wait ()
    end
  in
  wait ()

let footprint t =
  let mem_bytes =
    t.active.bytes + List.fold_left (fun acc mt -> acc + mt.bytes) 0 t.frozen
  in
  let index_bytes =
    List.fold_left
      (fun acc r ->
        acc
        + Array.fold_left (fun a (k, _, _, _) -> a + String.length k + 16) 0 r.index)
      0 t.runs
  in
  let ssd_pages =
    List.fold_left (fun acc r -> acc + r.data_pages + r.index_pages) 0 t.runs
  in
  (mem_bytes + index_bytes, pmem_bytes t.cfg, ssd_pages * ps t)
