open Dstore_platform
open Dstore_pmem
open Dstore_memory
open Dstore_structs
open Dstore_core

type config = {
  space_bytes : int;
  undo_bytes : int;
  max_objects : int;
  op_cpu_ns : int;
      (* Modeled mongod + PMSE engine software path per operation (message
         handling, BSON, pmemobj transaction bookkeeping), calibrated to
         the paper's Table 5 throughput; zero for functional tests. *)
}

let default_config =
  {
    space_bytes = 64 * 1024 * 1024;
    undo_bytes = 1024 * 1024;
    max_objects = 1 lsl 20;
    op_cpu_ns = 25_000;
  }

type stats = {
  mutable txns : int;
  mutable undo_entries : int;
  mutable rollbacks : int;
  mutable recovery_ns : int;
}

(* PMEM layout: [hdr 4096 | undo log | object space].
   Header: magic u64 | undo_count u64 | undo_used u64. *)
let magic = 0x494E4C4E (* "INLN" *)

let hdr_off = 0

let undo_off = 4096

let space_off cfg = undo_off + cfg.undo_bytes

let pmem_bytes cfg = space_off cfg + cfg.space_bytes

type tx = {
  mutable active : bool;
  mutable skip : bool;  (* capture disabled for fresh-allocation blits *)
  mutable ranges : (int * int) list;  (* space-relative modified ranges *)
}

type t = {
  platform : Platform.t;
  pm : Pmem.t;
  cfg : config;
  space : Space.t;  (* over the undo-wrapped PMEM view *)
  btree : Btree.t;
  tx : tx;
  writer : Platform.mutex;
  st : stats;
}

let stats t = t.st

(* --- undo log ------------------------------------------------------------------ *)

(* Append (space_off, old bytes) and persist it before the in-place write
   may proceed — the libpmemobj undo rule. *)
let undo_append pm cfg st off len =
  let used = Pmem.get_u64 pm (hdr_off + 16) in
  if used + 16 + len > cfg.undo_bytes then
    failwith "Inline_store: undo log overflow (transaction too large)";
  let e = undo_off + used in
  Pmem.set_u64 pm e off;
  Pmem.set_u64 pm (e + 8) len;
  Pmem.blit_within pm ~src:(space_off cfg + off) ~dst:(e + 16) ~len;
  Pmem.persist pm e (16 + len);
  Pmem.set_u64 pm (hdr_off + 16) (used + 16 + len);
  Pmem.set_u64 pm (hdr_off + 8) (Pmem.get_u64 pm (hdr_off + 8) + 1);
  Pmem.persist pm (hdr_off + 8) 16;
  st.undo_entries <- st.undo_entries + 1

let undo_clear pm =
  Pmem.set_u64 pm (hdr_off + 8) 0;
  Pmem.set_u64 pm (hdr_off + 16) 0;
  Pmem.persist pm (hdr_off + 8) 16

(* Roll an interrupted transaction back: entries restored newest-first. *)
let undo_rollback pm cfg =
  let n = Pmem.get_u64 pm (hdr_off + 8) in
  let entries = ref [] in
  let pos = ref 0 in
  for _ = 1 to n do
    let e = undo_off + !pos in
    let off = Pmem.get_u64 pm e in
    let len = Pmem.get_u64 pm (e + 8) in
    entries := (e + 16, off, len) :: !entries;
    pos := !pos + 16 + len
  done;
  List.iter
    (fun (src, off, len) ->
      Pmem.blit_within pm ~src ~dst:(space_off cfg + off) ~len;
      Pmem.persist pm (space_off cfg + off) len)
    !entries;
  undo_clear pm;
  n > 0

(* --- construction ----------------------------------------------------------------- *)

(* Wrap the space's PMEM view with the undo-capture barrier. *)
let wrap pm cfg (tx : tx) st (base : Mem.t) : Mem.t =
  let pre off len =
    if tx.active && not tx.skip then begin
      undo_append pm cfg st off len;
      tx.ranges <- (off, len) :: tx.ranges
    end
  in
  {
    base with
    set_u8 = (fun o v -> pre o 1; base.Mem.set_u8 o v);
    set_u16 = (fun o v -> pre o 2; base.Mem.set_u16 o v);
    set_u32 = (fun o v -> pre o 4; base.Mem.set_u32 o v);
    set_u64 = (fun o v -> pre o 8; base.Mem.set_u64 o v);
    blit_from_bytes =
      (fun b ~src ~dst ~len ->
        pre dst len;
        base.Mem.blit_from_bytes b ~src ~dst ~len);
    blit_within =
      (fun ~src ~dst ~len ->
        pre dst len;
        base.Mem.blit_within ~src ~dst ~len);
    fill = (fun off len v -> pre off len; base.Mem.fill off len v);
  }

let fresh_stats () = { txns = 0; undo_entries = 0; rollbacks = 0; recovery_ns = 0 }

let make platform pm cfg ~fresh =
  let st = fresh_stats () in
  let tx = { active = false; skip = false; ranges = [] } in
  let base = Mem.of_pmem pm ~off:(space_off cfg) ~len:cfg.space_bytes in
  let wrapped = wrap pm cfg tx st base in
  let space = if fresh then Space.format wrapped else Space.attach wrapped in
  let btree =
    if fresh then Btree.create space ~root_slot:0 else Btree.attach space ~root_slot:0
  in
  {
    platform;
    pm;
    cfg;
    space;
    btree;
    tx;
    writer = platform.Platform.new_mutex ();
    st;
  }

let create platform pm cfg =
  assert (pmem_bytes cfg <= Pmem.size pm);
  let t = make platform pm cfg ~fresh:true in
  undo_clear pm;
  Space.persist_used t.space;
  Pmem.set_u64 pm hdr_off magic;
  Pmem.persist pm hdr_off 8;
  t

let recover platform pm cfg =
  if Pmem.get_u64 pm hdr_off <> magic then
    invalid_arg "Inline_store.recover: no store on device";
  let t0 = ref 0 in
  let t = make platform pm cfg ~fresh:false in
  t0 := t.platform.Platform.now ();
  if undo_rollback pm cfg then t.st.rollbacks <- t.st.rollbacks + 1;
  t.st.recovery_ns <- t.platform.Platform.now () - !t0;
  t

let stop _ = ()

(* --- transactions ------------------------------------------------------------------- *)

let tx_begin t =
  assert (not t.tx.active);
  t.tx.active <- true;
  t.tx.ranges <- []

(* Commit: flush every modified range, then truncate the undo log. *)
let tx_commit t =
  List.iter
    (fun (off, len) -> Pmem.persist t.pm (space_off t.cfg + off) len)
    t.tx.ranges;
  undo_clear t.pm;
  t.tx.active <- false;
  t.st.txns <- t.st.txns + 1

let with_tx t f =
  Platform.with_lock t.writer (fun () ->
      tx_begin t;
      match f () with
      | v ->
          tx_commit t;
          v
      | exception e ->
          (* Roll back in-memory state by replaying the undo log. *)
          t.tx.active <- false;
          ignore (undo_rollback t.pm t.cfg);
          t.st.rollbacks <- t.st.rollbacks + 1;
          raise e)

(* --- objects: blobs are [size u64 | bytes] in the space ----------------------------- *)

let blob_alloc_size size = 8 + max size 1

let costs = Config.costs

let put t key value =
  t.platform.Platform.consume t.cfg.op_cpu_ns;
  with_tx t (fun () ->
      let size = Bytes.length value in
      t.platform.Platform.consume (costs.btree_ns + costs.meta_ns);
      let blob = Space.alloc t.space (blob_alloc_size size) in
      (Space.mem t.space).Mem.set_u64 blob size;
      (* A fresh allocation needs no undo image; its bytes still must be
         persisted before commit (tracked as a modified range). *)
      t.tx.skip <- true;
      (Space.mem t.space).Mem.blit_from_bytes value ~src:0 ~dst:(blob + 8) ~len:size;
      t.tx.skip <- false;
      t.tx.ranges <- (blob, 8 + size) :: t.tx.ranges;
      match Btree.insert t.btree key blob with
      | None -> ()
      | Some old_blob ->
          let old_size = (Space.mem t.space).Mem.get_u64 old_blob in
          Space.free t.space old_blob (blob_alloc_size old_size))

let get t key buf =
  t.platform.Platform.consume t.cfg.op_cpu_ns;
  match Btree.find t.btree key with
  | None -> -1
  | Some blob ->
      t.platform.Platform.consume costs.lookup_ns;
      let m = Space.mem t.space in
      let size = m.Mem.get_u64 blob in
      (* Loads from PMEM: charge the media read at bandwidth. *)
      Pmem.bulk_read_cost t.pm size;
      m.Mem.blit_to_bytes ~src:(blob + 8) buf ~dst:0 ~len:(min size (Bytes.length buf));
      size

let delete t key =
  t.platform.Platform.consume t.cfg.op_cpu_ns;
  with_tx t (fun () ->
      t.platform.Platform.consume costs.btree_ns;
      match Btree.delete t.btree key with
      | None -> false
      | Some blob ->
          let size = (Space.mem t.space).Mem.get_u64 blob in
          Space.free t.space blob (blob_alloc_size size);
          true)

let object_count t = Btree.length t.btree

let footprint t =
  (0, 4096 + t.cfg.undo_bytes + Space.used_bytes t.space, 0)
