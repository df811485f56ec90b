(* Table 3: time breakdown of write requests — where the time of a 4 KB
   and a 16 KB whole-object write goes: NVMe write, B-tree, metadata, log
   flush. Paper result: the NVMe write dominates (88-96%); software
   overhead ~10%; metadata and log costs are request-size-agnostic.

   The columns are sums of the put spans' segments (see the write
   pipeline in dstore.ml), averaged per put. *)

open Dstore_platform
open Dstore_util
open Dstore_workload
open Dstore_core
open Common
module Span = Dstore_obs.Span
module Obs = Dstore_obs.Obs

let ops = 2000

type columns = { nvme : int; btree : int; meta : int; log : int }

let total c = c.nvme + c.btree + c.meta + c.log

(* The paper's "NVMe write" is the staged claim and payload; "Metadata"
   the lock hold (conflict scan, old-binding lookup, record write) and
   the metadata entry; "Log flush" the record flush plus the commit
   flush. A single client never waits on a ticket. *)
let columns_of seg =
  {
    nvme = seg Span.S_stage + seg Span.S_data;
    btree = seg Span.S_index;
    meta = seg Span.S_lock + seg Span.S_structs;
    log = seg Span.S_append + seg Span.S_fence + seg Span.S_commit;
  }

(* Per-put means over [ops] single-client puts of [value_bytes] bytes,
   each in a span this loop owns. *)
let columns opts value_bytes =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let sums = Array.make Span.n_segs 0 in
  Sim.spawn sim "m" (fun () ->
      let st, _, _, _ = Systems.dstore_store p (scale_of opts) in
      let spans = (Dstore.obs st).Obs.spans in
      let ctx = Dstore.ds_init st in
      let v = Bytes.create value_bytes in
      for i = 0 to ops - 1 do
        let key = Ycsb.key i in
        let sp = Span.start spans Span.Put key in
        Dstore.oput ~span:sp ctx key v;
        Span.finish sp;
        List.iter
          (fun sg ->
            let i = Span.seg_index sg in
            sums.(i) <- sums.(i) + Span.segment sp sg)
          Span.[ S_stage; S_data; S_index; S_lock; S_structs; S_append; S_fence; S_commit ]
      done;
      Dstore.stop st);
  Sim.run sim;
  columns_of (fun sg -> sums.(Span.seg_index sg) / ops)

let row t label c =
  let total = total c in
  let pct x = Tablefmt.pct (100.0 *. float_of_int x /. float_of_int total) in
  Tablefmt.row t
    [ label; "time (ns)"; string_of_int c.nvme; string_of_int c.btree;
      string_of_int c.meta; string_of_int c.log; string_of_int total ];
  Tablefmt.row t
    [ ""; "% of total"; pct c.nvme; pct c.btree; pct c.meta; pct c.log; "100%" ]

let run opts =
  hdr "Table 3: Time breakdown of write requests (single client)";
  let t =
    Tablefmt.create
      [ "size"; ""; "NVMe write"; "BTree"; "Metadata"; "Log flush"; "Total" ]
  in
  row t "4KB" (columns opts 4096);
  Tablefmt.sep t;
  row t "16KB" (columns opts 16384);
  Tablefmt.print t;
  note "paper: 4KB = 8900/299/292/616 ns (NVMe 88%%); 16KB NVMe share 96%%;";
  note "metadata and log-flush costs are request-size-agnostic."
