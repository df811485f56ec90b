(* OCC transaction sweep: throughput and abort rate vs contention.

   Multi-key transactions validate their read-set under the frontend lock
   and append the write-set as one all-or-nothing log span (begin /
   members / commit); only a validated span writes its SSD payloads. The
   hotter the key distribution, the more often a racing commit moves a
   read key's version between a txn's first read and its validation, and
   the abort rate climbs. An aborted attempt costs retry work but no
   device work; a committing one holds its member keys' tickets across
   its payload writes, so clients touching those keys briefly wait.

   The primary sweep measures exactly that: read-modify-write
   transactions of 2/4/8 Zipf-drawn distinct keys across theta in
   {0.5, 0.7, 0.9, 0.99}. Acceptance (a `@torture` rule greps for
   TXN-SWEEP OK): within each txn size the abort rate must be
   nondecreasing in theta, and a single-key blind-put transaction —
   which pays the span framing (3 log records, same 3 fences) but does
   no validation reads — must stay within 10% of plain oput throughput:
   the span's extra two 64-byte log lines ride the existing batch-style
   flush, so framing must not tax the common case. Every txn cell must
   also write exactly its committed txns' pages to the SSD over the
   window: one page per member, none for an aborted attempt. And no txn
   may give up: with the default 8 retries, a fixed key set retried under
   reservations commits within 3 attempts at any theta. *)

open Dstore_platform
open Dstore_ssd
open Dstore_util
open Dstore_core
open Dstore_workload
open Common
module Json = Dstore_obs.Json

let value_bytes = 64

type cell = {
  ops : int;  (* successful client-level operations *)
  gave_up : int;  (* txns that exhausted their retries *)
  elapsed_ns : int;
  committed : int;  (* engine counters over the whole run *)
  aborted : int;
  members : int;
  ssd_pages : int;  (* SSD pages written during the window *)
}

(* One simulated run: populate [records] objects, then have
   [opts.clients] clients loop [mk_op] until the window closes. [mk_op]
   gets a per-client ctx + rng and returns the op thunk. *)
let run_cell opts ~records ~mk_op =
  let sim = Sim.create () in
  let p = Sim_platform.make ~parallelism:opts.clients sim in
  let rng = Rng.create opts.seed in
  let built = ref None in
  Sim.spawn sim "setup" (fun () ->
      built :=
        Some
          (Systems.dstore_store p
             { (scale_of opts) with Systems.objects = records }));
  Sim.run sim;
  let st, _, ssd, _ = Option.get !built in
  let loaders = 8 in
  let per = (records + loaders - 1) / loaders in
  for l = 0 to loaders - 1 do
    let lr = Rng.split rng in
    Sim.spawn sim "loader" (fun () ->
        let ctx = Dstore.ds_init st in
        let v = Rng.bytes lr value_bytes in
        for i = l * per to min records ((l + 1) * per) - 1 do
          Dstore.oput ctx (Ycsb.key i) v
        done)
  done;
  Sim.run sim;
  let bytes0 = (Ssd.stats ssd).Ssd.bytes_written in
  let t0 = Sim.now sim in
  let t_end = t0 + opts.window_ns in
  let ops = ref 0 and gave_up = ref 0 in
  for _ = 1 to opts.clients do
    let cr = Rng.split rng in
    Sim.spawn sim "client" (fun () ->
        let ctx = Dstore.ds_init st in
        let op = mk_op ctx cr in
        while Sim.now sim < t_end do
          match op () with Ok () -> incr ops | Error _ -> incr gave_up
        done)
  done;
  Sim.run sim;
  let elapsed_ns = Sim.now sim - t0 in
  let s = Dipper.stats (Dstore.engine st) in
  let c =
    {
      ops = !ops;
      gave_up = !gave_up;
      elapsed_ns;
      committed = s.Dipper.txns_committed;
      aborted = s.Dipper.txns_aborted;
      members = s.Dipper.txn_member_records;
      ssd_pages =
        ((Ssd.stats ssd).Ssd.bytes_written - bytes0) / Dstore.page_bytes st;
    }
  in
  Sim.spawn sim "stopper" (fun () -> Dstore.stop st);
  Sim.run sim;
  c

let ktps c = float_of_int c.ops /. (float_of_int c.elapsed_ns /. 1e9) /. 1e3

(* Abort rate over commit attempts: every validation failure counts,
   including ones a later retry turned into a commit. *)
let abort_rate c =
  let attempts = c.committed + c.aborted in
  if attempts = 0 then 0.0 else float_of_int c.aborted /. float_of_int attempts

(* Device work per commit. Every value here fits one page, so a txn of
   [size] members must write exactly [size] pages per committed txn; any
   page written by an aborted attempt pushes the figure above. *)
let pages_per_commit c =
  if c.committed = 0 then 0.0
  else float_of_int c.ssd_pages /. float_of_int c.committed

let pages_exact ~size c = c.ssd_pages = size * c.committed

(* Read-modify-write txn over [size] distinct Zipf-drawn keys. *)
let rmw_op ~theta ~size ~records ctx rng =
  let zipf = Zipf.create ~theta records in
  let value = Rng.bytes rng value_bytes in
  fun () ->
    let keys = ref [] in
    let n = ref 0 in
    while !n < size do
      let k = Ycsb.key (Zipf.draw_scrambled zipf rng) in
      if not (List.mem k !keys) then begin
        keys := k :: !keys;
        incr n
      end
    done;
    Dstore_txn.txn ctx (fun tx ->
        List.iter
          (fun k ->
            ignore (Dstore_txn.get tx k);
            Dstore_txn.put tx k value)
          !keys)

(* Single-key blind put as a transaction: span framing, empty read-set. *)
let txn1_op ~records ctx rng =
  let value = Rng.bytes rng value_bytes in
  fun () ->
    Dstore_txn.txn ctx (fun tx ->
        Dstore_txn.put tx (Ycsb.key (Rng.int rng records)) value)

(* The same blind put down the plain per-op path. *)
let oput_op ~records ctx rng =
  let value = Rng.bytes rng value_bytes in
  fun () ->
    Dstore.oput ctx (Ycsb.key (Rng.int rng records)) value;
    Ok ()

let thetas = [ 0.5; 0.7; 0.9; 0.99 ]

let sizes = [ 2; 4; 8 ]

let cell_json ~size ~theta c =
  Json.Obj
    [
      ("txn_size", Json.Int size);
      ("theta", Json.Float theta);
      ("ktxn_per_s", Json.Float (ktps c));
      ("committed", Json.Int c.committed);
      ("aborted", Json.Int c.aborted);
      ("abort_rate", Json.Float (abort_rate c));
      ("retries_exhausted", Json.Int c.gave_up);
      ("member_records", Json.Int c.members);
      ("ssd_pages", Json.Int c.ssd_pages);
    ]

let run opts =
  (* Concentrate the key space so the theta sweep actually spans the
     contention range: over a huge table even theta=0.99 rarely collides. *)
  let records = min opts.objects 2_000 in
  hdr
    (Printf.sprintf
       "txn: OCC abort/throughput sweep (RMW txns, %d objects, %d clients)"
       records opts.clients);
  let t =
    Tablefmt.create
      [
        "txn size"; "theta"; "Ktxn/s"; "committed"; "aborted"; "abort rate";
        "gave up"; "SSD pages/txn";
      ]
  in
  let monotone = ref true and exact = ref true and gave_up = ref 0 in
  List.iter
    (fun size ->
      let prev = ref (-1.0) in
      List.iter
        (fun theta ->
          let c =
            run_cell opts ~records ~mk_op:(rmw_op ~theta ~size ~records)
          in
          let rate = abort_rate c in
          (* Nondecreasing within each size, with a hair of slack for
             sampling noise on near-equal cells. *)
          if rate < !prev -. 0.005 then monotone := false;
          prev := max !prev rate;
          if not (pages_exact ~size c) then exact := false;
          gave_up := !gave_up + c.gave_up;
          Tablefmt.row t
            [
              string_of_int size;
              Printf.sprintf "%.2f" theta;
              Tablefmt.f1 (ktps c);
              string_of_int c.committed;
              string_of_int c.aborted;
              Printf.sprintf "%.1f%%" (100.0 *. rate);
              string_of_int c.gave_up;
              Tablefmt.f2 (pages_per_commit c);
            ];
          record_json (cell_json ~size ~theta c))
        thetas)
    sizes;
  Tablefmt.print t;
  note "abort rate = aborted / (committed + aborted): every validation";
  note "failure counts, including attempts a later retry committed.";
  note "SSD pages/txn = pages written / committed txns; gate: = txn size.";
  note "gave up = txns that exhausted the default 8 retries; gate: 0.";
  print_newline ();
  hdr "txn: single-key blind-put txn vs plain oput (span framing overhead)";
  let c1 = run_cell opts ~records ~mk_op:(txn1_op ~records) in
  let c0 = run_cell opts ~records ~mk_op:(oput_op ~records) in
  let tp1 = ktps c1 and tp0 = ktps c0 in
  if not (pages_exact ~size:1 c1) then exact := false;
  let overhead = abs_float (tp1 -. tp0) /. tp0 in
  let t2 = Tablefmt.create [ "path"; "Kops/s"; "log records/op" ] in
  Tablefmt.row t2
    [
      "txn (1 member)";
      Tablefmt.f1 tp1;
      (* begin + member + commit *)
      (if c1.committed = 0 then "-"
       else
         Tablefmt.f2
           (float_of_int (c1.members + (2 * c1.committed))
           /. float_of_int c1.committed));
    ];
  Tablefmt.row t2 [ "plain oput"; Tablefmt.f1 tp0; Tablefmt.f2 1.0 ];
  Tablefmt.print t2;
  note "delta %.1f%% (gate: <= 10%%) — the span's 2 framing lines ride the"
    (100.0 *. overhead);
  note "existing 3-fence batched flush, so framing is bandwidth, not fences.";
  record_json
    (Json.Obj
       [
         ("comparison", Json.String "txn1_vs_oput");
         ("txn1_kops", Json.Float tp1);
         ("oput_kops", Json.Float tp0);
         ("overhead", Json.Float overhead);
       ]);
  print_newline ();
  let gave_up = !gave_up + c1.gave_up in
  if !monotone && !exact && gave_up = 0 && overhead <= 0.10 then
    Printf.printf
      "TXN-SWEEP OK: abort rate nondecreasing in theta for every txn size, \
       SSD pages = txn size per commit, no txn gave up, single-key txn \
       within %.1f%% of oput\n"
      (100.0 *. overhead)
  else begin
    if not !monotone then
      print_endline
        "TXN-SWEEP FAIL: abort rate not monotone in theta (see table)";
    if not !exact then
      print_endline
        "TXN-SWEEP FAIL: SSD pages per commit differ from txn size — an \
         aborted attempt did device work (see table)";
    if gave_up > 0 then
      Printf.printf
        "TXN-SWEEP FAIL: %d txns exhausted their retries (gate: 0)\n" gave_up;
    if overhead > 0.10 then
      Printf.printf
        "TXN-SWEEP FAIL: single-key txn %.1f%% off plain oput (gate: 10%%)\n"
        (100.0 *. overhead)
  end
