(* Per-operation causal spans with exact stall attribution.

   Every engine operation (and each checkpoint / recovery) opens a span.
   The span's lifetime is cut into *periods*: [seg] closes the period
   since the last cut and charges it to a named segment (index lookup,
   log append, SSD payload, ...), [finish] closes the final period into
   S_other. Inside a period, [stall] books *blame* — time the op spent
   waiting on a named cause (log-full, conflict ticket, SSD channel
   queue, ...) — and the period close subtracts that blame from the
   segment, so for every finished span

     sum(segments) + sum(blames) = t1 - t0          (exactly)

   which is the invariant the qcheck suite leans on: no double count, no
   gap. Checkpoint interference needs no per-device plumbing: the shared
   PMEM bandwidth domain exposes a cumulative "bulk busy" clock (how
   long a checkpoint clone / recovery copy has held the DIMMs), the
   recorder samples it at each period boundary, and the in-period delta
   — clamped to the period — is booked as Ckpt_interference blame.

   Zero-cost-when-disabled: [start] on a disabled recorder returns the
   shared [none] span, every mutator first checks [live], and nothing
   here ever calls [Platform.consume] or takes a lock — spans are pure
   observers of the virtual clock and cannot perturb the simulation. *)

open Dstore_util

(* --- cause taxonomy --------------------------------------------------------- *)

type cause =
  | Ckpt_interference  (* ckpt gate + Pmem.with_bulk bandwidth sharing *)
  | Log_full  (* append blocked until the checkpoint frees log space *)
  | Conflict_retry  (* per-key conflict ticket wait + retry *)
  | Batch_wait  (* group commit: co-batched with (n-1) other ops *)
  | Ssd_queue  (* SSD channel queueing *)
  | Repl_wait  (* replication: waiting for backup span acks *)
  | Txn_retry  (* OCC transaction: a retry waiting to reserve its keys *)
  | Repl_apply  (* backup: shipped entry queued behind the apply pipeline *)

let n_causes = 8

let cause_index = function
  | Ckpt_interference -> 0
  | Log_full -> 1
  | Conflict_retry -> 2
  | Batch_wait -> 3
  | Ssd_queue -> 4
  | Repl_wait -> 5
  | Txn_retry -> 6
  | Repl_apply -> 7

let cause_names =
  [|
    "ckpt_interference"; "log_full"; "conflict_retry"; "batch_wait";
    "ssd_queue"; "repl_wait"; "txn_retry"; "repl_apply";
  |]

let cause_label i = cause_names.(i)

(* --- segment taxonomy ------------------------------------------------------- *)

type seg =
  | S_index  (* B-tree: lookup on reads, insert on puts *)
  | S_ticket  (* ticket / reader-drain wait *)
  | S_lock  (* frontend lock hold: conflict check + log reserve *)
  | S_append  (* log record flush to PMEM *)
  | S_fence  (* commit word + closing flush/fence *)
  | S_data  (* SSD payload transfer *)
  | S_structs  (* metadata-zone / delete / cache update *)
  | S_stage  (* staged allocation under the frontend lock *)
  | S_commit  (* multi-record group: coalesced commit-word persist *)
  | S_ckpt_archive
  | S_ckpt_clone
  | S_ckpt_replay
  | S_ckpt_persist
  | S_ckpt_publish
  | S_rec_metadata
  | S_rec_replay
  | S_cache_fill  (* DRAM object-cache fill copy on a read miss *)
  | S_other  (* CPU glue between the named cuts *)

let n_segs = 18

let seg_index = function
  | S_index -> 0
  | S_ticket -> 1
  | S_lock -> 2
  | S_append -> 3
  | S_fence -> 4
  | S_data -> 5
  | S_structs -> 6
  | S_stage -> 7
  | S_commit -> 8
  | S_ckpt_archive -> 9
  | S_ckpt_clone -> 10
  | S_ckpt_replay -> 11
  | S_ckpt_persist -> 12
  | S_ckpt_publish -> 13
  | S_rec_metadata -> 14
  | S_rec_replay -> 15
  | S_cache_fill -> 16
  | S_other -> 17

let seg_names =
  [|
    "index"; "ticket_wait"; "lock_hold"; "log_append"; "commit_fence";
    "ssd_payload"; "struct_update"; "stage"; "group_commit";
    "ckpt_archive"; "ckpt_clone"; "ckpt_replay"; "ckpt_persist";
    "ckpt_publish"; "recovery_metadata"; "recovery_replay"; "cache_fill";
    "other";
  |]

type kind = Put | Get | Delete | Write | Read | Batch | Txn | Checkpoint | Recovery

let kind_name = function
  | Put -> "put"
  | Get -> "get"
  | Delete -> "delete"
  | Write -> "write"
  | Read -> "read"
  | Batch -> "batch"
  | Txn -> "txn"
  | Checkpoint -> "checkpoint"
  | Recovery -> "recovery"

(* Op spans feed the latency histogram / reservoir / time series;
   checkpoint and recovery spans only land in the span ring. *)
let is_op = function Checkpoint | Recovery -> false | _ -> true

(* --- span + recorder -------------------------------------------------------- *)

type t = {
  mutable kind : kind;
  mutable key : string;
  mutable n_ops : int;  (* ops this span represents (batch > 1) *)
  mutable seq : int;  (* assigned at finish *)
  mutable t0 : int;
  mutable t1 : int;  (* -1 while open *)
  mutable mark : int;  (* start of the current period *)
  mutable amb_mark : int;  (* ambient bulk-busy clock at [mark] *)
  mutable live : bool;
  amb : bool;  (* ambient attribution applies (not for ckpt/recovery) *)
  segs : int array;
  blames : int array;
  pending : int array;  (* direct blame booked in the open period *)
  events : int array;  (* stall events, matching dipper.* counters *)
  rec_ : recorder;
}

and recorder = {
  on : bool ref;
  now : unit -> int;
  mutable ambient : unit -> int;
      (* cumulative bulk-busy ns of the shared PMEM bandwidth domain *)
  ring : t option array;  (* finished spans, newest window *)
  mutable next_seq : int;
  hist : Histogram.t;  (* all op-span latencies (weighted) *)
  res : Attribution.t;
  ts : Timeseries.t;
  cause_ns : int array;  (* weighted blame mass totals *)
  cause_events : int array;
  mutable ops : int;  (* weighted op spans finished *)
}

let null_recorder =
  {
    on = ref false;
    now = (fun () -> 0);
    ambient = (fun () -> 0);
    ring = [||];
    next_seq = 0;
    hist = Histogram.create ~sub_bits:5 ();
    res = Attribution.create ~capacity:1 ~causes:cause_names ();
    ts = Timeseries.create ~bucket_ns:1 ~buckets:1 ~causes:cause_names ();
    cause_ns = Array.make n_causes 0;
    cause_events = Array.make n_causes 0;
    ops = 0;
  }

(* The shared dead span: what [start] hands out when the recorder is off.
   Every mutator bails on [live = false], so the disabled path performs
   no allocation and no writes at all. *)
let none =
  {
    kind = Put;
    key = "";
    n_ops = 0;
    seq = -1;
    t0 = 0;
    t1 = 0;
    mark = 0;
    amb_mark = 0;
    live = false;
    amb = false;
    segs = [||];
    blames = [||];
    pending = [||];
    events = [||];
    rec_ = null_recorder;
  }

let live s = s.live

let create ?(capacity = 1024) ?reservoir ?(bucket_ns = 100_000_000) ?ts_buckets
    ~enabled ~now () =
  let capacity = max 1 capacity in
  let reservoir = Option.value reservoir ~default:(max 64 (4 * capacity)) in
  let ts_buckets =
    Option.value ts_buckets ~default:(if capacity <= 1 then 1 else 64)
  in
  {
    on = ref enabled;
    now;
    ambient = (fun () -> 0);
    ring = Array.make capacity None;
    next_seq = 0;
    hist = Histogram.create ();
    res = Attribution.create ~capacity:reservoir ~causes:cause_names ();
    ts = Timeseries.create ~bucket_ns ~buckets:ts_buckets ~causes:cause_names ();
    cause_ns = Array.make n_causes 0;
    cause_events = Array.make n_causes 0;
    ops = 0;
  }

let set_enabled r v = r.on := v
let set_ambient r f = r.ambient <- f
let capacity r = Array.length r.ring

let start r ?(n_ops = 1) kind key =
  if not !(r.on) then none
  else begin
    let t0 = r.now () in
    let amb = is_op kind in
    {
      kind;
      key;
      n_ops;
      seq = -1;
      t0;
      t1 = -1;
      mark = t0;
      amb_mark = (if amb then r.ambient () else 0);
      live = true;
      amb;
      segs = Array.make n_segs 0;
      blames = Array.make n_causes 0;
      pending = Array.make n_causes 0;
      events = Array.make n_causes 0;
      rec_ = r;
    }
  end

(* Book [ns] of direct blame inside the open period. The event counter
   ticks on every call (mirroring the dipper.* stall counters, which
   count waits even when the awaited condition resolved instantly). *)
let stall s cause ns =
  if s.live then begin
    let i = cause_index cause in
    s.events.(i) <- s.events.(i) + 1;
    if ns > 0 then s.pending.(i) <- s.pending.(i) + ns
  end

(* Forked tasks stall on [detach s], not into the periods [s] closes
   while they run; [absorb] adds their blame to [s]'s open period. *)
let detach s = if s.live then { s with pending = Array.make n_causes 0 } else s

let absorb s d =
  if d != s then Array.iteri (fun i p -> s.pending.(i) <- s.pending.(i) + p) d.pending

(* Span-less blame, e.g. the cluster checkpoint gate holding a shard's
   manager thread: folds straight into the recorder's totals. *)
let note_stall r cause ns =
  if !(r.on) then begin
    let i = cause_index cause in
    r.cause_events.(i) <- r.cause_events.(i) + 1;
    if ns > 0 then r.cause_ns.(i) <- r.cause_ns.(i) + ns
  end

(* Close the open period into segment [sg]:
     period = direct blame + ambient overlap + segment time.
   Direct blame is clamped to the period (concurrent waits inside a
   fork-join batch can overlap; the clamp redistributes proportionally
   and exactly), ambient overlap to what is left — so the partition
   invariant holds by construction. *)
let close_period s sg =
  let r = s.rec_ in
  let now = r.now () in
  let dur = max 0 (now - s.mark) in
  let total_pending = Array.fold_left ( + ) 0 s.pending in
  let direct = min total_pending dur in
  if total_pending > 0 then begin
    if total_pending <= dur then
      Array.iteri
        (fun i p -> if p > 0 then s.blames.(i) <- s.blames.(i) + p)
        s.pending
    else begin
      let given = ref 0 and last = ref (-1) in
      for i = 0 to n_causes - 1 do
        if s.pending.(i) > 0 then begin
          let share = s.pending.(i) * direct / total_pending in
          s.blames.(i) <- s.blames.(i) + share;
          given := !given + share;
          last := i
        end
      done;
      if !last >= 0 && !given < direct then
        s.blames.(!last) <- s.blames.(!last) + (direct - !given)
    end;
    Array.fill s.pending 0 n_causes 0
  end;
  let amb_now = if s.amb then r.ambient () else 0 in
  let overlap =
    if s.amb then max 0 (min (amb_now - s.amb_mark) (dur - direct)) else 0
  in
  if overlap > 0 then begin
    let i = cause_index Ckpt_interference in
    s.blames.(i) <- s.blames.(i) + overlap
  end;
  s.segs.(seg_index sg) <- s.segs.(seg_index sg) + (dur - direct - overlap);
  s.mark <- now;
  s.amb_mark <- amb_now

let seg s sg = if s.live then close_period s sg

(* The blame vector an op contributes to attribution. For a group-commit
   batch of n ops, each member only needed ~1/n of the batch's work; the
   other (n-1)/n of every work segment is time spent co-committed with
   its peers, charged to Batch_wait. The span record itself keeps the
   raw segments (and so the exact partition invariant). *)
let attribution_blame s =
  if s.kind = Batch && s.n_ops > 1 then begin
    let b = Array.copy s.blames in
    let work = Array.fold_left ( + ) 0 s.segs in
    b.(cause_index Batch_wait) <-
      b.(cause_index Batch_wait) + (work * (s.n_ops - 1) / s.n_ops);
    b
  end
  else s.blames

let finish s =
  if s.live then begin
    close_period s S_other;
    s.live <- false;
    s.t1 <- s.mark;
    let r = s.rec_ in
    s.seq <- r.next_seq;
    if Array.length r.ring > 0 then
      r.ring.(r.next_seq mod Array.length r.ring) <- Some s;
    r.next_seq <- r.next_seq + 1;
    for i = 0 to n_causes - 1 do
      r.cause_events.(i) <- r.cause_events.(i) + s.events.(i)
    done;
    if is_op s.kind then begin
      let lat = s.t1 - s.t0 in
      Histogram.record_n r.hist lat s.n_ops;
      r.ops <- r.ops + s.n_ops;
      let blame = attribution_blame s in
      for i = 0 to n_causes - 1 do
        r.cause_ns.(i) <- r.cause_ns.(i) + (blame.(i) * s.n_ops)
      done;
      Attribution.add r.res ~lat ~weight:s.n_ops ~t_end:s.t1
        ~kind:(kind_name s.kind) ~blame;
      Timeseries.observe r.ts ~now:s.t1 ~lat ~weight:s.n_ops ~blame
    end
  end

(* --- span accessors (finished spans) ---------------------------------------- *)

let span_kind s = s.kind
let span_key s = s.key
let span_ops s = s.n_ops
let span_seq s = s.seq
let duration s = if s.t1 < 0 then 0 else s.t1 - s.t0
let segment s sg = if Array.length s.segs = 0 then 0 else s.segs.(seg_index sg)
let blame_of s c = if Array.length s.blames = 0 then 0 else s.blames.(cause_index c)
let events_of s c = if Array.length s.events = 0 then 0 else s.events.(cause_index c)
let segments_total s = Array.fold_left ( + ) 0 s.segs
let blame_total s = Array.fold_left ( + ) 0 s.blames

(* --- recorder accessors ----------------------------------------------------- *)

let finished r = r.next_seq
let ops r = r.ops
let hist r = r.hist
let cause_ns r i = r.cause_ns.(i)
let cause_events r i = r.cause_events.(i)

(* Oldest-first window of finished spans. *)
let spans r =
  let cap = Array.length r.ring in
  if cap = 0 then []
  else begin
    let n = min r.next_seq cap in
    let first = if r.next_seq <= cap then 0 else r.next_seq mod cap in
    List.init n (fun i -> r.ring.((first + i) mod cap))
    |> List.filter_map Fun.id
  end

let last r n =
  let l = spans r in
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let reset r =
  Array.fill r.ring 0 (Array.length r.ring) None;
  r.next_seq <- 0;
  Histogram.reset r.hist;
  Attribution.clear r.res;
  Timeseries.clear r.ts;
  Array.fill r.cause_ns 0 n_causes 0;
  Array.fill r.cause_events 0 n_causes 0;
  r.ops <- 0

(* Fold [src] into [dst]: per-shard recorders into the cluster's. The
   rings are interleaved by completion time (finished span records are
   immutable, so sharing them is safe). *)
let merge_into ~dst src =
  if dst != src then begin
    let all =
      List.sort
        (fun a b -> compare (a.t1, a.t0, a.key) (b.t1, b.t0, b.key))
        (spans dst @ spans src)
    in
    let cap = Array.length dst.ring in
    Array.fill dst.ring 0 cap None;
    dst.next_seq <- 0;
    List.iter
      (fun s ->
        if cap > 0 then dst.ring.(dst.next_seq mod cap) <- Some s;
        dst.next_seq <- dst.next_seq + 1)
      all;
    Histogram.merge_into ~dst:dst.hist src.hist;
    Attribution.merge_into ~dst:dst.res src.res;
    Timeseries.merge_into ~dst:dst.ts src.ts;
    for i = 0 to n_causes - 1 do
      dst.cause_ns.(i) <- dst.cause_ns.(i) + src.cause_ns.(i);
      dst.cause_events.(i) <- dst.cause_events.(i) + src.cause_events.(i)
    done;
    dst.ops <- dst.ops + src.ops
  end

(* --- reports ---------------------------------------------------------------- *)

let report r = Attribution.report r.res ~hist:r.hist
let report_json r = Attribution.report_json (report r)
let timeseries_json r = Timeseries.to_json r.ts

let blame_json r =
  Json.Obj
    (Array.to_list
       (Array.mapi
          (fun i name ->
            ( name,
              Json.Obj
                [
                  ("ns", Json.Int r.cause_ns.(i));
                  ("events", Json.Int r.cause_events.(i));
                ] ))
          cause_names))

let us ns = Printf.sprintf "%.1f" (float_of_int ns /. 1e3)

let print_report ?(oc = stdout) r =
  let rep = report r in
  Printf.fprintf oc "tail attribution over %s ops (%s spans recorded)\n"
    (Tablefmt.commas rep.Attribution.total_ops)
    (Tablefmt.commas (finished r));
  let tbl =
    Tablefmt.create
      [
        "cause"; ">=p99 mass (us)"; ">=p99 %"; ">=p9999 mass (us)"; ">=p9999 %";
        "total (us)"; "events";
      ]
  in
  let cls label = Attribution.find_class rep label in
  let pct part whole =
    if whole = 0 then "-"
    else Printf.sprintf "%.1f" (100.0 *. float_of_int part /. float_of_int whole)
  in
  Array.iteri
    (fun i name ->
      let m99, t99 =
        match cls "p99" with
        | Some c -> (c.Attribution.by_cause.(i), c.Attribution.mass_ns)
        | None -> (0, 0)
      in
      let m9999, t9999 =
        match cls "p9999" with
        | Some c -> (c.Attribution.by_cause.(i), c.Attribution.mass_ns)
        | None -> (0, 0)
      in
      Tablefmt.row tbl
        [
          name; us m99; pct m99 t99; us m9999; pct m9999 t9999;
          us r.cause_ns.(i);
          Tablefmt.commas r.cause_events.(i);
        ])
    cause_names;
  Tablefmt.print ~oc tbl;
  List.iter
    (fun c ->
      Printf.fprintf oc
        ">=%s: threshold %s us, mass %s us, attributed %.1f%% (reservoir holds %d/%d tail ops)\n"
        c.Attribution.label
        (us c.Attribution.threshold_ns)
        (us c.Attribution.mass_ns)
        (Attribution.attributed_pct c)
        c.Attribution.retained_ops c.Attribution.expected_ops)
    rep.Attribution.classes

let nonzero_cells names values =
  let parts = ref [] in
  Array.iteri
    (fun i v -> if v > 0 then parts := Printf.sprintf "%s=%sus" names.(i) (us v) :: !parts)
    values;
  String.concat " " (List.rev !parts)

let print_spans ?(oc = stdout) ?(n = 20) r =
  let sel = last r n in
  if sel = [] then Printf.fprintf oc "no spans recorded\n"
  else begin
    let tbl =
      Tablefmt.create [ "seq"; "t0 (us)"; "kind"; "key"; "lat (us)"; "segments"; "blame" ]
    in
    List.iter
      (fun s ->
        Tablefmt.row tbl
          [
            string_of_int s.seq;
            us s.t0;
            kind_name s.kind
            ^ (if s.n_ops > 1 then Printf.sprintf " x%d" s.n_ops else "");
            s.key;
            us (duration s);
            nonzero_cells seg_names s.segs;
            nonzero_cells cause_names s.blames;
          ])
      sel;
    Tablefmt.print ~oc tbl
  end
