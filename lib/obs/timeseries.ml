(* Sliding-window time series over *virtual* time: a ring of fixed-width
   buckets keyed by bucket number (t / bucket_ns), each holding an op
   count, a latency histogram, and per-cause blame mass. Old buckets are
   lazily recycled when a newer bucket lands on the same slot, so the
   recorder always covers the most recent [buckets * bucket_ns] of sim
   time at O(1) per observation. Pure observer: never touches the
   simulated clock. *)

open Dstore_util

type bucket = {
  mutable idx : int;  (* bucket number; -1 = never used *)
  mutable ops : int;
  hist : Histogram.t;
  blame : int array;  (* per-cause ns, same order as [causes] *)
}

type t = { bucket_ns : int; causes : string array; ring : bucket array }

let create ?(bucket_ns = 100_000_000) ?(buckets = 64) ~causes () =
  assert (bucket_ns > 0 && buckets > 0);
  {
    bucket_ns;
    causes;
    ring =
      Array.init buckets (fun _ ->
          {
            idx = -1;
            ops = 0;
            (* sub_bits 5: coarser per-bucket percentiles, 4x smaller than
               the default — there is one histogram per live bucket. *)
            hist = Histogram.create ~sub_bits:5 ();
            blame = Array.make (Array.length causes) 0;
          });
  }

let reset_bucket b idx =
  b.idx <- idx;
  b.ops <- 0;
  Histogram.reset b.hist;
  Array.fill b.blame 0 (Array.length b.blame) 0

(* [blame] is the per-op blame vector; mass scales with [weight] (a batch
   span carries the weight of its member ops). *)
let observe t ~now ~lat ~weight ~blame =
  let idx = now / t.bucket_ns in
  let b = t.ring.(idx mod Array.length t.ring) in
  if b.idx <> idx then reset_bucket b idx;
  b.ops <- b.ops + weight;
  Histogram.record_n b.hist lat weight;
  Array.iteri
    (fun i v -> if v > 0 then b.blame.(i) <- b.blame.(i) + (v * weight))
    blame

let clear t = Array.iter (fun b -> reset_bucket b (-1)) t.ring

let sorted_buckets t =
  Array.to_list t.ring
  |> List.filter (fun b -> b.idx >= 0)
  |> List.sort (fun a b -> compare a.idx b.idx)

(* Bucket-wise merge by bucket number: per-shard recorders fold into the
   cluster's. A slot keeps whichever window is newer when they disagree. *)
let merge_into ~dst src =
  assert (dst.bucket_ns = src.bucket_ns);
  List.iter
    (fun (b : bucket) ->
      let d = dst.ring.(b.idx mod Array.length dst.ring) in
      if d.idx > b.idx then ()
      else begin
        if d.idx < b.idx then reset_bucket d b.idx;
        d.ops <- d.ops + b.ops;
        Histogram.merge_into ~dst:d.hist b.hist;
        Array.iteri (fun i v -> d.blame.(i) <- d.blame.(i) + v) b.blame
      end)
    (sorted_buckets src)

let to_json t =
  Json.List
    (List.map
       (fun b ->
         Json.Obj
           ([
              ("t_ns", Json.Int (b.idx * t.bucket_ns));
              ("ops", Json.Int b.ops);
              ( "throughput_ops_s",
                Json.Float (float_of_int b.ops *. 1e9 /. float_of_int t.bucket_ns)
              );
            ]
           @ List.map
               (fun (label, p) ->
                 (label, Json.Int (Histogram.percentile b.hist p)))
               Histogram.percentile_labels
           @ [
               ( "blame_ns",
                 Json.Obj
                   (Array.to_list
                      (Array.mapi
                         (fun i c -> (c, Json.Int b.blame.(i)))
                         t.causes)) );
             ]))
       (sorted_buckets t))
