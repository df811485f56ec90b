(* Tail-latency attribution: a bounded reservoir of the slowest spans
   plus a decomposition of the >=p99 / >=p9999 latency mass by cause.

   The reservoir is a fixed-capacity min-heap keyed on latency: once
   full, a new entry only displaces the current fastest retained one, so
   what survives is exactly the top-K slowest operations — the only ones
   a tail report needs. Percentile thresholds come from the caller's
   full latency histogram (which sees every op), so the report can say
   how much of the true tail mass the reservoir retained. *)

open Dstore_util

type entry = {
  lat : int;  (* observed op latency, ns *)
  weight : int;  (* ops represented (batch spans carry their member count) *)
  t_end : int;  (* virtual completion time *)
  kind : string;
  blame : int array;  (* per-op blame ns, create-order causes *)
}

type t = {
  causes : string array;
  cap : int;
  mutable n : int;
  heap : entry array;  (* min-heap on lat over [0, n) *)
}

let dummy = { lat = 0; weight = 0; t_end = 0; kind = ""; blame = [||] }

let create ?(capacity = 4096) ~causes () =
  let cap = max 1 capacity in
  { causes; cap; n = 0; heap = Array.make cap dummy }

let swap t i j =
  let x = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- x

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.heap.(i).lat < t.heap.(parent).lat then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < t.n && t.heap.(l).lat < t.heap.(i).lat then l else i in
  let m = if r < t.n && t.heap.(r).lat < t.heap.(m).lat then r else m in
  if m <> i then begin
    swap t i m;
    sift_down t m
  end

let add_entry t e =
  if t.n < t.cap then begin
    t.heap.(t.n) <- e;
    t.n <- t.n + 1;
    sift_up t (t.n - 1)
  end
  else if e.lat > t.heap.(0).lat then begin
    t.heap.(0) <- e;
    sift_down t 0
  end

let add t ~lat ~weight ~t_end ~kind ~blame =
  add_entry t { lat; weight; t_end; kind; blame }

let iter t f =
  for i = 0 to t.n - 1 do
    f t.heap.(i)
  done

let clear t = t.n <- 0

let merge_into ~dst src = iter src (fun e -> add_entry dst e)

(* --- report ----------------------------------------------------------------- *)

type tail_class = {
  label : string;  (* "p99" / "p9999" *)
  threshold_ns : int;  (* latency cut from the full histogram *)
  retained_ops : int;  (* weighted ops >= threshold held by the reservoir *)
  expected_ops : int;  (* how many the full histogram says exist *)
  mass_ns : int;  (* total latency mass of retained tail ops *)
  attributed_ns : int;  (* part of [mass_ns] carrying a named blame *)
  by_cause : int array;
}

type report = { total_ops : int; causes : string array; classes : tail_class list }

let tail_points = [ ("p99", 99.0); ("p9999", 99.99) ]

let report (t : t) ~hist =
  let total = Histogram.count hist in
  let nc = Array.length t.causes in
  let mk (label, p) =
    let threshold_ns = Histogram.percentile hist p in
    let retained = ref 0 and mass = ref 0 in
    let by_cause = Array.make nc 0 in
    iter t (fun e ->
        if threshold_ns > 0 && e.lat >= threshold_ns then begin
          retained := !retained + e.weight;
          mass := !mass + (e.lat * e.weight);
          Array.iteri
            (fun i v -> by_cause.(i) <- by_cause.(i) + (v * e.weight))
            e.blame
        end);
    let expected_ops =
      int_of_float (ceil (float_of_int total *. (100.0 -. p) /. 100.0))
    in
    {
      label;
      threshold_ns;
      retained_ops = !retained;
      expected_ops;
      mass_ns = !mass;
      attributed_ns = Array.fold_left ( + ) 0 by_cause;
      by_cause;
    }
  in
  { total_ops = total; causes = t.causes; classes = List.map mk tail_points }

let attributed_pct c =
  if c.mass_ns = 0 then 0.0
  else 100.0 *. float_of_int c.attributed_ns /. float_of_int c.mass_ns

let find_class r label = List.find_opt (fun c -> c.label = label) r.classes

let class_json causes c =
  Json.Obj
    [
      ("threshold_ns", Json.Int c.threshold_ns);
      ("retained_ops", Json.Int c.retained_ops);
      ("expected_ops", Json.Int c.expected_ops);
      ("mass_ns", Json.Int c.mass_ns);
      ("attributed_ns", Json.Int c.attributed_ns);
      ("attributed_pct", Json.Float (attributed_pct c));
      ( "by_cause_ns",
        Json.Obj
          (Array.to_list
             (Array.mapi (fun i name -> (name, Json.Int c.by_cause.(i))) causes))
      );
    ]

let report_json r =
  Json.Obj
    [
      ("total_ops", Json.Int r.total_ops);
      ( "classes",
        Json.Obj
          (List.map (fun c -> (c.label, class_json r.causes c)) r.classes) );
    ]
