open Dstore_util

(* Instruments share the registry's [on] flag by reference, so recording is
   a flag test plus a field store — no lookup, no allocation — and one
   [set_enabled] call silences every instrument at once. *)

type counter = { mutable c : int; c_on : bool ref }

type gauge = { mutable g : int; g_on : bool ref }

type histo = { h : Histogram.t; h_on : bool ref }

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Fn of (unit -> int)
  | Histo of histo

type t = {
  instruments : (string, instrument) Hashtbl.t;
  on : bool ref;
  guard : Mutex.t;  (* registration/snapshot only; recording is lock-free *)
}

let create ?(enabled = true) () =
  { instruments = Hashtbl.create 64; on = ref enabled; guard = Mutex.create () }

let set_enabled t v = t.on := v

let with_guard t f =
  Mutex.lock t.guard;
  match f () with
  | v ->
      Mutex.unlock t.guard;
      v
  | exception e ->
      Mutex.unlock t.guard;
      raise e

let register t name instr =
  with_guard t (fun () ->
      match Hashtbl.find_opt t.instruments name with
      | Some existing -> existing
      | None ->
          Hashtbl.replace t.instruments name instr;
          instr)

let kind_error name = invalid_arg ("Metrics: " ^ name ^ " registered with another kind")

let counter t name =
  match register t name (Counter { c = 0; c_on = t.on }) with
  | Counter c -> c
  | _ -> kind_error name

let gauge t name =
  match register t name (Gauge { g = 0; g_on = t.on }) with
  | Gauge g -> g
  | _ -> kind_error name

let gauge_fn t name f =
  (* Callback gauges re-register freely: a recovered store replaces the
     dead instance's closures with live ones. *)
  with_guard t (fun () -> Hashtbl.replace t.instruments name (Fn f))

let histogram ?sub_bits t name =
  match register t name (Histo { h = Histogram.create ?sub_bits (); h_on = t.on }) with
  | Histo h -> h
  | _ -> kind_error name

let incr c = if !(c.c_on) then c.c <- c.c + 1

let add c n = if !(c.c_on) then c.c <- c.c + n

let counter_value c = c.c

let set_gauge g v = if !(g.g_on) then g.g <- v

let gauge_value g = g.g

let observe h v = if !(h.h_on) then Histogram.record h.h v

let histo_data h = h.h

(* --- snapshot / merge / reset ------------------------------------------- *)

type value = Vcounter of int | Vgauge of int | Vhisto of Histogram.t

let snapshot t =
  with_guard t (fun () ->
      Hashtbl.fold
        (fun name instr acc ->
          let v =
            match instr with
            | Counter c -> Vcounter c.c
            | Gauge g -> Vgauge g.g
            | Fn f -> Vgauge (f ())
            | Histo h -> Vhisto h.h
          in
          (name, v) :: acc)
        t.instruments [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let find t name =
  with_guard t (fun () -> Hashtbl.find_opt t.instruments name)

let value t name =
  match find t name with
  | Some (Counter c) -> Some c.c
  | Some (Gauge g) -> Some g.g
  | Some (Fn f) -> Some (f ())
  | Some (Histo _) | None -> None

let reset t =
  with_guard t (fun () ->
      Hashtbl.iter
        (fun _ instr ->
          match instr with
          | Counter c -> c.c <- 0
          | Gauge g -> g.g <- 0
          | Fn _ -> ()
          | Histo h -> Histogram.reset h.h)
        t.instruments)

(* Fold [src] into [dst]: counters add, gauges take the source value,
   histograms merge. Callback gauges are live views over their owner's
   state and do not transfer unless [materialize] freezes them into plain
   gauges (a cluster folding per-shard registries into one aggregate wants
   the values, not closures over dead stores). [prefix] namespaces every
   instrument on the [dst] side, so same-name series from different shards
   land as distinct entries instead of clobbering each other. Missing
   instruments are created in [dst]. *)
let merge_into ?(prefix = "") ?(materialize = false) ~dst src =
  let items =
    with_guard src (fun () ->
        Hashtbl.fold (fun name instr acc -> (name, instr) :: acc) src.instruments [])
  in
  List.iter
    (fun (name, instr) ->
      let name = prefix ^ name in
      match instr with
      | Counter c -> add (counter dst name) c.c
      | Gauge g ->
          let d = gauge dst name in
          if !(d.g_on) then d.g <- g.g
      | Fn f ->
          if materialize then begin
            let d = gauge dst name in
            if !(d.g_on) then d.g <- f ()
          end
      | Histo h ->
          let d = histogram ~sub_bits:(Histogram.sub_bits h.h) dst name in
          Histogram.merge_into ~dst:d.h h.h)
    items

(* --- exporters ----------------------------------------------------------- *)

let histo_json h =
  let pcts =
    List.map
      (fun (label, p) -> (label, Json.Int (Histogram.percentile h p)))
      Histogram.percentile_labels
  in
  Json.Obj
    ([
       ("count", Json.Int (Histogram.count h));
       ("min", Json.Int (Histogram.min_value h));
       ("max", Json.Int (Histogram.max_value h));
       ("mean", Json.Float (Histogram.mean h));
     ]
    @ pcts
    @ [
        ( "buckets",
          Json.List
            (List.map
               (fun (bound, count) ->
                 Json.List [ Json.Int bound; Json.Int count ])
               (Histogram.buckets h)) );
      ])

let to_json t =
  let counters = ref [] and gauges = ref [] and histos = ref [] in
  List.iter
    (fun (name, v) ->
      match v with
      | Vcounter c -> counters := (name, Json.Int c) :: !counters
      | Vgauge g -> gauges := (name, Json.Int g) :: !gauges
      | Vhisto h -> histos := (name, histo_json h) :: !histos)
    (snapshot t);
  Json.Obj
    [
      ("counters", Json.Obj (List.rev !counters));
      ("gauges", Json.Obj (List.rev !gauges));
      ("histograms", Json.Obj (List.rev !histos));
    ]

let print ?(oc = stdout) t =
  let snap = snapshot t in
  let scalars =
    List.filter_map
      (function
        | name, Vcounter c -> Some (name, "counter", c)
        | name, Vgauge g -> Some (name, "gauge", g)
        | _, Vhisto _ -> None)
      snap
  in
  if scalars <> [] then begin
    let tbl = Tablefmt.create [ "metric"; "kind"; "value" ] in
    List.iter
      (fun (name, kind, v) -> Tablefmt.row tbl [ name; kind; Tablefmt.commas v ])
      scalars;
    Tablefmt.print ~oc tbl
  end;
  let histos =
    List.filter_map
      (function name, Vhisto h -> Some (name, h) | _ -> None)
      snap
  in
  if histos <> [] then begin
    let tbl =
      Tablefmt.create
        [ "histogram"; "count"; "mean"; "p50"; "p99"; "p999"; "p9999"; "max" ]
    in
    List.iter
      (fun (name, h) ->
        Tablefmt.row tbl
          [
            name;
            Tablefmt.commas (Histogram.count h);
            Tablefmt.ns (Histogram.mean h);
            Tablefmt.ns_i (Histogram.percentile h 50.0);
            Tablefmt.ns_i (Histogram.percentile h 99.0);
            Tablefmt.ns_i (Histogram.percentile h 99.9);
            Tablefmt.ns_i (Histogram.percentile h 99.99);
            Tablefmt.ns_i (Histogram.max_value h);
          ])
      histos;
    Tablefmt.print ~oc tbl
  end
