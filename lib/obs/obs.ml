(* The per-store observability handle: one metrics registry and one span
   recorder, sharing an enable switch. Created by the engine (or by the
   caller, to share one handle across crash/recover cycles) and threaded
   through the devices and the store. *)

type t = { metrics : Metrics.t; spans : Span.recorder }

let create ?(enabled = true) ?span_capacity ~now () =
  let o =
    {
      metrics = Metrics.create ~enabled ();
      spans = Span.create ?capacity:span_capacity ~enabled ~now ();
    }
  in
  (* Blame rollups as registry views: the cluster's prefix-merge then
     exports shard<i>.blame.* alongside shard<i>.dipper.* for free. *)
  for i = 0 to Span.n_causes - 1 do
    Metrics.gauge_fn o.metrics
      ("blame." ^ Span.cause_label i ^ "_ns")
      (fun () -> Span.cause_ns o.spans i);
    Metrics.gauge_fn o.metrics
      ("blame." ^ Span.cause_label i ^ "_events")
      (fun () -> Span.cause_events o.spans i)
  done;
  o

let set_enabled t v =
  Metrics.set_enabled t.metrics v;
  Span.set_enabled t.spans v

let to_json t =
  Json.Obj
    [
      ("metrics", Metrics.to_json t.metrics);
      ("blame", Span.blame_json t.spans);
    ]
