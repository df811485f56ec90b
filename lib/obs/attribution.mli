(** Tail-latency attribution: top-K slowest-op reservoir + a report
    decomposing the >=p99 and >=p9999 latency mass by blame cause.

    The reservoir is a fixed-capacity min-heap on latency, so a full
    reservoir always holds exactly the slowest K operations seen — the
    only ones tail percentile mass can come from. Thresholds for the
    report are taken from a full latency histogram supplied by the
    caller, which also lets the report state how much of the true tail
    the reservoir covers ([retained_ops] vs [expected_ops]). *)

type entry = {
  lat : int;
  weight : int;
  t_end : int;
  kind : string;
  blame : int array;  (** Per-op blame ns, in create-order causes. *)
}

type t

val create : ?capacity:int -> causes:string array -> unit -> t

val add :
  t -> lat:int -> weight:int -> t_end:int -> kind:string -> blame:int array -> unit

val clear : t -> unit
val merge_into : dst:t -> t -> unit

type tail_class = {
  label : string;
  threshold_ns : int;
  retained_ops : int;
  expected_ops : int;
  mass_ns : int;
  attributed_ns : int;
  by_cause : int array;
}

type report = {
  total_ops : int;
  causes : string array;
  classes : tail_class list;
}

val report : t -> hist:Dstore_util.Histogram.t -> report
(** [hist] is the full op-latency histogram the reservoir's entries were
    drawn from; it supplies the p99/p9999 thresholds and total count. *)

val attributed_pct : tail_class -> float
val find_class : report -> string -> tail_class option
val report_json : report -> Json.t
