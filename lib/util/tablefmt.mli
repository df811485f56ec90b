(** Fixed-width plain-text tables, for printing paper-style results.

    Columns auto-size to the widest cell; numeric cells right-align. *)

type t

val create : string list -> t
(** [create headers] starts a table with the given column headers. *)

val row : t -> string list -> unit
(** Append a row. Rows shorter than the header are padded with blanks. *)

val sep : t -> unit
(** Append a horizontal separator line. *)

val print : ?oc:out_channel -> t -> unit
(** Render the table. *)

val ns : float -> string
(** Format a nanosecond quantity with an adaptive unit (ns/us/ms/s). *)

val ns_i : int -> string

val bytes : int -> string
(** Format a byte count with an adaptive unit (B/KB/MB/GB). *)

val f1 : float -> string
(** One decimal place. *)

val f2 : float -> string
(** Two decimal places. *)

val pct : float -> string
(** Percentage with two decimals, e.g. [88.06]. *)

val commas : int -> string
(** Thousands-separated integer. *)
