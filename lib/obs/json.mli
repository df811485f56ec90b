(** Minimal JSON values: encoder for the observability exporters, parser
    for tests and for tooling that reads [BENCH_*.json] files back. No
    external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact encoding. Strings are escaped per RFC 8259 (quotes,
    backslashes, control characters as [\uXXXX]); NaN encodes as [null]. *)

val pretty : t -> string
(** Two-space-indented encoding for humans. *)

exception Parse_error of string

val of_string : string -> t
(** Parse a complete document. Raises {!Parse_error} on malformed input
    or trailing bytes. Numbers without [.]/[e] parse as [Int], others as
    [Float]. *)

val member : string -> t -> t option
(** [member key (Obj fields)] looks up a field; [None] on other values. *)
