(** Array-based binary min-heap keyed by [(primary, tiebreak)] int pairs.

    The discrete-event scheduler keys events by [(virtual_time, sequence)],
    so FIFO order among simultaneous events is deterministic. Keys and
    values are kept in parallel arrays: {!push}, {!min_key} and {!take}
    allocate nothing once the arrays have reached the queue's high-water
    mark. *)

type 'a t

val create : filler:'a -> 'a t
(** [filler] occupies every slot past the heap's end, so a value taken out
    of the queue is no longer reachable from it. It is never returned. *)

val is_empty : 'a t -> bool

val push : 'a t -> int -> int -> 'a -> unit
(** [push q primary tiebreak v] inserts [v]. *)

val min_key : 'a t -> int
(** Primary key of the minimum element. Raises [Invalid_argument] on an
    empty queue. *)

val take : 'a t -> 'a
(** Remove the minimum element and return its value. Raises
    [Invalid_argument] on an empty queue. *)
