(** Writer-priority reader-writer lock over {!Platform} primitives.

    Models the page-cache write-protection of cached storage systems: many
    request threads share the read side; the checkpointer takes the write
    side and stalls everyone — the behaviour behind Figure 1 and the
    throughput troughs of Figure 7. Writer priority: once a writer waits,
    new readers queue behind it, so checkpoints cannot starve. *)

type t

val create : Platform.t -> t

val with_read : t -> (unit -> 'a) -> 'a

val with_write : t -> (unit -> 'a) -> 'a
