(** Simulated point-to-point network channel.

    A unidirectional, typed message link with a configurable latency /
    bandwidth / jitter / drop model, integrated with the platform's
    virtual time: [send] schedules delivery at

    {v now + latency + bytes/bandwidth + jitter v}

    and never blocks the sender; [recv] blocks until a message is
    delivered. Delivery order is FIFO — delivery times are clamped
    monotone per link, like a TCP stream — and deterministic (jitter and
    drops come from a seeded generator owned by the link).

    Dropped messages vanish silently (counted in {!stats}); there is no
    retransmission here. Reliable users (replication) run links with
    [drop_prob = 0.]; the drop model exists for link-level tests and
    future lossy-transport work. *)

type config = {
  latency_ns : int;  (** One-way propagation delay. *)
  gbps : float;  (** Serialization bandwidth; [<= 0.] means infinite. *)
  jitter_ns : int;  (** Uniform extra delay in [0, jitter_ns]. *)
  drop_prob : float;  (** Per-message drop probability in [0, 1). *)
  seed : int;  (** Seed for the jitter / drop stream. *)
}

val default_config : config
(** 5 us latency, 25 Gbps, no jitter, no drops. *)

type 'a t

exception Closed
(** Raised by [recv] on a closed link once the queue drains. *)

val create : Platform.t -> config -> 'a t

val send : 'a t -> ?bytes:int -> 'a -> unit
(** Schedule delivery of a message that serializes to [bytes] octets
    (default 64, a header's worth). Never blocks; a no-op (beyond the
    drop counter) if the drop model eats the message. Raises [Closed] on
    a closed link. *)

val recv : 'a t -> 'a
(** Block until the next message is delivered. Raises {!Closed} once the
    link is closed and every in-flight message has been consumed. *)

val close : 'a t -> unit
(** Stop accepting sends and wake blocked receivers. In-flight messages
    already scheduled are still delivered to [recv]. *)

val pending : 'a t -> int
(** Messages sent but not yet received (in flight + queued). *)

val sent : 'a t -> int

val delivered : 'a t -> int
(** Messages handed to [recv]. *)

val dropped : 'a t -> int
