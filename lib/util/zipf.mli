(** Zipfian request distributions as used by YCSB.

    [Zipf] draws ranks with probability proportional to [1/rank^theta] using
    the rejection-inversion method of Gray et al. (SIGMOD'94), the same
    algorithm YCSB uses. The scrambled variant spreads the hot ranks over the
    whole key space, which is what YCSB workloads actually request. *)

type t

val create : ?theta:float -> int -> t
(** [create ~theta n] draws from [0, n). [theta] defaults to [0.99]
    (the YCSB constant). Requires [n > 0] and [0 < theta < 1]. *)

val draw : t -> Rng.t -> int
(** Draw a rank: rank 0 is the most popular item. *)

val draw_scrambled : t -> Rng.t -> int
(** Draw with YCSB's FNV-style scrambling so popular items are spread
    uniformly over the item space rather than clustered at low ids. *)

val uniform : int -> Rng.t -> int
(** [uniform n rng] draws uniformly from [0, n) — the YCSB "uniform"
    request distribution, provided here for symmetry. *)
