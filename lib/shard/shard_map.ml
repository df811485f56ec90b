type t = { shards : int }

let create ~shards =
  if shards < 1 then invalid_arg "Shard_map.create: shards must be >= 1";
  { shards }

(* FNV-1a over the name's bytes. Computed in Int64 (the offset basis does
   not fit OCaml's 63-bit int), then masked to a non-negative int. *)
let fnv_offset = 0xcbf29ce484222325L

let fnv_prime = 0x100000001b3L

let hash key =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    key;
  Int64.to_int !h land max_int

let shard_of t key = hash key mod t.shards
