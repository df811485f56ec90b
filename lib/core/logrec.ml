type extent = int * int

type op =
  | Put of {
      key : string;
      size : int;
      meta : int;
      extents : extent list;
      freed_meta : int;
      freed_extents : extent list;
    }
  | Create of { key : string; meta : int }
  | Write of { key : string; meta : int; size : int; new_extents : extent list }
  | Delete of { key : string; meta : int; extents : extent list }
  | Noop of { key : string }
  | Phys of { images : (int * string) list }
  | Txn_begin of { txn : int; members : int }
  | Txn_commit of { txn : int }

let op_key = function
  | Put { key; _ } | Create { key; _ } | Write { key; _ } | Delete { key; _ }
  | Noop { key } ->
      Some key
  | Phys _ | Txn_begin _ | Txn_commit _ -> None

let header_bytes = 24

let slot_bytes = 64

let tag_of_op = function
  | Put _ -> 1
  | Create _ -> 2
  | Write _ -> 3
  | Delete _ -> 4
  | Noop _ -> 5
  | Phys _ -> 6
  | Txn_begin _ -> 7
  | Txn_commit _ -> 8

(* --- sizing --- *)

let str_bytes s = 2 + String.length s

let extents_bytes n = 2 + (8 * n)

let put_payload_bytes key ~extents ~freed =
  str_bytes key + 8 + 4 + extents_bytes extents + 4 + extents_bytes freed

let payload_bytes = function
  | Put { key; extents; freed_extents; _ } ->
      put_payload_bytes key ~extents:(List.length extents)
        ~freed:(List.length freed_extents)
  | Create { key; _ } -> str_bytes key + 4
  | Write { key; new_extents; _ } ->
      str_bytes key + 4 + 8 + extents_bytes (List.length new_extents)
  | Delete { key; extents; _ } ->
      str_bytes key + 4 + extents_bytes (List.length extents)
  | Noop { key } -> str_bytes key
  | Phys { images } ->
      List.fold_left (fun acc (_, bytes) -> acc + 8 + str_bytes bytes) 2 images
  | Txn_begin _ -> 8 + 2
  | Txn_commit _ -> 8

let slots_of_payload n = (header_bytes + n + slot_bytes - 1) / slot_bytes

let record_bytes op = header_bytes + payload_bytes op

let slots_needed op = slots_of_payload (payload_bytes op)

(* Every block its own extent, and an overwritten object split across up
   to four more extents than the new one. *)
let put_max_slots key nblocks =
  let e = max nblocks 1 in
  slots_of_payload (put_payload_bytes key ~extents:e ~freed:(e + 4))

(* --- encoding: little-endian stores at a cursor, returning the next --- *)

let put_u16 b pos v =
  Bytes.set_uint16_le b pos (v land 0xffff);
  pos + 2

let put_u32 b pos v = put_u16 b (put_u16 b pos v) (v lsr 16)

let put_u64 b pos v = put_u32 b (put_u32 b pos v) ((v lsr 32) land 0x7FFFFFFF)

let put_str b pos s =
  let pos = put_u16 b pos (String.length s) in
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let rec put_extent_list b pos = function
  | [] -> pos
  | (start, len) :: rest -> put_extent_list b (put_u32 b (put_u32 b pos start) len) rest

let put_extents b pos l = put_extent_list b (put_u16 b pos (List.length l)) l

let rec put_images b pos = function
  | [] -> pos
  | (off, bytes) :: rest -> put_images b (put_str b (put_u64 b pos off) bytes) rest

let encode_into op b pos =
  match op with
  | Put { key; size; meta; extents; freed_meta; freed_extents } ->
      let pos = put_u32 b (put_u64 b (put_str b pos key) size) meta in
      let pos = put_extents b pos extents in
      let pos = put_u32 b pos (if freed_meta < 0 then 0xFFFFFFFF else freed_meta) in
      put_extents b pos freed_extents
  | Create { key; meta } -> put_u32 b (put_str b pos key) meta
  | Write { key; meta; size; new_extents } ->
      put_extents b (put_u64 b (put_u32 b (put_str b pos key) meta) size) new_extents
  | Delete { key; meta; extents } ->
      put_extents b (put_u32 b (put_str b pos key) meta) extents
  | Noop { key } -> put_str b pos key
  | Phys { images } -> put_images b (put_u16 b pos (List.length images)) images
  | Txn_begin { txn; members } -> put_u16 b (put_u64 b pos txn) members
  | Txn_commit { txn } -> put_u64 b pos txn

let encode_payload op =
  let b = Bytes.create (payload_bytes op) in
  ignore (encode_into op b 0);
  b

(* --- decoding --- *)

(* Reads stop at [lim], which may sit before the end of [b]: a reused
   buffer's stale tail must not complete a truncated record. *)
type cursor = { b : Bytes.t; lim : int; mutable pos : int }

let need c n = if c.pos + n > c.lim then failwith "Logrec: truncated payload"

let get_u16 c =
  need c 2;
  let v = Bytes.get_uint16_le c.b c.pos in
  c.pos <- c.pos + 2;
  v

let get_u32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_le c.b c.pos) land 0xFFFFFFFF in
  c.pos <- c.pos + 4;
  v

let get_u64 c =
  need c 8;
  let v = Int64.to_int (Bytes.get_int64_le c.b c.pos) in
  c.pos <- c.pos + 8;
  v

let get_str c =
  let len = get_u16 c in
  if c.pos + len > c.lim then failwith "Logrec: truncated string";
  let s = Bytes.sub_string c.b c.pos len in
  c.pos <- c.pos + len;
  s

let get_extents c =
  let n = get_u16 c in
  List.init n (fun _ ->
      let start = get_u32 c in
      let len = get_u32 c in
      (start, len))

let decode_payload ?len ~tag b =
  let lim =
    match len with
    | None -> Bytes.length b
    | Some l ->
        if l < 0 || l > Bytes.length b then
          invalid_arg "Logrec.decode_payload: len outside buffer";
        l
  in
  let c = { b; lim; pos = 0 } in
  try
    match tag with
    | 1 ->
        let key = get_str c in
        let size = get_u64 c in
        let meta = get_u32 c in
        let extents = get_extents c in
        let fm = get_u32 c in
        let freed_meta = if fm = 0xFFFFFFFF then -1 else fm in
        let freed_extents = get_extents c in
        Put { key; size; meta; extents; freed_meta; freed_extents }
    | 2 ->
        let key = get_str c in
        let meta = get_u32 c in
        Create { key; meta }
    | 3 ->
        let key = get_str c in
        let meta = get_u32 c in
        let size = get_u64 c in
        let new_extents = get_extents c in
        Write { key; meta; size; new_extents }
    | 4 ->
        let key = get_str c in
        let meta = get_u32 c in
        let extents = get_extents c in
        Delete { key; meta; extents }
    | 5 -> Noop { key = get_str c }
    | 6 ->
        let n = get_u16 c in
        let images =
          List.init n (fun _ ->
              let off = get_u64 c in
              let bytes = get_str c in
              (off, bytes))
        in
        Phys { images }
    | 7 ->
        let txn = get_u64 c in
        let members = get_u16 c in
        Txn_begin { txn; members }
    | 8 -> Txn_commit { txn = get_u64 c }
    | t -> failwith (Printf.sprintf "Logrec: unknown op tag %d" t)
  with Invalid_argument _ -> failwith "Logrec: truncated payload"
