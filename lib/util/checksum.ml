(* Table-driven CRC-32C, polynomial 0x1EDC6F41 (reflected 0x82F63B78). *)

(* Built at module initialisation, not on first use: the table is then
   immutable, so domains may checksum concurrently (a [Lazy.force] racing
   another domain's raises in OCaml 5). *)
let table =
  let t = Array.make 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0x82F63B78 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  t

let crc32c ?(init = 0) b ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= Bytes.length b);
  let c = ref (init lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32c_string s = crc32c (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
