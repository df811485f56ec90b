open Dstore_util

type t = {
  name : string;
  read_pct : int;
  records : int;
  value_bytes : int;
  uniform : bool;
}

let make name read_pct ?(records = 10_000) ?(value_bytes = 4096)
    ?(uniform = false) () =
  { name; read_pct; records; value_bytes; uniform }

let a ?records ?value_bytes () = make "YCSB-A" 50 ?records ?value_bytes ()

let b ?records ?value_bytes () = make "YCSB-B" 95 ?records ?value_bytes ()

let c ?records ?value_bytes () = make "YCSB-C" 100 ?records ?value_bytes ()

let write_only ?records ?value_bytes () =
  make "write-only" 0 ?records ?value_bytes ()

let write_only_uniform ?records ?value_bytes () =
  make "write-only-uniform" 0 ?records ?value_bytes ~uniform:true ()

let key i = Printf.sprintf "user%010d" i

type op = Read of string | Update of string

type gen = { wl : t; zipf : Zipf.t; rng : Rng.t }

let gen wl rng = { wl; zipf = Zipf.create wl.records; rng }

let next g =
  let i =
    if g.wl.uniform then Rng.int g.rng g.wl.records
    else Zipf.draw_scrambled g.zipf g.rng
  in
  let k = key i in
  if Rng.int g.rng 100 < g.wl.read_pct then Read k else Update k
