(* Paper tables the bench drivers derive, pinned at their default scale. *)

open Dstore_experiments

let check = Alcotest.check

(* Table 3 from put-span segment sums: NVMe write, B-tree, metadata, log
   flush and total, in ns per put. *)
let test_table3 () =
  let row bytes =
    let c = Exp_table3.columns Common.default_opts bytes in
    Exp_table3.[ c.nvme; c.btree; c.meta; c.log; total c ]
  in
  check (Alcotest.list Alcotest.int) "4 KB" [ 8900; 300; 352; 900; 10452 ] (row 4096);
  check (Alcotest.list Alcotest.int) "16 KB" [ 35600; 300; 352; 900; 37152 ] (row 16384)

let suite = [ Alcotest.test_case "table3 from put spans" `Quick test_table3 ]
