(* Aggregated test runner for the DStore reproduction. One alcotest suite
   per library; suites are added here as libraries come online. *)

let () =
  Alcotest.run "dstore"
    [
      ("util", Test_util.suite);
      ("platform", Test_platform.suite);
      ("pmem", Test_pmem.suite);
      ("ssd", Test_ssd.suite);
      ("memory", Test_memory.suite);
      ("structs", Test_structs.suite);
      ("obs", Test_obs.suite);
      ("core", Test_core.suite);
      ("check", Test_check.suite);
      ("dstore", Test_dstore.suite);
      ("txn", Test_txn.suite);
      ("cache", Test_cache.suite);
      ("baselines", Test_baselines.suite);
      ("workload", Test_workload.suite);
      ("shard", Test_shard.suite);
      ("repl", Test_repl.suite);
      ("bench", Test_bench.suite);
    ]
