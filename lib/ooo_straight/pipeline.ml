(* [Ooo_common.Pipeline] under the name stackbench/ links.  BENCHMARK.json
   freezes that directory, so this alias stays until the next change to
   the benchmark drops it along with this library; nothing else may link
   it. *)
include Ooo_common.Pipeline
