(* Alcotest sizes its suite column to the longest suite name and truncates
   long test names to fit the line, so a suite name longer than 11
   characters changes how every long test name prints. *)
let () =
  Alcotest.run "scallop"
    [
      ("utils", Test_utils.suite);
      ("value", Test_value.suite);
      ("bdd", Test_bdd.suite);
      ("formula-wmc", Test_formula.suite);
      ("topk-guided", Test_topk.suite);
      ("golden", Test_proof_golden.suite);
      ("provenance", Test_provenance.suite);
      ("aggregate", Test_aggregate.suite);
      ("parser", Test_parser.suite);
      ("language", Test_lang.suite);
      ("tensor", Test_tensor.suite);
      ("nn", Test_nn.suite);
      ("data", Test_data.suite);
      ("interp", Test_interp.suite);
      ("columnar", Test_columnar.suite);
      ("opt", Test_opt.suite);
      ("demand", Test_demand.suite);
      ("semantics", Test_semantics.suite);
      ("properties", Test_properties.suite);
      ("apps", Test_apps.suite);
      ("parallel", Test_parallel.suite);
      ("errors", Test_errors.suite);
      ("fuzz", Test_fuzz.suite);
      ("serialize", Test_serialize.suite);
      ("resilience", Test_resilience.suite);
      ("service", Test_service.suite);
      ("incr", Test_incr.suite);
      ("durability", Test_durability.suite);
      ("replication", Test_replication.suite);
      ("server", Test_server.suite);
    ]
