(* Aggregated alcotest entry point: every suite from every test module. *)

let () =
  Alcotest.run "scliques"
    (Test_collections.suites @ Test_node_set.suites @ Test_graph.suites @ Test_metis.suites
   @ Test_traversal.suites @ Test_gen.suites @ Test_core_units.suites
   @ Test_algorithms.suites @ Test_hardness.suites @ Test_relaxations.suites
   @ Test_parallel_dot.suites @ Test_hereditary.suites @ Test_orderings.suites
   @ Test_families.suites @ Test_fuzz.suites @ Test_properties.suites
   @ Test_obs.suites @ Test_differential.suites @ Test_resume.suites
   @ Test_snapshot.suites @ Test_churn.suites @ Test_daemon.suites @ Test_codec.suites
   @ Test_extend_max.suites @ Test_cs2_visit.suites)
