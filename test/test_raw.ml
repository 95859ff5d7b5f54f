let () =
  Alcotest.run "raw"
    (Test_vector.suites @ Test_storage.suites @ Test_formats.suites
   @ Test_jsonl.suites @ Test_engine.suites @ Test_sql.suites @ Test_core.suites
   @ Test_access.suites @ Test_planner.suites @ Test_integration.suites
   @ Test_index.suites @ Test_cost.suites @ Test_executor.suites @ Test_props.suites
   @ Test_faults.suites @ Test_governance.suites @ Test_obs.suites
   @ Test_history.suites @ Test_server.suites @ Test_server_chaos.suites
   @ Test_approx.suites @ Test_prof.suites @ Test_semantics.suites
   @ Test_refresh.suites)
