let () =
  (* [~and_exit:false] so a failing run trips the flight recorder first: in
     CI, ZKQAC_FLIGHT_DIR is set and the dump is uploaded as an artifact. *)
  try
    Alcotest.run ~and_exit:false "zkqac"
      (Test_bigint.suite @ Test_hashing.suite @ Test_group.suite
      @ Test_policy.suite @ Test_abs.suite @ Test_cpabe.suite
      @ Test_core.suite @ Test_extensions.suite @ Test_features.suite
      @ Test_properties.suite @ Test_typea_e2e.suite @ Test_edges.suite
      @ Test_wire.suite @ Test_pool.suite @ Test_telemetry.suite
      @ Test_trace.suite @ Test_adversary.suite @ Test_metrics.suite
      @ Test_flight.suite @ Test_audit.suite
      @ Test_rte.suite @ Test_server.suite @ Test_durable.suite
      @ Test_crash.suite @ Test_correlation.suite)
  with Alcotest.Test_error ->
    Zkqac_telemetry.Flight.trip ~reason:"test-failure";
    exit 1
