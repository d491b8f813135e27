let () =
  Alcotest.run "elsdb"
    [
      ("rel", Test_rel.suite);
      ("value-cmp", Test_value_cmp.suite);
      ("csv", Test_csv.suite);
      ("stats", Test_stats.suite @ Test_count_table.suite);
      ("mcv", Test_mcv.suite);
      ("query", Test_query.suite);
      ("sqlfront", Test_sqlfront.suite);
      ("aliases", Test_aliases.suite);
      ("catalog", Test_catalog.suite);
      ("eqclass", Test_eqclass.suite);
      ("closure", Test_closure.suite);
      ("local-pred", Test_local_pred.suite);
      ("els-paper", Test_els_paper.suite);
      ("estimator", Test_estimator.suite);
      ("els-api", Test_els_api.suite);
      ("profile", Test_profile.suite);
      ("incremental", Test_incremental.suite);
      ("exec", Test_exec.suite);
      ("multikey", Test_multikey.suite);
      ("index", Test_index.suite);
      ("flat-table", Test_flat_table.suite);
      ("exec-alloc", Test_flat_table.alloc_suite);
      ("optimizer", Test_optimizer.suite);
      ("enumerators", Test_enumerators.suite);
      ("datagen", Test_datagen.suite);
      ("harness", Test_harness.suite);
      ("truth-alloc", Test_harness.alloc_suite);
      ("properties", Test_properties.suite);
      ("integration", Test_integration.suite);
      ("accuracy", Test_accuracy.suite);
      ("fault", Test_fault.suite);
      ("merge", Test_merge.suite);
      ("count-alloc", Test_count_table.alloc_suite);
      ("store", Test_store.suite);
      ("churn", Test_churn.suite);
      ("budget", Test_budget.suite);
      ("kernel", Test_kernel.suite);
      ("two-lane", Test_two_lane.suite);
      ("obs", Test_obs.suite);
      ("serve", Test_serve.suite);
      ("serve-lock", Test_store.phase_suite @ Test_serve.lock_suite);
      ("cli-exit", Test_cli_exit.suite);
    ]
