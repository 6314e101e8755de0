(* Transition coverage, run manifests, and the report aggregator:
   bitmap record/snapshot semantics, the pinned golden coverage of the
   Figure 4 replay, seq-vs-par bitmap identity, manifest schema edge
   cases, metric-registry hardening, and a Runreport round trip. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Leave both the coverage switch and the bitmaps clean for whichever
   suite runs next; registrations are kept (lazily-cached rulesets in
   sim/mcheck registered their tables once and would otherwise record
   into the void afterwards). *)
let with_coverage f () =
  Obs.Coverage.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Coverage.disable ();
      Obs.Coverage.reset ())
    (fun () -> Obs.Coverage.with_enabled f)

(* Fake table ids well above anything Relalg.Table allocates in this
   process; each test uses its own id so idempotent registration never
   surprises another test. *)
let fake_id = ref 1_000_000
let fresh_id () = incr fake_id; !fake_id

(* ------------------------------ bitmaps ------------------------------- *)

let test_record_snapshot () =
  let id = fresh_id () in
  Obs.Coverage.register ~id ~name:"FAKE-RS" ~rows:10;
  List.iter (fun row -> Obs.Coverage.record ~id ~row) [ 0; 3; 9; 3 ];
  match
    List.find_opt
      (fun (tc : Obs.Coverage.table_coverage) -> tc.name = "FAKE-RS")
      (Obs.Coverage.snapshot ())
  with
  | None -> Alcotest.fail "registered table missing from snapshot"
  | Some tc ->
      check_int "rows" 10 tc.rows;
      check_int "covered (duplicates collapse)" 3 tc.covered;
      check "row 3 covered" true (Obs.Coverage.is_covered tc 3);
      check "row 4 uncovered" false (Obs.Coverage.is_covered tc 4);
      Alcotest.(check (list int))
        "uncovered rows" [ 1; 2; 4; 5; 6; 7; 8 ]
        (Obs.Coverage.uncovered tc)

let test_disabled_is_noop () =
  let id = fresh_id () in
  Obs.Coverage.register ~id ~name:"FAKE-OFF" ~rows:4;
  Obs.Coverage.disable ();
  Obs.Coverage.record ~id ~row:1;
  Obs.Coverage.enable ();
  let tc =
    List.find
      (fun (tc : Obs.Coverage.table_coverage) -> tc.name = "FAKE-OFF")
      (Obs.Coverage.snapshot ())
  in
  check_int "nothing recorded while off" 0 tc.covered

let test_unregistered_dropped () =
  (* recording against an id nobody registered must not raise and must
     not appear in snapshots *)
  Obs.Coverage.record ~id:(fresh_id ()) ~row:0;
  check "snapshot has no anonymous entry" true
    (List.for_all
       (fun (tc : Obs.Coverage.table_coverage) -> tc.name <> "")
       (Obs.Coverage.snapshot ()))

let test_percent_and_hex () =
  Alcotest.(check (float 1e-9)) "zero rows is fully covered" 100.
    (Obs.Coverage.percent ~covered:0 ~rows:0);
  Alcotest.(check (float 1e-9)) "half" 50.
    (Obs.Coverage.percent ~covered:5 ~rows:10);
  let b = Bytes.of_string "\x00\xff\x5a" in
  check "hex round trip" true
    (Bytes.equal b (Obs.Coverage.of_hex (Obs.Coverage.to_hex b)))

(* -------------------------- golden figure 4 --------------------------- *)

(* The Figure 4 replay is fully scripted, and table generation is
   deterministic, so the exact rows it exercises are a stable golden
   value: five directory rows, one memory row, and no I/O traffic at
   all.  A protocol or solver change that shifts these is worth seeing
   in review. *)
let test_figure4_golden () =
  ignore (Sim.Scenario.figure4 Checker.Vcassign.with_vc4);
  let snap = Obs.Coverage.snapshot () in
  (* other suites may have registered seeded spec variants under the
     same controller name with a different row count; match on the live
     protocol table's cardinality to pick the real one *)
  let find name =
    let rows =
      Relalg.Table.cardinality
        (Protocol.Ctrl_spec.table (Option.get (Protocol.find name)).Protocol.spec)
    in
    List.find
      (fun (tc : Obs.Coverage.table_coverage) ->
        tc.name = name && tc.rows = rows)
      snap
  in
  let covered_rows tc =
    List.filter (Obs.Coverage.is_covered tc) (List.init tc.Obs.Coverage.rows Fun.id)
  in
  let d = find "D" in
  Alcotest.(check (list int))
    "D rows fired" [ 203; 391; 407; 1092; 1125 ] (covered_rows d);
  Alcotest.(check (list int)) "M rows fired" [ 2 ] (covered_rows (find "M"));
  check_int "IO never fires" 0 (find "IO").covered;
  (* an uncovered row decodes to a readable transition *)
  match Protocol.find "IO" with
  | None -> Alcotest.fail "IO controller missing"
  | Some c ->
      let desc = Protocol.Ctrl_spec.describe_row c.Protocol.spec 0 in
      check "decoded transition is non-empty" true (String.length desc > 0);
      check "decoded transition has an arrow" true
        (String.length desc > 4
        && Option.is_some (String.index_opt desc '>'))

(* ------------------------ seq-vs-par identity ------------------------- *)

(* The qcheck property behind the parallel-coverage claim: for random
   small workloads, the ORed worker shards at 4 domains equal the
   single-domain bitmap byte for byte. *)
let mcheck_tables = lazy (Mcheck.Semantics.load_tables ())

let coverage_of ~domains cfg =
  Obs.Coverage.reset ();
  Par.Pool.with_domains domains (fun () ->
      ignore
        (Mcheck.Explore.run ~max_states:2_000
           ~tables:(Lazy.force mcheck_tables) cfg));
  List.map
    (fun (tc : Obs.Coverage.table_coverage) ->
      (tc.name, Bytes.to_string tc.bitmap))
    (Obs.Coverage.snapshot ())

let prop_par_bitmaps_equal_seq =
  QCheck2.Test.make ~count:4
    ~name:"parallel coverage bitmaps merge to the sequential bitmap"
    QCheck2.Gen.(
      pair (int_range 1 2)
        (oneofl [ [ "load" ]; [ "load"; "store" ]; [ "store" ] ]))
    (fun (nodes, ops) ->
      let cfg =
        {
          Mcheck.Semantics.nodes; addrs = 1; ops; capacity = 3;
          io_addrs = []; lossy = false;
        }
      in
      Obs.Coverage.with_enabled (fun () ->
          let seq = coverage_of ~domains:1 cfg in
          let par = coverage_of ~domains:4 cfg in
          Obs.Coverage.reset ();
          seq = par))

(* ------------------------- walkthrough credit ------------------------- *)

let test_walkthrough_rows_exercised () =
  let ws = Sim.Walkthrough.all () in
  check "first walkthrough exercises rows" true
    (match (List.hd ws).Sim.Walkthrough.rows_exercised with
    | Some n -> n > 0
    | None -> false);
  check "every walkthrough attributed" true
    (List.for_all
       (fun w -> Option.is_some w.Sim.Walkthrough.rows_exercised)
       ws)

let test_walkthrough_off_is_none () =
  Obs.Coverage.disable ();
  let w = List.hd (Sim.Walkthrough.all ()) in
  Obs.Coverage.enable ();
  check "no attribution with coverage off" true
    (w.Sim.Walkthrough.rows_exercised = None)

(* ------------------------------ manifests ----------------------------- *)

let member_exn name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "manifest field %s missing" name)

let test_empty_manifest () =
  (* the zero-state edge case: a manifest taken before any command ran,
     with nothing configured, still carries the schema and an empty but
     well-formed coverage summary *)
  Obs.Runlog.reset ();
  Obs.Coverage.reset ();
  let j = Obs.Runlog.manifest () in
  check_string "schema" "asura-run/1"
    (Option.get (Obs.Json.to_str (member_exn "schema" j)));
  let cov = member_exn "coverage" j in
  (match Obs.Json.to_number (member_exn "rows" cov) with
  | Some _ -> ()
  | None -> Alcotest.fail "coverage.rows not a number");
  (* round trip through the printer/parser *)
  match Obs.Json.parse (Obs.Json.to_string j) with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("manifest does not re-parse: " ^ msg)

let test_manifest_write_round_trip () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "asura-test-runs-%d" (Unix.getpid ()))
  in
  Obs.Runlog.configure ~dir ~cmd:"testcmd" ~argv:[| "asura"; "testcmd" |];
  Obs.Runlog.note "answer" (Obs.Json.Int 42);
  Obs.Runlog.note "answer" (Obs.Json.Int 43);
  (match Obs.Runlog.write () with
  | None -> Alcotest.fail "configured runlog refused to write"
  | Some path ->
      let ic = open_in_bin path in
      let contents =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Sys.remove path;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ());
      let j = Obs.Json.parse_exn contents in
      check_string "cmd" "testcmd"
        (Option.get (Obs.Json.to_str (member_exn "cmd" j)));
      check "note replaced, not duplicated" true
        (Obs.Json.to_number (member_exn "answer" j) = Some 43.));
  Obs.Runlog.reset ()

let test_heartbeat_tick () =
  let path = Filename.temp_file "asura-beat" ".log" in
  let oc = open_out path in
  Obs.Runlog.set_sink oc;
  Obs.Runlog.enable_progress ~interval_s:0. ();
  Obs.Runlog.tick (fun () -> "beat one");
  Obs.Runlog.tick (fun () -> "beat two");
  Obs.Runlog.disable_progress ();
  Obs.Runlog.tick (fun () -> "beat three (disarmed)");
  Obs.Runlog.set_sink stderr;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Alcotest.(check (list string))
    "ticks while armed, silence after" [ "beat one"; "beat two" ]
    (List.rev !lines)

(* ------------------------- evaluation counters ------------------------ *)

let counters_of registry j =
  match Obs.Json.member registry j with
  | Some reg -> (
      match Obs.Json.member "counters" reg with
      | Some (Obs.Json.Obj kvs) -> kvs
      | _ -> [])
  | None -> []

let test_invariant_counters () =
  Obs.Metrics.reset ();
  Obs.Config.with_enabled (fun () ->
      ignore (Checker.Invariant.run_all (Protocol.database ())));
  let counters = counters_of "checker" (Obs.Metrics.to_json ()) in
  let get name = List.assoc_opt name counters in
  (match get "invariants_checked" with
  | Some (Obs.Json.Int n) -> check "aggregate checked count" true (n > 10)
  | _ -> Alcotest.fail "invariants_checked counter missing");
  check "per-invariant checked counters exist" true
    (List.exists
       (fun (k, _) ->
         String.length k > 4
         && String.sub k 0 4 = "inv."
         && Filename.check_suffix k ".checked")
       counters);
  Obs.Metrics.reset ()

let test_solver_pruning_counters () =
  Obs.Metrics.reset ();
  Obs.Config.with_enabled (fun () ->
      ignore
        (Relalg.Solver.generate
           (Protocol.Ctrl_spec.to_solver_spec Protocol.Dir_controller.spec)));
  let counters = counters_of "solver" (Obs.Metrics.to_json ()) in
  check "per-constraint pruning counters exist" true
    (List.exists
       (fun (k, _) ->
         String.length k > 7 && String.sub k 0 7 = "pruned.")
       counters);
  Obs.Metrics.reset ()

let test_metrics_duplicate_registration () =
  Obs.Metrics.reset ();
  let reg = Obs.Metrics.registry "dup-test" in
  let bounds_a = Obs.Metrics.exponential_bounds ~start:0.01 ~factor:4. 8 in
  let bounds_b = Obs.Metrics.exponential_bounds ~start:1.0 ~factor:2. 4 in
  let h1 = Obs.Metrics.histogram ~bounds:bounds_a reg "h" in
  (* re-registration with different bounds must return the existing
     handle instead of raising *)
  let h2 = Obs.Metrics.histogram ~bounds:bounds_b reg "h" in
  Obs.Config.with_enabled (fun () ->
      Obs.Metrics.observe h1 1.0;
      Obs.Metrics.observe h2 2.0);
  (match Obs.Json.member "dup-test" (Obs.Metrics.to_json ()) with
  | Some reg_json -> (
      match
        Option.bind (Obs.Json.member "histograms" reg_json)
          (Obs.Json.member "h")
      with
      | Some h -> (
          match Obs.Json.to_number (Option.get (Obs.Json.member "n" h)) with
          | Some n -> Alcotest.(check (float 1e-9)) "both observed" 2. n
          | None -> Alcotest.fail "histogram sample count missing")
      | None -> Alcotest.fail "histogram missing from metrics JSON")
  | None -> Alcotest.fail "registry missing from metrics JSON");
  Obs.Metrics.reset ()

(* --------------------------- schema stamps ---------------------------- *)

let schema_of j = Option.bind (Obs.Json.member "schema" j) Obs.Json.to_str

let test_stats_and_explain_schemas () =
  let d =
    Protocol.Ctrl_spec.table
      (Option.get (Protocol.find "D")).Protocol.spec
  in
  check "stats schema" true
    (schema_of (Relalg.Profile.to_json (Relalg.Profile.profile d))
    = Some "asura-stats/1");
  let r = Relalg.Planner.analyze (Protocol.database ()) "SELECT inmsg FROM M" in
  check "explain schema" true
    (schema_of (Relalg.Planner.to_json r) = Some "asura-explain/2");
  (* explain --analyze output saved by older builds still aggregates *)
  let v1 =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "asura-explain/1");
        ("rows", Obs.Json.Int 3);
        ("total_ns", Obs.Json.Float 1000.);
        ("physical", Obs.Json.Str "seq scan M\n");
      ]
  in
  check "asura-explain/1 still classifies" true
    (match Obs.Runreport.classify v1 with
    | Ok (Obs.Runreport.Explain _) -> true
    | _ -> false)

(* ----------------------------- runreport ------------------------------ *)

let synthetic_manifest () =
  (* two tables, one fully covered, one half covered *)
  Obs.Json.Obj
    [
      "schema", Obs.Json.Str "asura-run/1";
      "cmd", Obs.Json.Str "mcheck";
      "date", Obs.Json.Str "2026-08-06T00:00:00Z";
      "elapsed_s", Obs.Json.Float 1.0;
      ( "metrics",
        Obs.Json.Obj
          [
            ( "checker",
              Obs.Json.Obj
                [
                  ( "counters",
                    Obs.Json.Obj
                      [
                        "inv.d-owner.checked", Obs.Json.Int 3;
                        "inv.d-owner.violated", Obs.Json.Int 1;
                      ] );
                ] );
          ] );
      ( "coverage",
        Obs.Json.Obj
          [
            "covered", Obs.Json.Int 10;
            "rows", Obs.Json.Int 12;
            "percent", Obs.Json.Float (100. *. 10. /. 12.);
            ( "tables",
              Obs.Json.List
                [
                  Obs.Json.Obj
                    [
                      "table", Obs.Json.Str "A";
                      "rows", Obs.Json.Int 8;
                      "covered", Obs.Json.Int 8;
                      "percent", Obs.Json.Float 100.;
                      "bitmap", Obs.Json.Str "ff";
                    ];
                  Obs.Json.Obj
                    [
                      "table", Obs.Json.Str "B";
                      "rows", Obs.Json.Int 4;
                      "covered", Obs.Json.Int 2;
                      "percent", Obs.Json.Float 50.;
                      "bitmap", Obs.Json.Str "05";
                    ];
                ] );
          ] );
    ]

let test_runreport_round_trip () =
  match Obs.Runreport.collect [ "run-a.json", synthetic_manifest () ] with
  | _, (label, reason) :: _ ->
      Alcotest.fail (Printf.sprintf "%s skipped: %s" label reason)
  | agg, [] ->
      let cov = Obs.Runreport.coverage agg in
      check_int "two tables" 2 (List.length cov);
      let b =
        List.find (fun (tc : Obs.Coverage.table_coverage) -> tc.name = "B") cov
      in
      check_int "B covered" 2 b.covered;
      Alcotest.(check (float 1e-9))
        "overall percent" (100. *. 10. /. 12.)
        (Obs.Runreport.overall_percent agg);
      let md =
        Obs.Runreport.render_markdown
          ~decode:(fun ~table ~rows:_ ~row ->
            if table = "B" then Some (Printf.sprintf "decoded-%d" row) else None)
          agg
      in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      check "coverage table rendered" true (contains md "## Transition coverage");
      check "uncovered row decoded" true (contains md "decoded-1");
      check "invariant matrix rendered" true (contains md "d-owner");
      let j = Obs.Runreport.to_json agg in
      check "report schema" true (schema_of j = Some "asura-report/1");
      (match Obs.Json.parse (Obs.Json.to_string j) with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail ("report JSON does not re-parse: " ^ msg));
      let html = Obs.Runreport.render_html agg in
      check "html has a table" true (contains html "<table>")

let test_runreport_rejects_unknown_schema () =
  (* A malformed document is skipped with a warning, not classified and
     not fatal: healthy documents in the same batch still aggregate. *)
  let agg, skipped =
    Obs.Runreport.collect
      [
        "bad.json", Obs.Json.Obj [ "schema", Obs.Json.Str "nonsense/9" ];
        "run-a.json", synthetic_manifest ();
      ]
  in
  check_int "one document skipped" 1 (List.length skipped);
  (match skipped with
  | [ (label, reason) ] ->
      check "warning names the file" true (label = "bad.json");
      check "warning has a reason" true (String.length reason > 0)
  | _ -> Alcotest.fail "expected exactly one skip warning");
  check "healthy manifest survives" false (Obs.Runreport.is_empty agg);
  check_int "healthy run collected" 1 (List.length agg.Obs.Runreport.runs);
  let all_bad, skipped2 =
    Obs.Runreport.collect [ "only-bad.json", Obs.Json.Obj [] ]
  in
  check "all-bad aggregate is empty" true (Obs.Runreport.is_empty all_bad);
  check_int "all-bad everything skipped" 1 (List.length skipped2)

let suite =
  [
    Alcotest.test_case "record and snapshot" `Quick (with_coverage test_record_snapshot);
    Alcotest.test_case "disabled recording is a no-op" `Quick
      (with_coverage test_disabled_is_noop);
    Alcotest.test_case "unregistered ids are dropped" `Quick
      (with_coverage test_unregistered_dropped);
    Alcotest.test_case "percent edge cases and hex codec" `Quick
      (with_coverage test_percent_and_hex);
    Alcotest.test_case "figure 4 golden coverage" `Quick
      (with_coverage test_figure4_golden);
    Test_seed.to_alcotest prop_par_bitmaps_equal_seq;
    Alcotest.test_case "walkthroughs credited with first-exercised rows" `Quick
      (with_coverage test_walkthrough_rows_exercised);
    Alcotest.test_case "walkthrough attribution off by default" `Quick
      (with_coverage test_walkthrough_off_is_none);
    Alcotest.test_case "empty-run manifest is well-formed" `Quick test_empty_manifest;
    Alcotest.test_case "manifest write round trip" `Quick
      test_manifest_write_round_trip;
    Alcotest.test_case "heartbeat respects arming and sink" `Quick
      test_heartbeat_tick;
    Alcotest.test_case "invariant evaluation counters" `Quick
      test_invariant_counters;
    Alcotest.test_case "solver pruning attribution" `Quick
      test_solver_pruning_counters;
    Alcotest.test_case "duplicate metric registration is safe" `Quick
      test_metrics_duplicate_registration;
    Alcotest.test_case "stats and explain schema stamps" `Quick
      test_stats_and_explain_schemas;
    Alcotest.test_case "runreport aggregation round trip" `Quick
      test_runreport_round_trip;
    Alcotest.test_case "runreport rejects unknown schemas" `Quick
      test_runreport_rejects_unknown_schema;
  ]
