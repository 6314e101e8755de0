(* The design-review report, the fixpoint composition (paper footnote 2),
   and SQL conveniences over the protocol database. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_report_sections () =
  let r = Checker.Deadlock.analyze Checker.Vcassign.with_vc4 in
  let s = Checker.Report.deadlock_section r in
  check "names the assignment" true (contains s "V-vc4");
  check "lists cycles" true (contains s "VC2 -> VC4");
  let clean = Checker.Report.deadlock_section (Checker.Deadlock.analyze Checker.Vcassign.debugged) in
  check "clean verdict" true (contains clean "deadlock free")

let test_invariant_section () =
  let results = Checker.Invariant.run_all (Protocol.database ()) in
  let s = Checker.Report.invariant_section results in
  check "mentions the paper invariant" true (contains s "d-mesi-pv-one");
  check "no failures section" false (contains s "**FAIL**")

let test_full_report () =
  let s = Checker.Report.generate () in
  check "has controller table section" true (contains s "## Controller tables");
  check "has assignment" true (contains s "V-debugged");
  check "has invariants" true (contains s "## Protocol invariants");
  check "is substantial" true (String.length s > 2000)

(* --- the paper's footnote 2: fixpoint composition adds no cycles ----- *)

let test_fixpoint_footnote () =
  let base = Checker.Deadlock.analyze Checker.Vcassign.with_vc4 in
  let fixed = Checker.Deadlock.analyze ~fixpoint:true Checker.Vcassign.with_vc4 in
  (* the closure can only add dependencies ... *)
  check "fixpoint adds (or keeps) dependencies" true
    (List.length fixed.Checker.Deadlock.entries
    >= List.length base.Checker.Deadlock.entries);
  (* ... but, as the paper observed, no new channel edges or cycles *)
  check_int "same number of channel edges"
    (Vcgraph.Digraph.num_edges base.Checker.Deadlock.vcg)
    (Vcgraph.Digraph.num_edges fixed.Checker.Deadlock.vcg);
  check_int "same number of cycles"
    (List.length base.Checker.Deadlock.cycles)
    (List.length fixed.Checker.Deadlock.cycles)

let test_fixpoint_on_debugged () =
  let fixed = Checker.Deadlock.analyze ~fixpoint:true Checker.Vcassign.debugged in
  check "still deadlock free at the fixpoint" true
    (Checker.Deadlock.is_deadlock_free fixed)

(* --- SQL conveniences over the real protocol database ---------------- *)

let test_count_over_protocol () =
  let db = Protocol.database () in
  let t = Relalg.Sql_exec.query db "SELECT COUNT(*) FROM D WHERE locmsg = 'retry'" in
  match (List.hd (Relalg.Table.rows t)).(0) with
  | Relalg.Value.Int n -> check "many retry rows" true (n > 500)
  | _ -> Alcotest.fail "expected an integer count"

let test_planner_over_protocol () =
  let db = Protocol.database () in
  let q =
    "SELECT inmsg, locmsg FROM D WHERE bdirlookup = 'hit' AND isrequest(inmsg) \
     AND NOT locmsg = NULL"
  in
  check "planner agrees with executor on D" true
    (Relalg.Table.equal_as_sets (Oracle.run db q)
       (Relalg.Sql_exec.query db q))

let suite =
  [
    Alcotest.test_case "deadlock section" `Quick test_report_sections;
    Alcotest.test_case "invariant section" `Quick test_invariant_section;
    Alcotest.test_case "full report" `Slow test_full_report;
    Alcotest.test_case "fixpoint footnote (paper fn. 2)" `Slow test_fixpoint_footnote;
    Alcotest.test_case "fixpoint on debugged assignment" `Slow test_fixpoint_on_debugged;
    Alcotest.test_case "count over the protocol db" `Quick test_count_over_protocol;
    Alcotest.test_case "planner over the protocol db" `Quick test_planner_over_protocol;
  ]
