(* Row-level provenance: the lineage subsystem in lib/relalg and the
   "why" diagnostics built on it.

   The golden test reproduces the paper's Figure 4 narrative end to end:
   on the VC2/VC4 assignment the deadlock explanation must name the wb
   and readex transitions and their virtual channels, with each witness
   traced back to concrete controller rows.  The qcheck properties pin
   the semantic contract of lineage itself, through the production
   executor (SQL via Sql_exec, programmatic joins via Planner): decoding
   a derived row's contributors through the source registry reproduces
   the row (select), or at least covers its cells (project, join). *)

open Relalg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let assert_contains what ~needle haystack =
  if not (contains ~needle haystack) then
    Alcotest.failf "%s: expected to find %S in:\n%s" what needle haystack

(* indexed [Array.for_all] *)
let for_all_i f a =
  let rec go i = i >= Array.length a || (f i a.(i) && go (i + 1)) in
  go 0

(* ------------------------- lineage basics ----------------------------- *)

let test_tracking_off_is_free () =
  check_bool "tracking off by default" false (Lineage.tracking ());
  let t =
    Table.of_rows ~name:"t"
      (Schema.of_list [ "k"; "x" ])
      [ Row.strings [ "a"; "b" ]; Row.strings [ "c"; "d" ] ]
  in
  let sel = Planner.select (Expr.eq "k" "a") t in
  check_bool "derived table carries no lineage" true (Table.lineage sel = None);
  let j = Planner.equi_join ~on:[ ("k", "k") ] t (Ops.rename [ ("x", "y") ] t) in
  check_bool "join carries no lineage" true (Table.lineage j = None)

let test_with_tracking_restores () =
  check_bool "off before" false (Lineage.tracking ());
  (try
     Lineage.with_tracking (fun () ->
         check_bool "on inside" true (Lineage.tracking ());
         raise Exit)
   with Exit -> ());
  check_bool "off after an exception" false (Lineage.tracking ())

let test_merge_dedups () =
  let a = [| { Lineage.source = 1; row = 0 }; { Lineage.source = 2; row = 3 } |] in
  let b = [| { Lineage.source = 2; row = 3 }; { Lineage.source = 1; row = 7 } |] in
  let m = Lineage.merge a b in
  check_int "set union, duplicates dropped" 3 (Array.length m);
  check_bool "left-to-right order" true
    (m = [| { Lineage.source = 1; row = 0 }; { Lineage.source = 2; row = 3 };
            { Lineage.source = 1; row = 7 } |])

let test_group_count_lineage () =
  Lineage.with_tracking @@ fun () ->
  let t =
    Table.of_rows ~name:"g"
      (Schema.of_list [ "k"; "x" ])
      [
        Row.strings [ "a"; "p" ]; Row.strings [ "a"; "q" ];
        Row.strings [ "b"; "r" ];
      ]
  in
  let groups = Oracle.group_count_lineage ~by:[ "k" ] t in
  check_int "two groups" 2 (List.length groups);
  let _, count_a, lin_a =
    List.find (fun (row, _, _) -> row.(0) = Value.Str "a") groups
  in
  check_int "group a has two members" 2 count_a;
  check_int "group a merges both contributors" 2 (Array.length lin_a)

(* ------------------------ solver provenance --------------------------- *)

let test_solver_domain_lineage () =
  Lineage.with_tracking @@ fun () ->
  let spec =
    Solver.make ~name:"toy"
      ~columns:
        [
          { Solver.cname = "a"; role = Solver.Input;
            domain = [ Value.Str "x"; Value.Str "y" ] };
          { Solver.cname = "b"; role = Solver.Output;
            domain = [ Value.Str "u"; Value.Str "v" ] };
        ]
      ~constraints:[]
  in
  let t, _ = Solver.generate spec in
  match Table.lineage t with
  | None -> Alcotest.fail "generated table should carry lineage"
  | Some lin ->
      check_int "one lineage row per table row" (Table.cardinality t)
        (Array.length lin);
      Array.iteri
        (fun i contribs ->
          check_int "one contributor per column" 2 (Array.length contribs);
          Array.iteri
            (fun j (c : Lineage.contrib) ->
              match Lineage.source c.Lineage.source with
              | None -> Alcotest.fail "contributor source not registered"
              | Some s ->
                  check_bool "domain cell reproduces the table cell" true
                    ((s.Lineage.get c.Lineage.row).(0) = (Table.get t i).(j)))
            contribs)
        lin

(* ----------------------- qcheck properties ---------------------------- *)

let value_pool = [ "a"; "b"; "c"; "d" ]

let table_gen ~name ~cols =
  QCheck.Gen.(
    let* n = int_range 1 40 in
    let* rows =
      list_repeat n
        (let* cells =
           flatten_l (List.map (fun _ -> oneofl value_pool) cols)
         in
         return (Row.strings cells))
    in
    return (Table.of_rows ~name (Schema.of_list cols) rows))

let print_table t =
  Printf.sprintf "%s(%d rows)" (Table.name t) (Table.cardinality t)

let decode (c : Lineage.contrib) =
  match Lineage.source c.Lineage.source with
  | None -> Alcotest.failf "unregistered lineage source %d" c.Lineage.source
  | Some s -> s.Lineage.get c.Lineage.row

let cell_mem v row = Array.exists (fun c -> c = v) row

(* σ keeps rows whole: every surviving row has exactly one contributor
   and decoding it through the registry gives back the row itself. *)
let prop_select_lineage =
  QCheck.Test.make ~count:200
    ~name:"select lineage decodes to the identical base row"
    (QCheck.make
       QCheck.Gen.(
         pair (table_gen ~name:"t" ~cols:[ "k"; "x" ]) (oneofl value_pool))
       ~print:(fun (t, v) -> Printf.sprintf "%s, k=%s" (print_table t) v))
    (fun (t, v) ->
      Lineage.with_tracking @@ fun () ->
      let sel =
        Sql_exec.query
          (Database.add Database.empty t)
          (Printf.sprintf "SELECT * FROM t WHERE k = '%s'" v)
      in
      let lin = Option.get (Table.lineage sel) in
      Array.length lin = Table.cardinality sel
      && for_all_i
           (fun i contribs ->
             Array.length contribs = 1
             && decode contribs.(0) = Table.get sel i)
           lin)

(* π drops columns but not rows: each projected cell must occur in the
   (single) contributing base row. *)
let prop_project_lineage =
  QCheck.Test.make ~count:200
    ~name:"project lineage covers every projected cell"
    (QCheck.make
       (table_gen ~name:"t" ~cols:[ "k"; "x"; "y" ])
       ~print:print_table)
    (fun t ->
      Lineage.with_tracking @@ fun () ->
      let p =
        Sql_exec.query (Database.add Database.empty t) "SELECT DISTINCT x, k FROM t"
      in
      let lin = Option.get (Table.lineage p) in
      for_all_i
        (fun i contribs ->
          Array.length contribs >= 1
          && Array.for_all
               (fun cell -> cell_mem cell (decode contribs.(0)))
               (Table.get p i))
        lin)

(* ⋈ merges parents: every cell of a joined row occurs in one of the
   contributing base rows (one from each side). *)
let prop_join_lineage =
  QCheck.Test.make ~count:200
    ~name:"join lineage contributors cover every joined cell"
    (QCheck.make
       QCheck.Gen.(
         pair
           (table_gen ~name:"a" ~cols:[ "k"; "x" ])
           (table_gen ~name:"b" ~cols:[ "k"; "y" ]))
       ~print:(fun (a, b) ->
         Printf.sprintf "%s, %s" (print_table a) (print_table b)))
    (fun (a, b) ->
      Lineage.with_tracking @@ fun () ->
      let j = Planner.equi_join ~on:[ ("k", "k") ] a b in
      let lin = Option.get (Table.lineage j) in
      Array.length lin = Table.cardinality j
      && for_all_i
           (fun i contribs ->
             Array.length contribs = 2
             && Array.for_all
                  (fun cell ->
                    Array.exists (fun c -> cell_mem cell (decode c)) contribs)
                  (Table.get j i))
           lin)

(* -------------------------- why deadlock ------------------------------ *)

(* The paper's Figure 4 story on the VC2/VC4 assignment, loaded through
   the same table round-trip the CSV path uses: the narrative must name
   the writeback (wb -> mwrite) and read-exclusive (readex -> mread)
   transitions and both virtual channels of the surviving cycle. *)
let test_why_deadlock_golden () =
  let v =
    Checker.Vcassign.of_table
      (Checker.Vcassign.to_table Checker.Vcassign.with_vc4)
  in
  let r = Checker.Deadlock.analyze v in
  check_bool "the VC2/VC4 cycle survives" false
    (Checker.Deadlock.is_deadlock_free r);
  let text = Checker.Why.deadlock r in
  assert_contains "cycle channels" ~needle:"VC2 -> VC4 -> VC2" text;
  assert_contains "writeback transition" ~needle:"consuming wb, sends mwrite"
    text;
  assert_contains "read-exclusive transition"
    ~needle:"consuming readex, sends mread" text;
  assert_contains "wb feeds VC4" ~needle:"into VC4" text;
  assert_contains "controller-row witness" ~needle:"D[row " text;
  let dot = Checker.Why.deadlock_dot r in
  assert_contains "dot names the VC4 node" ~needle:"\"VC4\"" dot;
  assert_contains "dot has witness edges" ~needle:"->" dot

let test_why_deadlock_free () =
  let r = Checker.Deadlock.analyze Checker.Vcassign.debugged in
  let text = Checker.Why.deadlock r in
  assert_contains "deadlock-free narrative" ~needle:"Deadlock free" text

(* ------------------------- why invariant ------------------------------ *)

let test_why_invariant_lineage () =
  let db = Protocol.database () in
  (* a deliberately failing "invariant": its query selects real rows, so
     the explanation must decode their lineage back to the D table *)
  let failing =
    {
      Checker.Invariant.id = "test-readex-rows";
      description = "no readex rows (deliberately false)";
      controller = "D";
      check = Checker.Invariant.Sql "SELECT inmsg, dirst FROM D WHERE inmsg = 'readex'";
    }
  in
  let passed, text = Checker.Why.invariant db failing in
  check_bool "deliberately false invariant fails" false passed;
  assert_contains "violation rows shown" ~needle:"VIOLATED" text;
  assert_contains "lineage decoded" ~needle:"derived from" text;
  assert_contains "base table named" ~needle:"D[row " text;
  (* and a real invariant from the suite still holds, with a narrative *)
  match Checker.Invariant.find "d-mesi-pv-one" with
  | None -> Alcotest.fail "d-mesi-pv-one missing from the suite"
  | Some inv ->
      let passed, text = Checker.Why.invariant db inv in
      check_bool "suite invariant holds" true passed;
      assert_contains "holds narrative" ~needle:"HOLDS" text

let suite =
  [
    Alcotest.test_case "tracking off: no lineage, no cost" `Quick
      test_tracking_off_is_free;
    Alcotest.test_case "with_tracking restores on exception" `Quick
      test_with_tracking_restores;
    Alcotest.test_case "merge is an order-preserving set union" `Quick
      test_merge_dedups;
    Alcotest.test_case "group_count_lineage merges group members" `Quick
      test_group_count_lineage;
    Alcotest.test_case "solver rows point at their domain cells" `Quick
      test_solver_domain_lineage;
    QCheck_alcotest.to_alcotest prop_select_lineage;
    QCheck_alcotest.to_alcotest prop_project_lineage;
    QCheck_alcotest.to_alcotest prop_join_lineage;
    Alcotest.test_case "why deadlock reproduces the Figure 4 narrative"
      `Quick test_why_deadlock_golden;
    Alcotest.test_case "why deadlock on the debugged assignment" `Quick
      test_why_deadlock_free;
    Alcotest.test_case "why invariant decodes violation lineage" `Quick
      test_why_invariant_lineage;
  ]
