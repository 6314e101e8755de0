(* Differential tests of the cost-based planner and its vectorized
   batch engine (lib/relalg/planner.ml, lib/relalg/batch.ml) against
   the row-at-a-time reference engine kept in the test-only {!Oracle}.

   The contract under test is strong: the planner must reproduce the
   oracle's answers *in row order*, not just as multisets —
   select/project/limit stream in order, group and distinct keep first
   occurrences, sort is stable, and the hash join emits left-major
   pairs — and, with lineage tracking on, the same per-row lineage.  The
   qcheck properties throw random logical plans (including NULL cells,
   ternary predicates, joins and set operators) at both engines; set
   QCHECK_SEED to replay a failure. *)

open Relalg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* ordered row-by-row equality, schema included *)
let same_table t1 t2 =
  Schema.columns (Table.schema t1) = Schema.columns (Table.schema t2)
  && Table.rows t1 = Table.rows t2

(* the same lineage row by row ([None] only where the other side has no
   lineage either) *)
let same_lineage t1 t2 =
  let at t i = Option.map (fun l -> l.(i)) (Table.lineage t) in
  Table.cardinality t1 = Table.cardinality t2
  && List.for_all
       (fun i -> at t1 i = at t2 i)
       (List.init (Table.cardinality t1) Fun.id)

let render_rows t =
  String.concat "\n"
    (List.map
       (fun r ->
         String.concat "|" (Array.to_list (Array.map Value.to_string r)))
       (Table.rows t))

(* ------------------------------ fixture ------------------------------- *)

let mk_table name cols rows = Table.of_rows ~name (Schema.of_list cols) rows

let fixture_db =
  lazy
    (let a =
       mk_table "a" [ "k"; "x" ]
         [
           Row.strings [ "p"; "u" ]; Row.strings [ "q"; "v" ];
           Row.strings [ "p"; "v" ]; Row.strings [ "r"; "w" ];
           [| Value.Str "q"; Value.Null |]; Row.strings [ "p"; "u" ];
           [| Value.Null; Value.Str "w" |];
         ]
     in
     let b =
       mk_table "b" [ "k"; "y" ]
         [
           Row.strings [ "p"; "1" ]; Row.strings [ "q"; "2" ];
           Row.strings [ "q"; "3" ]; Row.strings [ "z"; "4" ];
         ]
     in
     Database.add (Database.add Database.empty a) b)

let diff_sql sql =
  let db = Lazy.force fixture_db in
  let q = Sql_parser.parse_query sql in
  let reference = Oracle.run_query db q in
  let planned = Planner.run_query db q in
  if not (same_table reference planned) then
    Alcotest.failf "planner diverges from reference on %s\nreference:\n%s\nplanner:\n%s"
      sql (render_rows reference) (render_rows planned);
  (* and with tracking on, row for row the same lineage *)
  Lineage.with_tracking @@ fun () ->
  let reference = Oracle.run_query db q in
  let planned = Sql_exec.run_query db q in
  if not (same_table reference planned && same_lineage reference planned) then
    Alcotest.failf "planner lineage diverges from reference on %s" sql

(* ------------------------ SQL differentials --------------------------- *)

let test_sql_differential () =
  List.iter diff_sql
    [
      "SELECT * FROM a";
      "SELECT * FROM a WHERE k = 'p'";
      "SELECT * FROM a WHERE k = 'p' OR x = 'w'";
      "SELECT x FROM a WHERE NOT k = 'q'";
      "SELECT DISTINCT x FROM a";
      "SELECT DISTINCT k, x FROM a";
      "SELECT k, COUNT(*) FROM a GROUP BY k";
      "SELECT k, x, COUNT(*) FROM a GROUP BY k, x";
      "SELECT COUNT(*) FROM a WHERE x = 'v'";
      "SELECT * FROM a ORDER BY k, x";
      "SELECT * FROM a ORDER BY x DESC, k LIMIT 3";
      "SELECT * FROM a LIMIT 2";
      "SELECT k FROM a UNION SELECT k FROM b";
      "SELECT k FROM a EXCEPT SELECT k FROM b";
      "SELECT k FROM a INTERSECT SELECT k FROM b";
    ]

(* The planner runs every query behind Sql_exec.run_query: the public
   entry point records its plan and agrees with the oracle. *)
let test_sql_entry_point_uses_planner () =
  let db = Lazy.force fixture_db in
  let q = Sql_parser.parse_query "SELECT k, COUNT(*) FROM a GROUP BY k" in
  check_bool "entry point matches oracle" true
    (same_table (Sql_exec.run_query db q) (Oracle.run_query db q));
  Obs.Planlog.reset ();
  Obs.Config.with_enabled (fun () -> ignore (Sql_exec.run_query db q));
  check_bool "the execution is in the plan observatory" true
    (Obs.Planlog.snapshot () <> []);
  Obs.Planlog.reset ()

(* ----------------------- top-k under ORDER BY ------------------------- *)

let rec plan_has p (n : Planner.t) =
  p n.Planner.op || List.exists (plan_has p) n.Planner.children

let test_topk_recognized () =
  let db = Lazy.force fixture_db in
  let q = Sql_parser.parse_query "SELECT * FROM a ORDER BY k LIMIT 2" in
  let annotated = Planner.plan db (Plan.of_query q) in
  check_bool "LIMIT over ORDER BY plans as top-k" true
    (plan_has (function Planner.Topk _ -> true | _ -> false) annotated);
  check_bool "no full sort below the top-k" false
    (plan_has (function Planner.Sort _ -> true | _ -> false) annotated)

(* sys.spans is the canonical top-k consumer ("slowest spans"): the
   pushed-down limit must return exactly the reference answer. *)
let test_sys_spans_topk () =
  Obs.Config.with_enabled (fun () ->
      Obs.Trace.reset ();
      Obs.Trace.with_span "outer" (fun () ->
          List.iter
            (fun name -> Obs.Trace.with_span name (fun () -> ignore (Sys.opaque_identity 0)))
            [ "s1"; "s2"; "s3"; "s4"; "s5" ]);
      let db = Systables.attach_live Database.empty in
      Obs.Trace.reset ();
      let sql = "SELECT name, parent FROM sys.spans ORDER BY name DESC LIMIT 3" in
      let q = Sql_parser.parse_query sql in
      let reference = Oracle.run_query db q in
      let planned = Planner.run_query db q in
      check_int "top-k returns exactly k rows" 3 (Table.cardinality planned);
      check_bool "sys.spans top-k matches reference" true
        (same_table reference planned);
      check_bool "plans as top-k" true
        (plan_has
           (function Planner.Topk (3, _) -> true | _ -> false)
           (Planner.plan db (Plan.of_query q))))

(* ----------------------- explain --analyze ---------------------------- *)

let test_analyze_est_vs_actual () =
  let db = Lazy.force fixture_db in
  let r = Planner.analyze db "SELECT DISTINCT x FROM a WHERE k = 'p'" in
  check_int "analyze executes the query" 2 (Table.cardinality r.Planner.table);
  check_int "root actual is the result cardinality" 2 r.Planner.root.Planner.actual;
  let rendered = Planner.render_report r in
  List.iter
    (fun needle -> check_bool ("report shows " ^ needle) true (contains ~needle rendered))
    [ "est="; "actual="; "cost="; "distinct"; "scan a" ];
  (* every operator in the tree was executed, so no actual is left unset *)
  let rec all_actual (n : Planner.t) =
    n.Planner.actual >= 0 && List.for_all all_actual n.Planner.children
  in
  check_bool "every operator recorded an actual row count" true
    (all_actual r.Planner.root)

let test_explain_unexecuted () =
  let db = Lazy.force fixture_db in
  let s = Planner.explain db "SELECT k FROM a WHERE x = 'v' ORDER BY k" in
  List.iter
    (fun needle -> check_bool ("explain shows " ^ needle) true (contains ~needle s))
    [ "est="; "cost="; "actual=-"; "filter"; "sort" ]

(* --------------------------- lineage ---------------------------------- *)

let test_lineage_through_planner () =
  let db = Lazy.force fixture_db in
  let sql = "SELECT * FROM a WHERE k = 'p'" in
  Lineage.with_tracking (fun () ->
      Obs.Planlog.reset ();
      let r = Obs.Config.with_enabled (fun () -> Sql_exec.query db sql) in
      check_bool "the tracked query was planned" true
        (Obs.Planlog.snapshot () <> []);
      Obs.Planlog.reset ();
      check_bool "result carries lineage" true (Table.lineage r <> None);
      check_bool "lineage equals the oracle's" true
        (same_lineage r (Oracle.run_query db (Sql_parser.parse_query sql))));
  (* a lineage-carrying input keeps its lineage through the programmatic
     operators even with tracking off; groups carry none *)
  let traced =
    Lineage.with_tracking (fun () -> Planner.select Expr.True (Database.find db "a"))
  in
  check_bool "input has lineage" true (Table.lineage traced <> None);
  let sel = Planner.select (Expr.eq "k" "p") traced in
  check_bool "select propagates it" true
    (same_lineage sel (Oracle.select (Expr.eq "k" "p") traced));
  let g = Planner.group_count ~by:[ "k" ] traced in
  check_int "group answers" 4 (Table.cardinality g);
  check_bool "group carries no lineage" true (Table.lineage g = None)

(* ----------------- join: zero-copy semijoin shape --------------------- *)

(* Joining D back to the distinct summary of its own key columns matches
   every row exactly once in order — the shape Batch.join_tables returns
   zero-copy.  It must still agree with the oracle's join row for row. *)
let test_join_identity_shape () =
  let d = Protocol.Dir_controller.table () in
  let on = [ ("dirst", "dirst"); ("dirpv", "dirpv") ] in
  let states = Table.distinct (Ops.project [ "dirst"; "dirpv" ] d) in
  let vec = Batch.join_tables ~on d states in
  let ref_ = Oracle.equi_join ~on d states in
  check_int "every row matches once" (Table.cardinality d) (Table.cardinality vec);
  check_bool "vectorized join equals reference in order" true
    (same_table vec ref_)

(* -------------------------- random plans ------------------------------ *)

let cell_gen =
  QCheck.Gen.(
    frequency
      [ (8, map (fun s -> Value.Str s) (oneofl [ "p"; "q"; "r"; "u"; "v" ]));
        (2, return Value.Null) ])

let table_gen ~name ~cols =
  QCheck.Gen.(
    let* n = int_bound 40 in
    let* rows =
      list_repeat n
        (let* cells = flatten_l (List.map (fun _ -> cell_gen) cols) in
         return (Array.of_list cells))
    in
    return (Table.of_rows ~name (Schema.of_list cols) rows))

let pred_gen =
  QCheck.Gen.(
    let base =
      oneof
        [
          (let* c = oneofl [ "k"; "x" ] and* v = oneofl [ "p"; "q"; "u" ] in
           return (Expr.eq c v));
          (let* c = oneofl [ "k"; "x" ] and* v = oneofl [ "p"; "v" ] in
           return (Expr.neq c v));
          (let* c = oneofl [ "k"; "x" ] in
           return (Expr.eq_null c));
          (let* c = oneofl [ "k"; "x" ] in
           return (Expr.isin c [ "p"; "u" ]));
        ]
    in
    let* a = base and* b = base and* c = base in
    oneofl
      [
        a; Expr.Not a; Expr.(a &&& b); Expr.(a ||| b);
        Expr.ternary a b c; Expr.(Not (a ||| b) &&& c);
      ])

(* a chain of schema-preserving operators over [a (k, x)] *)
let chain_gen =
  QCheck.Gen.(
    let op sub =
      let* sub = sub in
      oneof
        [
          map (fun p -> Plan.Select (p, sub)) pred_gen;
          return (Plan.Distinct sub);
          return (Plan.Sort ([ ("k", `Asc); ("x", `Desc) ], sub));
          (let* n = int_bound 8 in
           return (Plan.Limit (n, sub)));
          return sub;
        ]
    in
    op (op (return (Plan.Scan "a"))))

let plan_gen =
  QCheck.Gen.(
    let* c1 = chain_gen and* c2 = chain_gen in
    oneofl
      [
        c1;
        Plan.Project ([ "k" ], c1);
        Plan.Group_count ([ "k" ], c1);
        Plan.Group_count ([ "k"; "x" ], c1);
        Plan.Count c1;
        Plan.Union (c1, c2);
        Plan.Except (c1, c2);
        Plan.Intersect (c1, c2);
        Plan.Join ([ ("k", "k") ], c1, Plan.Scan "b");
        Plan.Limit (3, Plan.Sort ([ ("x", `Asc) ], c1));
      ])

let prop_plan_differential =
  QCheck.Test.make ~count:400
    ~name:"random plans: planner equals reference engine in row order"
    (QCheck.make
       QCheck.Gen.(
         triple
           (table_gen ~name:"a" ~cols:[ "k"; "x" ])
           (table_gen ~name:"b" ~cols:[ "k"; "y" ])
           plan_gen)
       ~print:(fun (a, b, p) ->
         Printf.sprintf "a(%d rows), b(%d rows), %s" (Table.cardinality a)
           (Table.cardinality b) (Plan.explain p)))
    (fun (a, b, p) ->
      let db = Database.add (Database.add Database.empty a) b in
      let reference = Oracle.execute db p in
      let planned = Planner.run_plan db p in
      same_table reference planned)

(* The same 400 random plans with lineage tracking on: rows, row order
   and every row's lineage must match the oracle's, planned with and
   without an index on [a.k] (an equality on [k] then reads through an
   index scan, its other conjuncts filtering the gathered rows). *)
let prop_plan_lineage_differential =
  QCheck.Test.make ~count:400
    ~name:"random plans under tracking: planner lineage equals the oracle's"
    (QCheck.make
       QCheck.Gen.(
         triple
           (table_gen ~name:"a" ~cols:[ "k"; "x" ])
           (table_gen ~name:"b" ~cols:[ "k"; "y" ])
           plan_gen)
       ~print:(fun (a, b, p) ->
         Printf.sprintf "a(%d rows), b(%d rows), %s" (Table.cardinality a)
           (Table.cardinality b) (Plan.explain p)))
    (fun (a, b, p) ->
      Lineage.with_tracking @@ fun () ->
      let db = Database.add (Database.add Database.empty a) b in
      let reference = Oracle.execute db p in
      List.for_all
        (fun indexes ->
          let planned = Planner.run_plan ~indexes db p in
          same_table reference planned && same_lineage reference planned)
        [ []; [ Index.build a "k" ] ])

(* programmatic operators: the checker/solver-facing entry points *)
let prop_programmatic_differential =
  QCheck.Test.make ~count:300
    ~name:"programmatic select/group/distinct/join match Ops"
    (QCheck.make
       QCheck.Gen.(
         triple
           (table_gen ~name:"a" ~cols:[ "k"; "x" ])
           (table_gen ~name:"b" ~cols:[ "k"; "y" ])
           pred_gen)
       ~print:(fun (a, b, p) ->
         Printf.sprintf "a(%d rows), b(%d rows), %s" (Table.cardinality a)
           (Table.cardinality b) (Expr.to_sql p)))
    (fun (a, b, p) ->
      same_table (Planner.select p a) (Oracle.select p a)
      && same_table (Planner.distinct a) (Table.distinct a)
      && Table.rows (Planner.group_count ~by:[ "k" ] a)
         = List.map
             (fun (key, n) -> Array.append key [| Value.Int n |])
             (Oracle.group_count ~by:[ "k" ] a)
      && same_table
           (Planner.equi_join ~on:[ ("k", "k") ] a b)
           (Oracle.equi_join ~on:[ ("k", "k") ] a b))

let suite =
  [
    Alcotest.test_case "SQL differential: planner vs reference" `Quick
      test_sql_differential;
    Alcotest.test_case "Sql_exec.run_query routes through the planner" `Quick
      test_sql_entry_point_uses_planner;
    Alcotest.test_case "LIMIT over ORDER BY becomes top-k" `Quick
      test_topk_recognized;
    Alcotest.test_case "sys.spans top-k pushes the limit below the sort" `Quick
      test_sys_spans_topk;
    Alcotest.test_case "explain --analyze reports est vs actual rows" `Quick
      test_analyze_est_vs_actual;
    Alcotest.test_case "explain renders cost estimates unexecuted" `Quick
      test_explain_unexecuted;
    Alcotest.test_case "lineage tracking runs through the planner"
      `Quick test_lineage_through_planner;
    Alcotest.test_case "semijoin-shaped hash join matches Ops row for row"
      `Quick test_join_identity_shape;
    QCheck_alcotest.to_alcotest prop_plan_differential;
    QCheck_alcotest.to_alcotest prop_plan_lineage_differential;
    QCheck_alcotest.to_alcotest prop_programmatic_differential;
  ]
