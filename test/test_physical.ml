(* Hash indexes and the planner's index-scan access path. *)

open Relalg

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let db = lazy (Protocol.database ())
let d_indexes =
  lazy
    (let d = Database.find (Lazy.force db) "D" in
     [ Index.build d "inmsg"; Index.build d "bdirst" ])

(* ------------------------------- index ------------------------------ *)

let test_index_lookup () =
  let d = Protocol.Dir_controller.table () in
  let idx = Index.build d "inmsg" in
  let readex = Index.lookup idx (Value.str "readex") in
  check "finds readex rows" true (List.length readex > 10);
  check "rows actually match" true
    (List.for_all
       (fun row -> Value.equal (Table.cell d row "inmsg") (Value.str "readex"))
       readex);
  check_int "misses return nothing" 0
    (List.length (Index.lookup idx (Value.str "nosuchmsg")));
  check "index is consistent with its table" true (Index.consistent idx d)

let test_index_order_preserved () =
  let t =
    Table.of_rows ~name:"ord"
      (Schema.of_list [ "k"; "v" ])
      (List.map Row.strings [ [ "a"; "1" ]; [ "b"; "9" ]; [ "a"; "2" ]; [ "a"; "3" ] ])
  in
  let idx = Index.build t "k" in
  Alcotest.(check (list string)) "table order within a bucket"
    [ "1"; "2"; "3" ]
    (List.map (fun r -> Value.to_string r.(1)) (Index.lookup idx (Value.str "a")))

let prop_index_agrees_with_scan =
  QCheck.Test.make ~count:100 ~name:"index lookup = select scan"
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_bound 20)
              (pair (oneofl [ "a"; "b"; "c"; "d" ]) (oneofl [ "1"; "2"; "3" ])))
           (oneofl [ "a"; "b"; "c"; "d"; "zz" ])))
    (fun (rows, probe) ->
      let t =
        Table.of_rows ~name:"q"
          (Schema.of_list [ "k"; "v" ])
          (List.map (fun (k, v) -> Row.strings [ k; v ]) rows)
      in
      let idx = Index.build t "k" in
      let via_index = Index.lookup idx (Value.str probe) in
      let via_scan = Table.rows (Planner.select (Expr.eq "k" probe) t) in
      List.length via_index = List.length via_scan
      && List.for_all2 Row.equal via_index via_scan)

(* ------------------------- index-scan plans ------------------------- *)

let logical sql = Plan.of_query (Sql_parser.parse_query sql)

let plan ?(indexes = Lazy.force d_indexes) db sql =
  Planner.plan ~indexes db (logical sql)

let test_physicalize_chooses_index () =
  match plan (Lazy.force db) "SELECT * FROM D WHERE inmsg = 'readex' AND dirst = 'SI'" with
  | {
   Planner.op = Planner.Filter _;
   children =
     [ { Planner.op = Planner.Index_scan { table = "D"; column = "inmsg"; _ }; _ } ];
   _;
  } ->
      ()
  | p -> Alcotest.fail ("expected a filter over an index scan:\n" ^ Planner.render p)

let test_physicalize_without_index () =
  match plan (Lazy.force db) "SELECT * FROM D WHERE dirst = 'SI'" with
  | { Planner.op = Planner.Filter _; children = [ { Planner.op = Planner.Scan "D"; _ } ]; _ } -> ()
  | p -> Alcotest.fail ("expected a filter over a seq scan:\n" ^ Planner.render p)

let physical_queries =
  [
    "SELECT * FROM D WHERE inmsg = 'readex'";
    "SELECT DISTINCT locmsg FROM D WHERE inmsg = 'readex' AND bdirlookup = 'hit'";
    "SELECT inmsg, bdirst FROM D WHERE bdirst = 'Busy-readex-sd'";
    "SELECT COUNT(*) FROM D WHERE inmsg = 'wb' AND locmsg = 'compl'";
    "SELECT DISTINCT inmsg FROM D WHERE inmsg = 'read' UNION SELECT DISTINCT inmsg FROM D WHERE inmsg = 'wb'";
  ]

(* with the indexes the same queries return the same rows in the same
   order as the unindexed SQL entry point *)
let test_physical_agrees_with_executor () =
  let db = Lazy.force db in
  List.iter
    (fun q ->
      let via_index =
        Planner.run_plan ~indexes:(Lazy.force d_indexes) db (logical q)
      in
      let via_exec = Sql_exec.query db q in
      check ("same rows in order: " ^ q) true
        (Table.rows via_index = Table.rows via_exec))
    physical_queries

(* the caller builds an index once and reuses it across queries: warm
   lookups pay no rebuild and read only the matching rows *)
let test_store_caches_indexes () =
  let db = Lazy.force db in
  let q = logical "SELECT * FROM D WHERE inmsg = 'readex'" in
  let t0 = Sys.time () in
  let indexes = [ Index.build (Database.find db "D") "inmsg" ] in
  ignore (Planner.run_plan ~indexes db q);
  let cold = Sys.time () -. t0 in
  let t1 = Sys.time () in
  for _ = 1 to 50 do
    ignore (Planner.run_plan ~indexes db q)
  done;
  let warm_each = (Sys.time () -. t1) /. 50. in
  (* warm lookups must not rebuild the index; allow generous slack *)
  check "reused index is effective" true (warm_each < cold +. 0.01);
  let root = Planner.plan ~indexes db q in
  ignore (Planner.execute db root);
  check_int "the leaf reads only the matching rows"
    (Table.cardinality (Sql_exec.query db "SELECT * FROM D WHERE inmsg = 'readex'"))
    root.Planner.actual

(* Regression: CREATE TABLE … AS re-registers a name in the database; an
   index built over the old snapshot must not answer for the new one. *)
let test_store_invalidates_replaced_table () =
  let schema = Schema.of_list [ "k"; "v" ] in
  let mk rows =
    Table.of_rows ~name:"T" schema (List.map Row.strings rows)
  in
  let t1 = mk [ [ "a"; "1" ]; [ "b"; "2" ] ] in
  let db1 = Database.of_tables [ t1 ] in
  let old_index = [ Index.build t1 "k" ] in
  let q = logical "SELECT * FROM T WHERE k = 'a'" in
  check_int "initial index sees one row" 1
    (Table.cardinality (Planner.run_plan ~indexes:old_index db1 q));
  (* same name, new storage (as Sql_exec's Create_table_as does) *)
  let t2 = mk [ [ "a"; "10" ]; [ "a"; "11" ]; [ "c"; "3" ] ] in
  let db2 = Database.replace db1 t2 in
  let fresh = Planner.run_plan ~indexes:old_index db2 q in
  check_int "stale index ignored for the replaced table" 2
    (Table.cardinality fresh);
  check "rows come from the new snapshot" true
    (Table.equal_as_sets fresh (mk [ [ "a"; "10" ]; [ "a"; "11" ] ]));
  check_int "an index over the new snapshot answers the same" 2
    (Table.cardinality
       (Planner.run_plan ~indexes:[ Index.build t2 "k" ] db2 q));
  (* and the old snapshot still answers through its own index *)
  check_int "old snapshot unaffected" 1
    (Table.cardinality (Planner.run_plan ~indexes:old_index db1 q))

(* An index whose source is not the table the database holds (another
   Table.id) plans, executes and fingerprints exactly as no index. *)
let test_stale_index_ignored () =
  let db0 = Lazy.force db in
  let stale = [ Index.build (Database.find db0 "D") "inmsg" ] in
  let db1, _ = Sql_exec.exec db0 "CREATE TABLE D AS SELECT * FROM D WHERE dirst = 'SI'" in
  let sql = "SELECT * FROM D WHERE inmsg = 'readex'" in
  let with_stale = plan ~indexes:stale db1 sql in
  (match with_stale.Planner.op with
  | Planner.Filter _ -> ()
  | _ -> Alcotest.fail ("stale index was used:\n" ^ Planner.render with_stale));
  Alcotest.(check string) "fingerprint as without an index"
    (Planner.fingerprint db1 (plan ~indexes:[] db1 sql))
    (Planner.fingerprint db1 with_stale);
  check "rows come from the replaced table" true
    (Table.rows (Planner.run_plan ~indexes:stale db1 (logical sql))
    = Table.rows (Sql_exec.query db1 sql))

let test_explain_physical () =
  let s =
    Planner.explain ~indexes:(Lazy.force d_indexes) (Lazy.force db)
      "SELECT * FROM D WHERE inmsg = 'wb'"
  in
  check "mentions the index scan" true
    (let needle = "index scan D.inmsg = 'wb'" in
     let rec go i =
       i + String.length needle <= String.length s
       && (String.sub s i (String.length needle) = needle || go (i + 1))
     in
     go 0);
  let db = Lazy.force db in
  check "index scan fingerprints differently from a seq scan" false
    (Planner.fingerprint db (plan db "SELECT * FROM D WHERE inmsg = 'wb'")
    = Planner.fingerprint db (plan ~indexes:[] db "SELECT * FROM D WHERE inmsg = 'wb'"))

let suite =
  [
    Alcotest.test_case "index lookup" `Quick test_index_lookup;
    Alcotest.test_case "bucket order" `Quick test_index_order_preserved;
    Alcotest.test_case "physicalize chooses index" `Quick test_physicalize_chooses_index;
    Alcotest.test_case "physicalize falls back to scan" `Quick test_physicalize_without_index;
    Alcotest.test_case "physical agrees with executor" `Quick test_physical_agrees_with_executor;
    Alcotest.test_case "index cache" `Quick test_store_caches_indexes;
    Alcotest.test_case "index cache invalidation" `Quick
      test_store_invalidates_replaced_table;
    Alcotest.test_case "stale index is ignored" `Quick test_stale_index_ignored;
    Alcotest.test_case "physical explain" `Quick test_explain_physical;
    Test_seed.to_alcotest prop_index_agrees_with_scan;
  ]
