exception Exec_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Exec_error s)) fmt

let obs_reg = lazy (Obs.Metrics.registry "relalg")
let obs_counter name = Obs.Metrics.counter (Lazy.force obs_reg) name

let rec referenced_tables (q : Sql_ast.query) =
  match q with
  | Select { from; _ } -> [ from ]
  | Union (a, b) | Except (a, b) | Intersect (a, b) ->
      referenced_tables a @ referenced_tables b

(* Every query runs through the cost-based planner; unknown tables are
   reported as [Exec_error] before planning.  Executions land in the plan
   observatory under [label] (the SQL text when coming through {!query});
   the "sql" site applies only when no more specific call-site label
   (invariant id, solver phase) is already active. *)
let run_query ?label db (q : Sql_ast.query) =
  List.iter
    (fun name -> if not (Database.mem db name) then error "unknown table %s" name)
    (referenced_tables q);
  let run () = Planner.run_query ?label db q in
  match Obs.Planlog.site () with
  | None -> Obs.Planlog.with_site "sql" run
  | Some _ -> run ()

(* sys.* tables are engine-materialized snapshots: readable like any
   table, but not a valid target for DDL/DML. *)
let check_writable name =
  if Database.is_system_name name then
    error "%s is a read-only system table (the sys. prefix is reserved)" name

let run_statement db (s : Sql_ast.statement) =
  match s with
  | Query q -> db, Some (run_query db q)
  | Create_table_as (name, q) ->
      check_writable name;
      let t = Table.with_name name (run_query db q) in
      Database.replace db t, Some t
  | Insert (name, rows) ->
      check_writable name;
      let t =
        match Database.find_opt db name with
        | Some t -> t
        | None -> error "unknown table %s" name
      in
      let t = Table.add_all t (List.map Row.of_list rows) in
      Database.replace db t, None
  | Drop_table name ->
      check_writable name;
      if not (Database.mem db name) then error "unknown table %s" name;
      Database.remove db name, None

let query db src =
  Obs.Trace.with_span ~cat:"relalg"
    ~args:[ "query", Obs.Json.Str src ]
    "sql.query"
  @@ fun () ->
  let result = run_query ~label:src db (Sql_parser.parse_query src) in
  Obs.Metrics.incr (obs_counter "queries");
  Obs.Metrics.add (obs_counter "rows_returned") (Table.cardinality result);
  result

let exec db src =
  Obs.Trace.with_span ~cat:"relalg"
    ~args:[ "statement", Obs.Json.Str src ]
    "sql.exec"
  @@ fun () ->
  Obs.Metrics.incr (obs_counter "statements");
  run_statement db (Sql_parser.parse_statement src)

let exec_script db stmts =
  List.fold_left (fun db src -> fst (exec db src)) db stmts

let is_empty db src = Table.is_empty (query db src)
