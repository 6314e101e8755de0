(* The constraint solver: incremental vs monolithic table generation. *)

open Relalg

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let v = Value.str

let small_spec =
  Solver.make ~name:"toy"
    ~columns:
      [
        { Solver.cname = "inmsg"; role = Solver.Input;
          domain = [ v "read"; v "wb" ] };
        { Solver.cname = "dirst"; role = Solver.Input;
          domain = [ v "I"; v "SI"; v "MESI" ] };
        { Solver.cname = "out"; role = Solver.Output;
          domain = [ Value.Null; v "mread"; v "mwrite" ] };
      ]
    ~constraints:
      [
        ( "dirst",
          Expr.(
            ternary (eq "inmsg" "wb") (eq "dirst" "MESI")
              (isin "dirst" [ "I"; "SI" ])) );
        ( "out",
          Expr.(
            ternary (eq "inmsg" "read") (eq "out" "mread") (eq "out" "mwrite")) );
      ]

let test_generate () =
  let tbl, stats = Solver.generate small_spec in
  (* read x {I, SI} + wb x {MESI} = 3 rows *)
  check_int "rows" 3 (Table.cardinality tbl);
  check_int "columns" 3 (Table.arity tbl);
  check "some candidates pruned" true (stats.Solver.candidates > 3);
  check_int "per-column entries" 3 (List.length stats.Solver.per_column)

let test_monolithic_agrees () =
  let inc, _ = Solver.generate small_spec in
  let mono, _ = Solver.generate_monolithic small_spec in
  check "same table both strategies" true (Table.equal_as_sets inc mono)

let test_incremental_cheaper () =
  let _, si = Solver.generate small_spec in
  let _, sm = Solver.generate_monolithic small_spec in
  check "incremental materializes fewer candidates" true
    (si.Solver.candidates <= sm.Solver.candidates);
  check_int "monolithic candidates = search space"
    (Solver.search_space small_spec) sm.Solver.candidates

let test_inconsistent_constraints () =
  let spec =
    Solver.make ~name:"empty"
      ~columns:
        [ { Solver.cname = "a"; role = Solver.Input; domain = [ v "x" ] } ]
      ~constraints:[ "a", Expr.eq "a" "y" ]
  in
  let tbl, _ = Solver.generate spec in
  check "inconsistent constraints give zero rows" true (Table.is_empty tbl)

let test_unconstrained_column () =
  let spec =
    Solver.make ~name:"free"
      ~columns:
        [
          { Solver.cname = "a"; role = Solver.Input; domain = [ v "x"; v "y" ] };
          { Solver.cname = "b"; role = Solver.Output; domain = [ v "p"; v "q" ] };
        ]
      ~constraints:[]
  in
  let tbl, _ = Solver.generate spec in
  check_int "full cross product" 4 (Table.cardinality tbl)

let test_validation () =
  let col n = { Solver.cname = n; role = Solver.Input; domain = [ v "x" ] } in
  check "unknown constrained column" true
    (try
       ignore
         (Solver.make ~name:"bad" ~columns:[ col "a" ]
            ~constraints:[ "zz", Expr.True ]);
       false
     with Solver.Invalid_spec _ -> true);
  check "duplicate column" true
    (try
       ignore (Solver.make ~name:"bad" ~columns:[ col "a"; col "a" ] ~constraints:[]);
       false
     with Solver.Invalid_spec _ -> true);
  check "empty domain" true
    (try
       ignore
         (Solver.make ~name:"bad"
            ~columns:[ { Solver.cname = "a"; role = Solver.Input; domain = [] } ]
            ~constraints:[]);
       false
     with Solver.Invalid_spec _ -> true)

(* Random specs: both strategies must always agree.  Columns get small
   domains and constraints relating neighbouring columns. *)
let random_spec_gen =
  let open QCheck.Gen in
  let domain = [ v "p"; v "q"; v "r" ] in
  let* n_cols = int_range 2 4 in
  let cols =
    List.init n_cols (fun i ->
        {
          Solver.cname = Printf.sprintf "c%d" i;
          role = (if i < n_cols - 1 then Solver.Input else Solver.Output);
          domain;
        })
  in
  let atom_for i =
    let col = Printf.sprintf "c%d" i in
    oneof
      [
        map (fun s -> Expr.eq col s) (oneofl [ "p"; "q"; "r" ]);
        map (fun s -> Expr.neq col s) (oneofl [ "p"; "q"; "r" ]);
        return Expr.True;
      ]
  in
  let* constraints =
    flatten_l
      (List.init n_cols (fun i ->
           let* mine = atom_for i in
           let* j = int_bound (n_cols - 1) in
           let* other = atom_for j in
           return (Printf.sprintf "c%d" i, Expr.Or (mine, other))))
  in
  return (Solver.make ~name:"rand" ~columns:cols ~constraints)

let prop_strategies_agree =
  QCheck.Test.make ~count:50 ~name:"incremental = monolithic on random specs"
    (QCheck.make random_spec_gen)
    (fun spec ->
      let a, _ = Solver.generate spec in
      let b, _ = Solver.generate_monolithic spec in
      Table.equal_as_sets a b)

(* ------------------------- E4 contract ------------------------------- *)

(* The logical counts of the paper's pruning argument are what a
   per-candidate enumeration performs, however the solver factorizes its
   work.  D's column-by-column considered/kept breakdown: *)
let d_pruning =
  [
    "inmsg", 26, 24; "inmsgsrc", 96, 24; "inmsgdest", 48, 24;
    "inmsgres", 96, 24; "addrspace", 72, 36; "dirst", 144, 56;
    "dirpv", 224, 63; "reqpv", 189, 71; "bdirst", 4686, 1150;
    "bdirpv", 4600, 1156; "dirlookup", 3468, 1156; "bdirlookup", 3468, 1156;
    "locmsg", 12716, 1156; "locmsgsrc", 2312, 1156; "locmsgdest", 2312, 1156;
    "locmsgres", 2312, 1156; "remmsg", 8092, 1156; "remmsgsrc", 2312, 1156;
    "remmsgdest", 2312, 1156; "remmsgres", 2312, 1156; "memmsg", 8092, 1156;
    "memmsgsrc", 2312, 1156; "memmsgdest", 2312, 1156; "memmsgres", 2312, 1156;
    "nxtdirst", 4624, 1156; "nxtdirpv", 5780, 1156; "nxtbdirst", 76296, 1156;
    "nxtbdirpv", 5780, 1156; "dirwr", 3468, 1156; "bdirop", 4624, 1156;
    "datasrc", 3468, 1156;
  ]

let test_e4_logical_counts () =
  let stats =
    List.map
      (fun c -> snd (Protocol.Ctrl_spec.generate c.Protocol.spec))
      Protocol.controllers
  in
  let d = List.hd stats in
  check_int "D candidates" 170_865 d.Solver.candidates;
  check_int "D evaluations" 170_865 d.Solver.evaluations;
  Alcotest.(check (list (triple string int int)))
    "D considered/kept per column" d_pruning
    (List.map
       (fun (p : Solver.column_stats) -> p.column, p.considered, p.kept)
       d.Solver.pruning);
  Alcotest.(check (list (pair string int)))
    "per_column is pruning's kept"
    (List.map (fun (c, _, k) -> c, k) d_pruning)
    d.Solver.per_column;
  let total f = List.fold_left (fun acc st -> acc + f st) 0 stats in
  check_int "eight-table candidates" 187_516
    (total (fun st -> st.Solver.candidates));
  check_int "eight-table evaluations" 187_516
    (total (fun st -> st.Solver.evaluations));
  check "physical work below logical" true
    (total (fun st -> st.Solver.physical_evaluations) < 187_516 / 2)

(* The eight controller tables and the E11 seeded-bug variants (four
   directory bugs, the node's naive retry): cell-for-cell and in row
   order, the solver matches the row-at-a-time reference, with the same
   logical counts. *)
let protocol_specs () =
  let module CS = Protocol.Ctrl_spec in
  let dir = Protocol.Dir_controller.spec in
  let drop l = CS.drop_scenario dir l in
  let emit_map label f =
    CS.map_scenario dir label (fun s -> { s with CS.emit = f s.CS.emit })
  in
  List.map (fun c -> c.Protocol.spec) Protocol.controllers
  @ [
      drop Protocol.Dir_controller.busy_retry_label;
      emit_map "ack-exclusive"
        (List.map (fun (c, o) ->
             if c = "nxtdirpv" then c, CS.Out "inc" else c, o));
      emit_map "wb-mack-compl" (List.filter (fun (c, _) -> c <> "locmsg"));
      CS.drop_scenario (drop "readex-idone-sd-last") "readex-idone-sd-more";
      CS.with_scenarios Protocol.Node_controller.spec
        (CS.scenarios Protocol.Node_controller.spec
        @ [ Protocol.Node_controller.naive_retry_scenario ]);
    ]

let observe (tbl, (st : Solver.stats)) =
  ( Schema.columns (Table.schema tbl),
    Table.rows tbl,
    (st.candidates, st.evaluations, st.per_column, st.pruning) )

let test_matches_oracle () =
  List.iter
    (fun cs ->
      let spec = Protocol.Ctrl_spec.to_solver_spec cs in
      check
        (Protocol.Ctrl_spec.name cs ^ " identical to the reference")
        true
        (observe (Solver.generate spec) = observe (Solver_oracle.generate spec)))
    (protocol_specs ())

let suite =
  [
    Alcotest.test_case "incremental generation" `Quick test_generate;
    Alcotest.test_case "monolithic agreement" `Quick test_monolithic_agrees;
    Alcotest.test_case "incremental prunes earlier" `Quick test_incremental_cheaper;
    Alcotest.test_case "inconsistent constraints" `Quick test_inconsistent_constraints;
    Alcotest.test_case "unconstrained columns" `Quick test_unconstrained_column;
    Alcotest.test_case "spec validation" `Quick test_validation;
    Test_seed.to_alcotest prop_strategies_agree;
    Alcotest.test_case "E4 logical counts" `Quick test_e4_logical_counts;
    Alcotest.test_case "protocol tables match the reference" `Quick
      test_matches_oracle;
  ]
