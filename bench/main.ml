(* Benchmark entry point: first the experiment harness that regenerates
   every table/figure of the paper (E1-E11), then Bechamel
   micro-benchmarks of each pipeline stage. *)

open Bechamel
open Toolkit

let dir_solver_spec =
  lazy (Protocol.Ctrl_spec.to_solver_spec Protocol.Dir_controller.spec)

let db = lazy (Protocol.database ())
let mcheck_tables = lazy (Mcheck.Semantics.load_tables ())

let mcheck_cfg nodes =
  {
    Mcheck.Semantics.nodes; addrs = 1; ops = [ "load"; "store" ];
    capacity = 3; io_addrs = []; lossy = false;
  }

let mcheck_2node_search () =
  Mcheck.Explore.run ~max_states:5_000 ~tables:(Lazy.force mcheck_tables)
    (mcheck_cfg 2)

(* Each benchmark regenerates one of the paper's artifacts. *)
let benchmarks =
  [
    (* E2/E3: controller-table generation *)
    Test.make ~name:"generate-D-incremental"
      (Staged.stage (fun () ->
           ignore (Relalg.Solver.generate (Lazy.force dir_solver_spec))));
    Test.make ~name:"generate-M-monolithic"
      (Staged.stage (fun () ->
           ignore
             (Relalg.Solver.generate_monolithic
                (Protocol.Ctrl_spec.to_solver_spec Protocol.Mem_controller.spec))));
    (* E5: the three deadlock analyses *)
    Test.make ~name:"deadlock-V-initial"
      (Staged.stage (fun () ->
           ignore (Checker.Deadlock.analyze Checker.Vcassign.initial)));
    Test.make ~name:"deadlock-V-vc4"
      (Staged.stage (fun () ->
           ignore (Checker.Deadlock.analyze Checker.Vcassign.with_vc4)));
    Test.make ~name:"deadlock-V-debugged"
      (Staged.stage (fun () ->
           ignore (Checker.Deadlock.analyze Checker.Vcassign.debugged)));
    (* E6: the invariant suite *)
    Test.make ~name:"invariants-all"
      (Staged.stage (fun () ->
           ignore (Checker.Invariant.run_all (Lazy.force db))));
    Test.make ~name:"invariant-sql-single"
      (Staged.stage (fun () ->
           ignore
             (Relalg.Sql_exec.is_empty (Lazy.force db)
                "SELECT dirst, dirpv FROM D WHERE dirst = 'MESI' AND NOT dirpv = 'one'")));
    (* E7: the mapping pipeline *)
    Test.make ~name:"mapping-partition"
      (Staged.stage (fun () -> ignore (Mapping.Partition.run ())));
    (* query engine: sequential scan vs hash-index access path *)
    Test.make ~name:"select-D-seqscan"
      (Staged.stage (fun () ->
           ignore
             (Relalg.Sql_exec.query (Lazy.force db)
                "SELECT * FROM D WHERE inmsg = 'readex'")));
    Test.make ~name:"select-D-indexed"
      (Staged.stage
         (let db = Lazy.force db in
          (* the index is built once, outside the measured loop *)
          let indexes =
            [ Relalg.Index.build (Relalg.Database.find db "D") "inmsg" ]
          in
          fun () ->
            ignore
              (Relalg.Planner.run_plan ~indexes db
                 (Relalg.Plan.of_query
                    (Relalg.Sql_parser.parse_query
                       "SELECT * FROM D WHERE inmsg = 'readex'")))));
    (* E9: one bounded model-checking run, also the candidate side of
       the mcheck-steal-vs-boxed pair *)
    Test.make ~name:"mcheck-2node-loadstore"
      (Staged.stage (fun () -> ignore (mcheck_2node_search ())));
    (* the boxed reference: the one-domain side of this seq/par pair,
       whose "-par" side is the packed engine ([par_variant]) *)
    Test.make ~name:"mcheck-3node-symmetry"
      (Staged.stage (fun () ->
           ignore
             (Mcheck.Explore.run_reference ~max_states:5_000 ~symmetry:true
                ~tables:(Lazy.force mcheck_tables) (mcheck_cfg 3))));
    (* E10: the simulator replay *)
    Test.make ~name:"sim-figure4-replay"
      (Staged.stage (fun () ->
           ignore (Sim.Scenario.figure4 Checker.Vcassign.with_vc4)));
  ]

(* --- exploration-core A/B pairs --------------------------------------
   mcheck-2node-loadstore's search through the boxed reference, on one
   domain like the packed original: the mcheck-steal-vs-boxed pair
   prices the representation (bit-packed vectors + open addressing vs
   Marshal strings + Hashtbl) and the indexed rule dispatch.  Pairs
   surface in the JSON snapshot "pairs". *)
let engine_baseline_benchmarks =
  [
    Test.make ~name:"mcheck-2node-boxed"
      (Staged.stage (fun () ->
           ignore
             (Mcheck.Explore.run_reference ~max_states:5_000
                ~tables:(Lazy.force mcheck_tables) (mcheck_cfg 2))));
  ]

let engine_degree_benchmarks =
  [
    Test.make ~name:"mcheck-2node-steal"
      (Staged.stage (fun () -> ignore (mcheck_2node_search ())));
    (* the flight-recorder overhead control: the same steal-engine search
       with event recording compiled in but switched off, so the
       recorder-on-vs-off pair prices the always-on default.  The CI gate
       holds the on/off ratio at <= 1.05x. *)
    Test.make ~name:"mcheck-2node-steal-recoff"
      (Staged.stage (fun () ->
           Obs.Flightrec.with_disabled (fun () ->
               ignore (mcheck_2node_search ()))));
  ]

(* (pair name, reference measurement, candidate measurement, domains the
   pair ran at); speedup = reference / candidate. *)
let engine_pair_specs ~domains =
  [
    "mcheck-steal-vs-boxed", "mcheck-2node-boxed", "mcheck-2node-loadstore", 1;
    (* reference = recording off, candidate = recording on: speedup is
       off/on, so the <= 1.05x overhead budget reads as speedup >= 0.952 *)
    ( "mcheck-recorder-on-vs-off", "mcheck-2node-steal-recoff",
      "mcheck-2node-steal", domains );
  ]

(* --- columnar vs list-of-rows representation ------------------------
   The storage engine keeps tables columnar and dictionary-encoded;
   [Listrep] is the list-of-rows representation it replaced.  Each
   E3/E4/E6-style workload runs the same operator pipeline through both
   (the columnar side on the production operators: {!Relalg.Planner}'s
   select/distinct/join/group plus {!Relalg.Ops}' set operators), and the
   JSON snapshot pairs them with their speedup. *)

let rep_d = lazy (Protocol.Dir_controller.table ())
let rep_dl = lazy (Listrep.of_table (Lazy.force rep_d))

let rep_workloads =
  let open Relalg in
  let e3_pred = Expr.(eq "inmsg" "readex" &&& eq "bdirlookup" "hit") in
  let e4_a = Expr.eq "inmsg" "readex"
  and e4_b = Expr.eq "inmsg" "wb"
  and e4_c = Expr.eq "dirst" "SI" in
  (* a violation scan, like the E6 invariants: select the rows breaking
     the MESI/dirpv invariant (an empty result on a correct D — the
     work is the full-table scan, not the materialization) *)
  let e6_pred = Expr.(eq "dirst" "MESI" &&& neq "dirpv" "one") in
  [
    (* E3-style: local-message fan-out of one request class *)
    ( "select-distinct",
      (fun () ->
        Table.cardinality
          (Planner.distinct
             (Ops.project [ "locmsg" ]
                (Planner.select e3_pred (Lazy.force rep_d))))),
      fun () ->
        Listrep.cardinality
          (Listrep.distinct
             (Listrep.project [ "locmsg" ]
                (Listrep.select e3_pred (Lazy.force rep_dl)))) );
    (* E4-style: assembling a dependency table from per-class unions *)
    ( "union-except",
      (fun () ->
        let d = Lazy.force rep_d in
        Table.cardinality
          (Ops.except
             (Ops.union (Planner.select e4_a d) (Planner.select e4_b d))
             (Planner.select e4_c d))),
      fun () ->
        let d = Lazy.force rep_dl in
        Listrep.cardinality
          (Listrep.except
             (Listrep.union (Listrep.select e4_a d) (Listrep.select e4_b d))
             (Listrep.select e4_c d)) );
    (* E6-style: one ternary invariant scanned over all of D *)
    ( "invariant-scan",
      (fun () -> Table.cardinality (Planner.select e6_pred (Lazy.force rep_d))),
      fun () ->
        Listrep.cardinality (Listrep.select e6_pred (Lazy.force rep_dl)) );
    (* E6-style: join D back to its state summary, plus a group count,
       through the cost-based planner's vectorized batch engine vs. the
       row-at-a-time list-of-rows reference — the pair CI gates at 3x *)
    ( "join-group-planner",
      (fun () ->
        let d = Lazy.force rep_d in
        let states = Planner.distinct (Ops.project [ "dirst"; "dirpv" ] d) in
        Table.cardinality
          (Planner.equi_join ~on:[ "dirst", "dirst"; "dirpv", "dirpv" ] d
             states)
        + Table.cardinality (Planner.group_count ~by:[ "inmsg"; "dirst" ] d)),
      fun () ->
        let d = Lazy.force rep_dl in
        let states = Listrep.distinct (Listrep.project [ "dirst"; "dirpv" ] d) in
        Listrep.cardinality
          (Listrep.equi_join ~on:[ "dirst", "dirst"; "dirpv", "dirpv" ] d states)
        + List.length (Listrep.group_count ~by:[ "inmsg"; "dirst" ] d) );
  ]

(* Both sides of every pair must compute the same answer, or the
   timings compare different work. *)
let rep_sanity =
  lazy
    (List.iter
       (fun (name, columnar, listrep) ->
         let c = columnar () and l = listrep () in
         if c <> l then
           failwith
             (Printf.sprintf
                "representation bench %s disagrees: columnar=%d listrep=%d"
                name c l))
       rep_workloads)

let rep_benchmarks =
  List.concat_map
    (fun (name, columnar, listrep) ->
      [
        Test.make ~name:("rep-" ^ name ^ "-columnar")
          (Staged.stage (fun () -> ignore (columnar ())));
        Test.make ~name:("rep-" ^ name ^ "-listrep")
          (Staged.stage (fun () -> ignore (listrep ())));
      ])
    rep_workloads

(* The benchmarks whose hot path is parallelized; each runs twice in
   machine-readable mode, pinned to one domain and at the requested
   degree, so the JSON snapshot records the seq/par pair. *)
let paired_names =
  [ "generate-D-incremental"; "deadlock-V-vc4"; "mcheck-3node-symmetry" ]

(* --only SUBSTR: restrict every suite to benchmarks whose name contains
   SUBSTR, so one pair (say the recorder overhead gate) can be
   re-measured in seconds instead of re-running the whole suite.  The
   JSON snapshot then carries only the selected measurements. *)
let only =
  let argv = Sys.argv in
  let o = ref None in
  Array.iteri
    (fun i arg ->
      if arg = "--only" && i + 1 < Array.length argv then o := Some argv.(i + 1))
    argv;
  !o

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let keep test =
  match only with
  | None -> true
  | Some sub -> contains ~sub (Test.name test)

let ols_estimate ~name benchmark analyzed =
  (* Refuse to report a regression slope fitted to fewer than two
     samples — that is not an estimate, it is noise — rather than let a
     NaN leak into the JSON snapshot and poison downstream comparisons. *)
  let samples = Array.length benchmark.Benchmark.lr in
  if samples < 2 then
    failwith
      (Printf.sprintf
         "bench %s: only %d raw sample(s); OLS needs at least 2 — raise \
          the quota or run limit"
         name samples);
  match Analyze.OLS.estimates analyzed with
  | Some (ns :: _) when not (Float.is_nan ns) -> ns
  | Some _ | None ->
      failwith
        (Printf.sprintf
           "bench %s: OLS fit over %d samples produced no estimate" name
           samples)

let run_one ~domains test =
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:None
      ~stabilize:false ()
  in
  let results =
    Par.Pool.with_domains domains (fun () ->
        Benchmark.all cfg [ instance ] test)
  in
  let analyzed = Analyze.all ols instance results in
  let measurements = ref [] in
  Hashtbl.iter
    (fun name a ->
      let ns = ols_estimate ~name (Hashtbl.find results name) a in
      measurements := (name, ns) :: !measurements;
      Printf.printf "%-34s %12.3f ms/run\n%!" name (ns /. 1e6))
    analyzed;
  !measurements

let run_benchmarks ~domains () =
  Lazy.force rep_sanity;
  Printf.printf "\n=== Bechamel timings (per regeneration) ===\n%!";
  (* The representation pairs run first, on a quiet heap: the macro
     benchmarks (solver, mcheck) leave behind a large major heap whose
     collection overhead inflates these allocation-heavy sub-millisecond
     measurements several-fold if they run after. *)
  List.concat_map
    (fun test -> run_one ~domains test)
    (List.filter keep (rep_benchmarks @ benchmarks @ engine_baseline_benchmarks))

(* The "-par" side of a seq/par pair is the same benchmark at the
   requested degree, except for the symmetry search: its one-domain side
   is the boxed reference, so its parallel side is the packed engine —
   otherwise the pair would measure the packed engine against itself. *)
let par_variant test =
  if Test.name test <> "mcheck-3node-symmetry" then test
  else
    Test.make ~name:"mcheck-3node-symmetry"
      (Staged.stage (fun () ->
           ignore
             (Mcheck.Explore.run ~max_states:5_000 ~symmetry:true
                ~tables:(Lazy.force mcheck_tables) (mcheck_cfg 3))))

(* Seq/par A-B runs: re-measure each parallelized benchmark at the
   requested degree under a "-par" name; the baseline suite above
   already measured the same workload pinned to one domain. *)
let run_pairs ~domains () =
  if domains <= 1 then []
  else begin
    Printf.printf "\n=== parallel variants (--domains %d) ===\n%!" domains;
    List.concat_map
      (fun test ->
        List.map
          (fun (name, ns) -> name ^ "-par", ns)
          (run_one ~domains (par_variant test)))
      (List.filter
         (fun test -> keep test && List.mem (Test.name test) paired_names)
         benchmarks)
  end

(* The flight-recorder pair prices recording on the parallel search; at
   one domain its candidate would repeat mcheck-2node-loadstore.  The
   first searches at a new degree run 2-3x slow (the pool's domains
   start and collect the heap the one-domain suite left behind), so one
   unmeasured second of the same search goes first: otherwise whichever
   side of the pair runs first absorbs that cost. *)
let run_engine_pairs ~domains () =
  if domains <= 1 then []
  else begin
    Printf.printf "\n=== exploration engines (--domains %d) ===\n%!" domains;
    let t0 = Unix.gettimeofday () in
    Par.Pool.with_domains domains (fun () ->
        while Unix.gettimeofday () -. t0 < 1.0 do
          ignore (mcheck_2node_search ())
        done);
    List.concat_map
      (fun test -> run_one ~domains test)
      (List.filter keep engine_degree_benchmarks)
  end

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let rev = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

(* Machine-readable perf snapshot (BENCH_<date>.json, schema
   asura-bench/3) so successive PRs can track the performance
   trajectory without re-parsing the text output.  v2 added the domain
   count, the git revision, and seq/par pairs with their speedups;
   baseline entries are measured pinned to one domain, "-par" entries
   at the requested degree.  v3 adds "representation": columnar vs
   list-of-rows timings of the same workload, with speedups. *)
let write_json ~domains measurements =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  let date =
    Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
  in
  let pairs =
    List.filter_map
      (fun name ->
        match
          List.assoc_opt name measurements,
          List.assoc_opt (name ^ "-par") measurements
        with
        | Some seq_ns, Some par_ns ->
            Some
              (Obs.Json.Obj
                 [
                   "name", Obs.Json.Str name;
                   "seq_ns", Obs.Json.Float seq_ns;
                   "par_ns", Obs.Json.Float par_ns;
                   "domains", Obs.Json.Int domains;
                   "speedup", Obs.Json.Float (seq_ns /. par_ns);
                 ])
        | _ -> None)
      paired_names
  in
  (* engine A/B pairs ride the same array: "seq_ns" holds the reference
     side (boxed / recorder off), "par_ns" the candidate (packed /
     recorder on) *)
  let pairs =
    pairs
    @ List.filter_map
        (fun (pname, ref_name, cand_name, d) ->
          match
            ( List.assoc_opt ref_name measurements,
              List.assoc_opt cand_name measurements )
          with
          | Some ref_ns, Some cand_ns ->
              Some
                (Obs.Json.Obj
                   [
                     "name", Obs.Json.Str pname;
                     "seq_ns", Obs.Json.Float ref_ns;
                     "par_ns", Obs.Json.Float cand_ns;
                     "domains", Obs.Json.Int d;
                     "speedup", Obs.Json.Float (ref_ns /. cand_ns);
                   ])
          | _ -> None)
        (engine_pair_specs ~domains)
  in
  let representation =
    List.filter_map
      (fun (name, _, _) ->
        match
          ( List.assoc_opt ("rep-" ^ name ^ "-columnar") measurements,
            List.assoc_opt ("rep-" ^ name ^ "-listrep") measurements )
        with
        | Some col_ns, Some list_ns ->
            Some
              (Obs.Json.Obj
                 [
                   "name", Obs.Json.Str name;
                   "columnar_ns", Obs.Json.Float col_ns;
                   "listrep_ns", Obs.Json.Float list_ns;
                   "speedup", Obs.Json.Float (list_ns /. col_ns);
                 ])
        | _ -> None)
      rep_workloads
  in
  (* Seq/par pairs where the parallel run is a slowdown (speedup < 1.0):
     surfaced both as a dedicated JSON array and as one-line warnings, so
     a CI log shows the regression without parsing the snapshot. *)
  let regressions =
    List.filter_map
      (fun name ->
        match
          List.assoc_opt name measurements,
          List.assoc_opt (name ^ "-par") measurements
        with
        | Some seq_ns, Some par_ns when seq_ns /. par_ns < 1.0 ->
            let speedup = seq_ns /. par_ns in
            (* stderr: with --json this must never interleave with the
               snapshot on stdout *)
            Printf.eprintf
              "WARNING: %s: parallel run is %.2fx the sequential time \
               (speedup %.2f < 1.0 at %d domains)\n"
              name (par_ns /. seq_ns) speedup domains;
            Some
              (Obs.Json.Obj
                 [
                   "name", Obs.Json.Str name;
                   "seq_ns", Obs.Json.Float seq_ns;
                   "par_ns", Obs.Json.Float par_ns;
                   "domains", Obs.Json.Int domains;
                   "speedup", Obs.Json.Float speedup;
                 ])
        | _ -> None)
      paired_names
  in
  let json =
    Obs.Json.Obj
      [
        "schema", Obs.Json.Str "asura-bench/3";
        "date", Obs.Json.Str date;
        "ocaml", Obs.Json.Str Sys.ocaml_version;
        "word_size", Obs.Json.Int Sys.word_size;
        "domains", Obs.Json.Int domains;
        "git_rev", Obs.Json.Str (git_rev ());
        ( "benchmarks",
          Obs.Json.List
            (List.map
               (fun (name, ns) ->
                 Obs.Json.Obj
                   [
                     "name", Obs.Json.Str name;
                     "ns_per_run", Obs.Json.Float ns;
                   ])
               measurements) );
        "pairs", Obs.Json.List pairs;
        "regressions", Obs.Json.List regressions;
        "representation", Obs.Json.List representation;
      ]
  in
  let file = Printf.sprintf "BENCH_%s.json" date in
  Obs.Atomic_file.write file (fun oc ->
      output_string oc (Obs.Json.to_string json);
      output_char oc '\n');
  Printf.printf "\nwrote %d measurements to %s\n" (List.length measurements)
    file;
  if Obs.Runlog.configured () then
    Obs.Runlog.note "bench"
      (Obs.Json.Obj
         [
           "snapshot", Obs.Json.Str file;
           "measurements", Obs.Json.Int (List.length measurements);
           "pairs", Obs.Json.Int (List.length pairs);
           "regressions", Obs.Json.Int (List.length regressions);
         ])

let parse_domains () =
  let argv = Sys.argv in
  let domains = ref (Par.Pool.domains ()) in
  Array.iteri
    (fun i arg ->
      if arg = "--domains" && i + 1 < Array.length argv then
        match int_of_string_opt argv.(i + 1) with
        | Some n when n >= 1 -> domains := n
        | Some _ | None ->
            Printf.eprintf "bad --domains value %S\n" argv.(i + 1);
            exit 2)
    argv;
  !domains

(* --manifest [DIR]: persist an asura-run/1 manifest of this bench
   invocation (same flag the CLI takes; DIR defaults to "runs"). *)
let parse_manifest () =
  let argv = Sys.argv in
  let dir = ref None in
  Array.iteri
    (fun i arg ->
      if arg = "--manifest" then
        if
          i + 1 < Array.length argv
          && String.length argv.(i + 1) > 0
          && argv.(i + 1).[0] <> '-'
        then dir := Some argv.(i + 1)
        else dir := Some "runs")
    argv;
  !dir

let () =
  let json = Array.exists (( = ) "--json") Sys.argv in
  let domains = parse_domains () in
  (match parse_manifest () with
  | None -> ()
  | Some dir ->
      Obs.Config.enable ();
      Obs.Coverage.enable ();
      Obs.Runlog.configure ~dir ~cmd:"bench" ~argv:Sys.argv;
      Obs.Runlog.note "domains" (Obs.Json.Int domains);
      at_exit (fun () ->
          match Obs.Runlog.write () with
          | Some path -> Printf.eprintf "wrote run manifest to %s\n" path
          | None -> ()));
  Printf.printf "ASURA coherence-protocol design toolchain: benchmark suite\n";
  if json then begin
    (* machine-readable mode: micro-benchmarks only, plus the snapshot;
       the baseline suite is pinned to one domain so snapshots stay
       comparable across machines and settings *)
    let baseline = run_benchmarks ~domains:1 () in
    let measurements =
      baseline @ run_pairs ~domains () @ run_engine_pairs ~domains ()
    in
    write_json ~domains measurements
  end
  else begin
    Printf.printf "(reproduces every table/figure of the IPPS 2003 paper)\n";
    Experiments.run_all ();
    ignore (run_benchmarks ~domains ());
    ignore (run_pairs ~domains ());
    ignore (run_engine_pairs ~domains ())
  end
