(* Differential seq-vs-par properties: every parallel code path must
   produce results structurally identical to the sequential engine at
   any domain count.  Each property draws a random workload and runs it
   pinned to 1, 2 and 4 domains; any divergence — rows, statistics,
   dependency entries, VCG edges, cycles, model-checker verdicts or the
   reachable-state set itself — fails the property. *)

open Relalg

let domains_swept = [ 1; 2; 4 ]

(* Run [f] at every domain count and check all observations agree. *)
let agree f =
  match List.map (fun d -> Par.Pool.with_domains d f) domains_swept with
  | [] -> true
  | r :: rest -> List.for_all (( = ) r) rest

(* ------------------------- solver differential ------------------------ *)

let value_pool = [ "a"; "b"; "c"; "d" ]

let spec_gen =
  QCheck.Gen.(
    let nonempty_sub pool =
      let* mask = list_repeat (List.length pool) bool in
      let chosen = List.filteri (fun i _ -> List.nth mask i) pool in
      return (if chosen = [] then [ List.hd pool ] else chosen)
    in
    let* ncols = int_range 2 4 in
    let names = List.init ncols (Printf.sprintf "c%d") in
    let* cols =
      flatten_l
        (List.mapi
           (fun i name ->
             let* dom = nonempty_sub value_pool in
             return
               {
                 Solver.cname = name;
                 role = (if i < ncols - 1 then Solver.Input else Solver.Output);
                 domain = List.map (fun s -> Value.Str s) dom;
               })
           names)
    in
    let* constraints =
      flatten_l
        (List.map
           (fun name ->
             let* kind = int_bound 3 in
             let* vs = nonempty_sub value_pool in
             let* other = oneofl names in
             let e =
               match kind with
               | 0 -> Expr.True
               | 1 -> Expr.isin name vs
               | 2 -> Expr.Eq (Expr.col name, Expr.col other)
               | _ -> Expr.Not (Expr.Eq (Expr.col name, Expr.col other))
             in
             return (name, e))
           names)
    in
    return (Solver.make ~name:"rand" ~columns:cols ~constraints))

let spec_arb =
  QCheck.make spec_gen ~print:(fun s ->
      String.concat ","
        (List.map (fun c -> c.Solver.cname) (Solver.columns s)))

let observe_generation (tbl, stats) =
  ( Schema.columns (Table.schema tbl),
    Table.rows tbl,
    stats.Solver.candidates,
    stats.Solver.evaluations,
    stats.Solver.per_column,
    stats.Solver.pruning )

let prop_generate_diff =
  QCheck.Test.make ~count:500
    ~name:"incremental generation identical across 1/2/4 domains" spec_arb
    (fun s -> agree (fun () -> observe_generation (Solver.generate s)))

let prop_monolithic_diff =
  QCheck.Test.make ~count:500
    ~name:"monolithic generation identical across 1/2/4 domains" spec_arb
    (fun s ->
      agree (fun () -> observe_generation (Solver.generate_monolithic s)))

(* Controller-shaped specs for the factorized solver: input constraints
   are ORs of scenario boxes over the column's prefix, output constraints
   first-match ternary chains over the full boxes — overlapping guards,
   [Copy] leaves, determined values missing from the domain, duplicate
   domain values, guard lists past one 63-bit word, non-atomic guards
   (registered function, ordered comparison, column-column equality) and
   chains whose guards mention the column being added.  The solver must
   match the row-at-a-time oracle at every domain count. *)
let ctrl_funcs = function
  | "isa" -> Some (fun v -> Value.equal v (Value.Str "a"))
  | _ -> None

let ctrl_spec_gen =
  QCheck.Gen.(
    let letter = oneofl [ "a"; "b"; "c" ] in
    let domain =
      let* vs = list_size (int_range 1 4) letter in
      return (Value.Null :: List.map Value.str vs)
    in
    let* wide = bool in
    let* nin = int_range 1 3 and* nout = int_range 1 3 in
    let ins = List.init nin (Printf.sprintf "i%d") in
    let outs = List.init nout (Printf.sprintf "o%d") in
    let* in_doms = list_repeat nin domain
    and* out_doms = list_repeat nout domain in
    let* nscen = frequency [ 3, int_range 0 8; 1, int_range 60 130 ] in
    let atom c =
      frequency
        [
          4, map (Expr.eq c) letter;
          2, return (Expr.eq_null c);
          1, map (Expr.isin c) (list_size (int_range 1 2) letter);
          1, map (Expr.neq c) letter;
          2, return Expr.True;
        ]
    in
    let odd c =
      oneof
        [
          return (Expr.Fn ("isa", Expr.col c));
          map (fun v -> Expr.Cmp (Expr.Lt, Expr.col c, Expr.s v)) letter;
          map (fun o -> Expr.Eq (Expr.col c, Expr.col o)) (oneofl ins);
        ]
    in
    (* in a long list most guards of the first word never hold, so first
       matches land past the first bitset word *)
    let* boxes =
      flatten_l
        (List.init nscen (fun g ->
             let* atoms = flatten_l (List.map atom ins) in
             let* live = int_bound 7 in
             return
               (if nscen > 63 && g < 63 && live > 0 then
                  Expr.eq (List.hd ins) "zz" :: atoms
                else atoms)))
    in
    (* some specs carry non-atomic guards, which send their chains down
       the compiled-closure fallback *)
    let* odd_spec = bool in
    let* odd_guards =
      list_repeat nscen
        (let* k = int_bound 9 in
         if odd_spec && k = 0 then map Option.some (odd (List.hd ins))
         else return None)
    in
    let guard atoms odd =
      match odd with None -> Expr.conj atoms | Some e -> Expr.conj (e :: atoms)
    in
    let input_constraint k =
      let* odd_disj =
        frequency [ 9, return []; 1, map (fun e -> [ e ]) (odd (List.nth ins k)) ]
      in
      return
        ( List.nth ins k,
          Expr.disj
            (List.map
               (fun atoms -> Expr.conj (List.filteri (fun j _ -> j <= k) atoms))
               boxes
            @ odd_disj) )
    in
    let leaf o =
      frequency
        [
          4, map (Expr.eq o) letter;
          1, return (Expr.eq o "zz");
          2, map (fun i -> Expr.Eq (Expr.col o, Expr.col i)) (oneofl ins);
          1, map (fun i -> Expr.Eq (Expr.col i, Expr.col o)) (oneofl ins);
          2, return (Expr.eq_null o);
          1, map (Expr.isin o) (list_size (int_range 1 2) letter);
          ( 1,
            map2
              (fun v i -> Expr.Or (Expr.eq o v, Expr.eq i v))
              letter (oneofl ins) );
          1, map (fun v -> Expr.Not (Expr.eq o v)) letter;
        ]
    in
    let output_constraint o =
      let* leaves = list_repeat nscen (leaf o) and* default = leaf o in
      let* shape = int_bound 9 in
      let guards = List.map2 guard boxes odd_guards in
      let guards, leaves =
        match shape, guards, leaves with
        (* a guard on the column itself: no first-match factorization *)
        | 0, _ :: gs, ls -> Expr.eq o "a" :: gs, ls
        (* another guard list, with its own first-match column *)
        | (1 | 2), _ :: gs, _ :: ls -> gs, ls
        | _ -> guards, leaves
      in
      return (o, List.fold_right2 Expr.ternary guards leaves default)
    in
    let* in_cs = flatten_l (List.init nin input_constraint) in
    let* out_cs = flatten_l (List.map output_constraint outs) in
    let col role name domain = { Solver.cname = name; role; domain } in
    let columns =
      (if wide then
         [ col Solver.Input "w" (List.init 48 (fun i -> Value.Int i)) ]
       else [])
      @ List.map2 (col Solver.Input) ins in_doms
      @ List.map2 (col Solver.Output) outs out_doms
    in
    return (Solver.make ~name:"ctrl" ~columns ~constraints:(in_cs @ out_cs)))

let prop_factorized_vs_oracle =
  QCheck.Test.make ~count:200
    ~name:"factorized generation = reference oracle across 1/2/4 domains"
    (QCheck.make ctrl_spec_gen ~print:(fun s ->
         String.concat "\n"
           (List.map
              (fun c ->
                Format.asprintf "%s: %a" c.Solver.cname Expr.pp
                  (Solver.constraint_of s c.Solver.cname))
              (Solver.columns s))))
    (fun s ->
      let oracle =
        observe_generation (Solver_oracle.generate ~funcs:ctrl_funcs s)
      in
      let runs =
        List.map
          (fun d ->
            Par.Pool.with_domains d (fun () ->
                let tbl, st = Solver.generate ~funcs:ctrl_funcs s in
                observe_generation (tbl, st), st.Solver.physical_evaluations))
          domains_swept
      in
      List.for_all (fun (o, _) -> o = oracle) runs
      && List.for_all (fun (_, p) -> p = snd (List.hd runs)) runs)

(* ----------------------- deadlock-check differential ------------------ *)

let assignment_gen =
  QCheck.Gen.(
    let* base = oneofl Checker.Vcassign.standard in
    let* tweaks = int_bound 3 in
    let channels =
      Checker.Vcassign.
        [ vc0; vc1; vc2; vc3; vc4 ]
    in
    let rec tweak v k =
      if k = 0 || v.Checker.Vcassign.rows = [] then return v
      else
        let* row = oneofl v.Checker.Vcassign.rows in
        let* vc = oneofl channels in
        tweak
          (Checker.Vcassign.reassign v ~msg:row.Checker.Vcassign.msg
             ~src:row.Checker.Vcassign.src ~dst:row.Checker.Vcassign.dst ~vc)
          (k - 1)
    in
    tweak base tweaks)

let nonempty_sublist_gen xs =
  QCheck.Gen.(
    let* mask = list_repeat (List.length xs) bool in
    let chosen = List.filteri (fun i _ -> List.nth mask i) xs in
    return (if chosen = [] then [ List.hd xs ] else chosen))

let deadlock_case_gen =
  QCheck.Gen.(
    let* v = assignment_gen in
    let* controllers = nonempty_sublist_gen Protocol.deadlock_controllers in
    let* placements = nonempty_sublist_gen Protocol.Topology.all_placements in
    let* interleavings = bool in
    return (v, controllers, placements, interleavings))

let observe_report (r : Checker.Deadlock.report) =
  ( List.map (fun e -> e.Checker.Dependency.dep) r.entries,
    List.map
      (fun (src, dst, label) ->
        src, dst, List.map (fun e -> e.Checker.Dependency.dep) label)
      (Vcgraph.Digraph.edges r.vcg),
    List.map (fun (c : _ Vcgraph.Cycles.cycle) -> c.nodes) r.cycles )

let prop_deadlock_diff =
  QCheck.Test.make ~count:500
    ~name:
      "dependency table, VCG edges and cycles identical across 1/2/4 domains"
    (QCheck.make deadlock_case_gen ~print:(fun (v, cs, ps, il) ->
         Printf.sprintf "%s, %d controllers, %d placements, interleavings=%b"
           v.Checker.Vcassign.name (List.length cs) (List.length ps) il))
    (fun (v, controllers, placements, interleavings) ->
      agree (fun () ->
          observe_report
            (Checker.Deadlock.analyze ~placements ~interleavings ~controllers
               v)))

(* ------------------------- mcheck differential ------------------------ *)

let mcheck_tables = lazy (Mcheck.Semantics.load_tables ())

(* The production search and the boxed oracle at one first-class type. *)
type search =
  ?max_states:int ->
  ?symmetry:bool ->
  ?tables:Mcheck.Semantics.tables ->
  ?keep_states:bool ->
  Mcheck.Semantics.config ->
  Mcheck.Explore.result

let packed : search = Mcheck.Explore.run ?compact_bits:None
let boxed : search = Mcheck.Explore.run_reference

let mcheck_case_gen =
  QCheck.Gen.(
    let* ops = nonempty_sublist_gen [ "load"; "store" ] in
    let* evictions = bool in
    let* capacity = int_range 1 3 in
    let* max_states = int_range 60 150 in
    let* symmetry = bool in
    let ops = if evictions then ops @ [ "evict" ] else ops in
    return
      ( { Mcheck.Semantics.nodes = 2; addrs = 1; ops; capacity; io_addrs = [];
          lossy = false },
        max_states,
        symmetry ))

let observe_mcheck (r : Mcheck.Explore.result) =
  (* everything except wall-clock time *)
  ( r.explored, r.transitions, r.max_depth, r.violation, r.complete,
    r.dedup_hits, r.per_depth, r.max_frontier, r.states )

let print_mcheck_case (cfg, max_states, symmetry) =
  Printf.sprintf "ops=[%s] capacity=%d max_states=%d symmetry=%b"
    (String.concat ";" cfg.Mcheck.Semantics.ops)
    cfg.Mcheck.Semantics.capacity max_states symmetry

(* On one domain the stealing loop is a FIFO queue, so the packed engine
   is an exact BFS: EVERY field — including per_depth / max_depth /
   max_frontier — must equal the boxed reference's, even on truncated
   searches. *)
let prop_mcheck_diff =
  QCheck.Test.make ~count:500
    ~name:
      "model-checker verdict and every result field: packed engine at 1 \
       domain equals the boxed reference"
    (QCheck.make mcheck_case_gen ~print:print_mcheck_case)
    (fun (cfg, max_states, symmetry) ->
      let go (run : search) =
        observe_mcheck
          (run ~max_states ~symmetry ~tables:(Lazy.force mcheck_tables)
             ~keep_states:true cfg)
      in
      Par.Pool.with_domains 1 (fun () ->
          go packed
          = go boxed))

(* ---------------- packed / work-stealing differential ----------------- *)

(* The stealing engine's schedule is nondeterministic, so only its
   order-free observables are comparable: for a COMPLETE exact search
   every visited state is expanded exactly once in any schedule, making
   the reachable set, explored / transitions / dedup totals, the verdict
   and the coverage bitmaps schedule-independent.  per_depth, max_depth
   and max_frontier are not (several participants omit the depths), and
   are deliberately left out. *)
let observe_order_free (r : Mcheck.Explore.result) =
  (r.explored, r.transitions, r.dedup_hits, r.violation, r.complete, r.states)

let steal_case_gen =
  QCheck.Gen.(
    let* ops = nonempty_sublist_gen [ "load"; "store" ] in
    let* evictions = bool in
    let* capacity = int_range 1 2 in
    let* symmetry = bool in
    let ops = if evictions then ops @ [ "evict" ] else ops in
    return
      ( { Mcheck.Semantics.nodes = 2; addrs = 1; ops; capacity; io_addrs = [];
          lossy = false },
        symmetry ))

let print_steal_case (cfg, symmetry) =
  Printf.sprintf "ops=[%s] capacity=%d symmetry=%b"
    (String.concat ";" cfg.Mcheck.Semantics.ops)
    cfg.Mcheck.Semantics.capacity symmetry

let prop_mcheck_steal_diff =
  QCheck.Test.make ~count:40
    ~name:
      "packed engine (steal at 1/2/4 domains) matches the boxed reference on \
       complete searches"
    (QCheck.make steal_case_gen ~print:print_steal_case)
    (fun (cfg, symmetry) ->
      let go (run : search) =
        observe_order_free
          (run ~max_states:50_000 ~symmetry ~tables:(Lazy.force mcheck_tables)
             ~keep_states:true cfg)
      in
      let reference = go boxed in
      let _, _, _, _, complete, _ = reference in
      complete
      && List.for_all
           (fun d ->
             Par.Pool.with_domains d (fun () ->
                 go packed)
             = reference)
           domains_swept)

(* Truncated searches visit a schedule-dependent SUBSET, but the atomic
   ticket budget makes the expansion count itself exact: explored and the
   completeness verdict still match the reference at any domain count. *)
let prop_mcheck_steal_bounded =
  QCheck.Test.make ~count:100
    ~name:"bounded steal search expands exactly max_states at 1/2/4 domains"
    (QCheck.make mcheck_case_gen ~print:print_mcheck_case)
    (fun (cfg, max_states, symmetry) ->
      let go (run : search) =
        let r =
          run ~max_states ~symmetry ~tables:(Lazy.force mcheck_tables) cfg
        in
        r.Mcheck.Explore.explored, r.Mcheck.Explore.complete
      in
      let reference = go boxed in
      List.for_all
        (fun d ->
          Par.Pool.with_domains d (fun () ->
              go packed)
          = reference)
        domains_swept)

(* Coverage is recorded from inside worker domains and OR-merged; the
   merged bitmaps must be byte-identical to the boxed reference's. *)
let test_steal_coverage_matches_seq () =
  let cfg =
    { Mcheck.Semantics.nodes = 2; addrs = 1; ops = [ "load"; "store" ];
      capacity = 2; io_addrs = []; lossy = false }
  in
  let snap (run : search) d =
    Par.Pool.with_domains d (fun () ->
        Obs.Coverage.reset ();
        ignore
          (run ~max_states:50_000 ~tables:(Lazy.force mcheck_tables) cfg);
        List.map
          (fun (tc : Obs.Coverage.table_coverage) ->
            tc.name, tc.rows, tc.covered, Bytes.to_string tc.bitmap)
          (Obs.Coverage.snapshot ()))
  in
  Obs.Coverage.with_enabled (fun () ->
      let reference = snap boxed 1 in
      Alcotest.(check bool)
        "sequential run covered something" true
        (List.exists (fun (_, _, covered, _) -> covered > 0) reference);
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "steal coverage bitmaps at %d domains" d)
            true
            (snap packed d = reference))
        domains_swept;
      Obs.Coverage.reset ())

(* A seeded protocol bug: the stealing path must report the SAME
   violation — kind, detail, trace and rendered sequence chart — because
   on first contact it stops and replays the search sequentially.  This
   pins the replay wiring, not just the verdict. *)
let test_steal_seeded_bug_matches_seq () =
  let spec' =
    Protocol.Ctrl_spec.drop_scenario Protocol.Dir_controller.spec
      "readex-idone-sd-last"
  in
  let tables' = Mcheck.Semantics.load_tables_with ~dir:spec' () in
  let cfg =
    { Mcheck.Semantics.nodes = 3; addrs = 1; ops = [ "load"; "store" ];
      capacity = 3; io_addrs = []; lossy = false }
  in
  let viol (run : search) d =
    Par.Pool.with_domains d (fun () ->
        (run ~max_states:200_000 ~tables:tables' cfg).Mcheck.Explore.violation)
  in
  match viol boxed 1 with
  | None -> Alcotest.fail "seeded hang not found by the reference engine"
  | Some v ->
      Alcotest.(check bool) "reference has a trace" true (v.trace <> []);
      let msc = Sim.Msc.render_run v.Mcheck.Explore.trace in
      List.iter
        (fun d ->
          match viol packed d with
          | None ->
              Alcotest.fail
                (Printf.sprintf "steal at %d domains missed the seeded hang" d)
          | Some w ->
              Alcotest.(check bool)
                (Printf.sprintf "identical violation at %d domains" d)
                true (w = v);
              Alcotest.(check string)
                (Printf.sprintf "identical sequence chart at %d domains" d)
                msc
                (Sim.Msc.render_run w.Mcheck.Explore.trace))
        domains_swept

(* Golden witness: the Figure 4 wedged configuration (VC2 and VC4
   mutually occupied under the paper's pre-fix assignment) survives a
   round trip through the production packing layout bit-exactly, and its
   canonical vector is stable.  Pins both the scenario and the packed
   path against drift. *)
let test_figure4_witness_packs () =
  let result, _, wedged =
    Sim.Scenario.figure4_wedged Checker.Vcassign.with_vc4
  in
  (match result with
  | Sim.Runner.Deadlock { occupancy; _ } ->
      Alcotest.(check bool) "VC2 occupied" true (List.mem_assoc "VC2" occupancy);
      Alcotest.(check bool) "VC4 occupied" true (List.mem_assoc "VC4" occupancy)
  | Sim.Runner.Quiescent _ -> Alcotest.fail "expected the Figure 4 deadlock");
  let cfg =
    { Mcheck.Semantics.nodes = 3; addrs = 2; ops = [ "load"; "store" ];
      capacity = 2; io_addrs = []; lossy = false }
  in
  let layout =
    Mcheck.Explore.layout_of_tables (Lazy.force mcheck_tables) cfg
  in
  (* the simulator can leave strings outside the model-checker vocabulary
     in flight; dictionary growth is part of what this pins *)
  let rec pack_growing l fuel =
    match Mcheck.Pack.pack l wedged with
    | v -> l, v
    | exception Mcheck.Pack.Overflow _ when fuel > 0 ->
        pack_growing (Mcheck.Pack.refresh l) (fuel - 1)
  in
  let layout, v = pack_growing layout 16 in
  Alcotest.(check bool)
    "wedged state round-trips through the packed representation" true
    (Mcheck.Pack.unpack layout v = wedged);
  Alcotest.(check bool)
    "canonical vector is reproducible" true
    (Mcheck.Pack.equal
       (Mcheck.Pack.canonical layout wedged)
       (Mcheck.Pack.canonical layout wedged))

(* The deadlock-V-vc4 seq/par regression root cause: the old
   level-synchronized engine paid a Domain.spawn per BFS level.  Workers
   are resident now — once the pool is warm, repeated multi-level
   searches must not spawn a single additional domain. *)
let test_pool_spawns_no_new_domains () =
  let cfg =
    { Mcheck.Semantics.nodes = 2; addrs = 1; ops = [ "load"; "store" ];
      capacity = 2; io_addrs = []; lossy = false }
  in
  Par.Pool.with_domains 4 (fun () ->
      (* warm the pool to its high-water mark — a big enough region to
         clear the small-work inline fallback and actually fan out *)
      ignore (Par.Pool.map_list ~min_chunk:1 Fun.id (List.init 512 Fun.id));
      let before = Obs.Metrics.aggregate "spawn" in
      for _ = 1 to 3 do
        ignore
          (Mcheck.Explore.run ~max_states:2_000
             ~tables:(Lazy.force mcheck_tables) cfg)
      done;
      Alcotest.(check int)
        "no extra Domain.spawn across repeated multi-level searches" 0
        (Obs.Metrics.aggregate "spawn" - before))

let suite =
  [
    Test_seed.to_alcotest prop_generate_diff;
    Test_seed.to_alcotest prop_monolithic_diff;
    Test_seed.to_alcotest prop_deadlock_diff;
    Test_seed.to_alcotest prop_mcheck_diff;
    Test_seed.to_alcotest prop_mcheck_steal_diff;
    Test_seed.to_alcotest prop_mcheck_steal_bounded;
    Alcotest.test_case "steal coverage bitmaps merge to sequential" `Quick
      test_steal_coverage_matches_seq;
    Alcotest.test_case "steal replays seeded bug identically" `Slow
      test_steal_seeded_bug_matches_seq;
    Alcotest.test_case "resident pool spawns no new domains" `Quick
      test_pool_spawns_no_new_domains;
    Test_seed.to_alcotest prop_factorized_vs_oracle;
    Alcotest.test_case "figure 4 witness packs" `Quick
      test_figure4_witness_packs;
  ]
