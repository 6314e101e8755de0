(* The measuring half: set-up, the closed-loop operation loop, the
   benchmark-side spans of the traced run, and the metrics.

   One designer is the only client: each operation starts when the
   previous verdict is in.  Every time is taken here with the monotonic
   Obs.Clock around a public call (or around a whole cold [asura]
   process); none is read from the program's own result fields. *)

open Harness
module Clock = Obs.Clock

let ms_since t0 = Clock.to_ms (Clock.since t0)

(* ------------------------------- spans -------------------------------- *)

(* Samples by name.  [span] records wall ms and the calling domain's
   minor words of one call into a layer, only while [tracing] is set;
   untraced rounds pay a single branch.  Only outermost spans count
   towards [attributed], the layer time of the current verdict. *)
let tracing = ref false
let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 64
let depth = ref 0
let attributed = ref 0.

let add name v =
  match Hashtbl.find_opt samples name with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add samples name (ref [ v ])

let get name =
  match Hashtbl.find_opt samples name with Some r -> List.rev !r | None -> []

let span name f =
  if not !tracing then f ()
  else begin
    let w0 = Gc.minor_words () and t0 = Clock.now_ns () in
    incr depth;
    let r = Fun.protect ~finally:(fun () -> decr depth) f in
    let ms = ms_since t0 in
    add name ms;
    add (name ^ ".mwords") ((Gc.minor_words () -. w0) /. 1e6);
    if !depth = 0 then attributed := !attributed +. ms;
    r
  end

(* ------------------------------ layers -------------------------------- *)

let mcheck_controllers =
  Protocol.[ directory; cache; node; pif; memory; io ]

(* Generate (and memoize) the tables of [ctrls].  Traced, the solver's
   own counters are read around the call: they are the layer's work at
   its boundary. *)
let generate ctrls =
  let force () =
    List.iter (fun c -> ignore (Protocol.Ctrl_spec.table c.Protocol.spec)) ctrls
  in
  if not !tracing then force ()
  else begin
    let reg = Obs.Metrics.registry "solver" in
    let count n = Obs.Metrics.count (Obs.Metrics.counter reg n) in
    let c0 = count "candidates" and e0 = count "evaluations"
    and r0 = count "rows_generated" in
    Obs.Config.with_enabled (fun () -> span "solver.generate" force);
    let c = count "candidates" - c0 in
    add "solver.candidates" (float_of_int c);
    add "solver.evaluations" (float_of_int (count "evaluations" - e0));
    add "solver.kept_ratio"
      (float_of_int (count "rows_generated" - r0) /. float_of_int (max 1 c))
  end

let suite db =
  let results =
    span "invariant.suite" (fun () ->
        List.map
          (fun inv -> span "invariant.query" (fun () -> Checker.Invariant.run db inv))
          Checker.Invariant.all)
  in
  Suite
    {
      run = List.length results;
      failed =
        List.filter_map
          (fun (r : Checker.Invariant.result) ->
            if r.passed then None else Some r.invariant.id)
          results;
    }

(* Deadlock.analyze, step by step so each step gets its span. *)
let deadlock ?(controllers = Protocol.deadlock_controllers) v =
  let entries =
    span "dependency.table" (fun () ->
        Checker.Dependency.protocol_dependency ~v controllers)
  in
  if !tracing then add "dependency.entries" (float_of_int (List.length entries));
  let vcg = span "vcg.build" (fun () -> Checker.Vcg.build entries) in
  let cycles = span "vcg.cycles" (fun () -> Checker.Vcg.cycles vcg) in
  Vcg
    {
      channels = Vcgraph.Digraph.num_vertices vcg;
      edges = Vcgraph.Digraph.num_edges vcg;
      cycles = List.length cycles;
    }

let assignment name =
  List.find
    (fun (a : Checker.Vcassign.t) -> a.name = "V-" ^ name)
    Checker.Vcassign.standard

let renamed name bijection =
  let a = assignment name in
  {
    a with
    Checker.Vcassign.rows =
      List.map
        (fun (r : Checker.Vcassign.assignment) ->
          { r with vc = List.assoc r.vc bijection })
        a.rows;
  }

(* The nine CREATE TABLE ... AS writes, then the reconstruction join. *)
let map () =
  let db = span "mapping.partition" Mapping.Partition.run in
  let o = span "mapping.reconstruct" (fun () -> Mapping.Reconstruct.check ~db ()) in
  let impl =
    List.map
      (fun t -> Relalg.Table.name t, Relalg.Table.cardinality t)
      (Mapping.Partition.implementation_tables db)
  in
  if !tracing then
    add "mapping.rows_written" (float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 impl));
  let ed = Mapping.Extend.ed () in
  Mapped
    {
      ed_rows = Relalg.Table.cardinality ed;
      ed_cols = Relalg.Table.arity ed;
      impl;
      ed_preserved = o.ed_preserved;
      d_preserved = o.d_preserved;
    }

let config nodes ~evictions =
  {
    Mcheck.Semantics.nodes;
    addrs = 1;
    ops = ([ "load"; "store" ] @ if evictions then [ "evictmod"; "evictsh" ] else []);
    capacity = 3;
    io_addrs = [];
    lossy = false;
  }

(* E11's last seeded bug: drop the sharing writeback, so a read after a
   dirty downgrade and a silent eviction returns stale memory. *)
let stale_spec () =
  Protocol.Ctrl_spec.map_scenario Protocol.Dir_controller.spec "read-sdata-grant"
    (fun s -> { s with emit = List.filter (fun (c, _) -> c <> "memmsg") s.emit })

let cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* One search on the default engine.  Traced, it also records process
   CPU per wall second (all domains) and allocation per state. *)
let explore tables cfg =
  let w0 = Gc.minor_words () and c0 = cpu_s () and t0 = Clock.now_ns () in
  let r =
    span "mcheck.explore" (fun () ->
        Mcheck.Explore.run ~max_states:300_000 ~tables cfg)
  in
  if !tracing then begin
    add "par.cpu_s" (cpu_s () -. c0);
    add "par.wall_s" (Clock.to_s (Clock.since t0));
    add "mcheck.words_per_state"
      ((Gc.minor_words () -. w0) /. float_of_int (max 1 r.explored));
    add "mcheck.top_heap_mb"
      (float_of_int (Gc.quick_stat ()).top_heap_words *. 8. /. 1e6)
  end;
  match r.violation with
  | None -> Explored { states = r.explored; transitions = r.transitions; stale = false; steps = 0 }
  | Some v ->
      Explored
        {
          states = r.explored;
          transitions = r.transitions;
          stale = v.kind = `Stale_data;
          steps = List.length v.trace;
        }

(* The same warm search with the flight recorder off, then on. *)
let flightrec_pair tables cfg =
  let timed f =
    let t0 = Clock.now_ns () in
    ignore (f ());
    ms_since t0
  in
  let run () = Mcheck.Explore.run ~max_states:300_000 ~tables cfg in
  add "flightrec.off_ms" (timed (fun () -> Obs.Flightrec.with_disabled run));
  add "flightrec.on_ms" (timed run)

(* ------------------------------- set-up ------------------------------- *)

type env = {
  db : Relalg.Database.t;
  buggy_dbs : Relalg.Database.t array;  (** in {!Known.t.buggy_d} order *)
  buggy_n : Protocol.controller list;
  tables : Mcheck.Semantics.tables option;
  stale_tables : Mcheck.Semantics.tables option;
}

let buggy_d_spec label =
  let open Protocol in
  let d = Dir_controller.spec in
  match label with
  | "drop-busy-retry" -> Ctrl_spec.drop_scenario d Dir_controller.busy_retry_label
  | "grant-inc" ->
      Ctrl_spec.map_scenario d "ack-exclusive" (fun s ->
          {
            s with
            emit =
              List.map
                (fun (c, o) -> if c = "nxtdirpv" then c, Ctrl_spec.Out "inc" else c, o)
                s.emit;
          })
  | "dealloc-no-completion" ->
      Ctrl_spec.map_scenario d "wb-mack-compl" (fun s ->
          { s with emit = List.filter (fun (c, _) -> c <> "locmsg") s.emit })
  | "drop-idone-sd" ->
      Ctrl_spec.drop_scenario
        (Ctrl_spec.drop_scenario d "readex-idone-sd-last")
        "readex-idone-sd-more"
  | l -> invalid_arg ("buggy_d_spec " ^ l)

(* E11's node bug: requests reissued from retry processing. *)
let buggy_n_controllers () =
  let open Protocol in
  let spec =
    Ctrl_spec.with_scenarios Node_controller.spec
      (Ctrl_spec.scenarios Node_controller.spec @ [ Node_controller.naive_retry_scenario ])
  in
  ignore (Ctrl_spec.table spec);
  List.map
    (fun c -> if Ctrl_spec.name c.spec = "N" then { node with spec } else c)
    deadlock_controllers

(* warm-audit: the clean tables, the four buggy-D databases, the buggy
   N and ED.  explore: the tables the model checker executes, clean and
   with the stale-data bug. *)
let setup (k : Known.t) w =
  match w with
  | Warm_audit ->
      generate Protocol.controllers;
      let db = Protocol.database () in
      let buggy_dbs =
        Array.of_list
          (List.map
             (fun (label, _) ->
               let t, _ = Protocol.Ctrl_spec.generate (buggy_d_spec label) in
               Relalg.Database.replace db (Relalg.Table.with_name "D" t))
             k.buggy_d)
      in
      let buggy_n = buggy_n_controllers () in
      ignore (span "mapping.ed" Mapping.Extend.ed);
      { db; buggy_dbs; buggy_n; tables = None; stale_tables = None }
  | Explore | Explore_2d ->
      generate mcheck_controllers;
      let tables = span "mcheck.load_tables" Mcheck.Semantics.load_tables in
      let stale_tables = Mcheck.Semantics.load_tables_with ~dir:(stale_spec ()) () in
      {
        db = Relalg.Database.empty;
        buggy_dbs = [||];
        buggy_n = [];
        tables = Some tables;
        stale_tables = Some stale_tables;
      }
  | Cold_cli -> invalid_arg "setup"

let search_config = function
  | Two_node -> config 2 ~evictions:false
  | Two_node_evict | Stale -> config 2 ~evictions:true
  | Three_node -> config 3 ~evictions:false

(* ------------------------- in-process verdicts ------------------------ *)

let exec env op =
  match op with
  | Invariants None -> suite env.db
  | Invariants (Some i) -> suite env.buggy_dbs.(i)
  | Deadlock (a, bijection) -> deadlock (renamed a bijection)
  | Deadlock_buggy_n -> deadlock ~controllers:env.buggy_n (assignment "debugged")
  | Map -> map ()
  | Search s ->
      let tables = if s = Stale then env.stale_tables else env.tables in
      explore (Option.get tables) (search_config s)
  | Cli _ -> invalid_arg "exec"

(* --------------------------- cold commands ---------------------------- *)

let pinned_vars =
  [ "ASURA_DOMAINS"; "ASURA_PLANNER"; "ASURA_PLAN_BUILD"; "ASURA_FLIGHTREC";
    "ASURA_PAR_INLINE"; "OCAMLRUNPARAM" ]

(* Every spawned command gets the caller's environment with the
   variables that change what is measured removed, and cold-cli's one
   domain pinned. *)
let child_env () =
  Array.append
    [| "ASURA_DOMAINS=1" |]
    (Array.of_list
       (List.filter
          (fun kv ->
            match String.index_opt kv '=' with
            | Some i -> not (List.mem (String.sub kv 0 i) pinned_vars)
            | None -> true)
          (Array.to_list (Unix.environment ()))))

(* Run [asura argv] to completion; its stdout, exit code and wall ms. *)
let spawn asura argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Clock.now_ns () in
  let pid =
    Unix.create_process_env asura
      (Array.of_list (asura :: argv))
      (child_env ()) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let ms = ms_since t0 in
  let code = match status with Unix.WEXITED c -> c | _ -> 255 in
  out, code, ms

(* Run [f] in a forked child, which starts with no memoized tables
   because this process never generates any before it forks; [f]'s
   string result comes back through a pipe.  Only called while this
   process runs no other domain. *)
let in_child f =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let s = try f () with e -> "exception " ^ Printexc.to_string e in
      let oc = Unix.out_channel_of_descr w in
      output_string oc s;
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let s = In_channel.input_all ic in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      s

let candidates_key cmd =
  if String.starts_with ~prefix:"deadlock" cmd then "deadlock" else cmd

(* A cold command done through the library with benchmark-side spans:
   what [asura cmd] computes, minus process start, argument parsing and
   printing.  Runs in a fresh fork.  Returns the verdict and what the
   traced run does after the command's time is taken. *)
let replica cmd =
  let all = Protocol.controllers in
  let nothing () = () in
  match cmd with
  | "generate" ->
      generate all;
      ( Tables
          (List.map
             (fun t -> Relalg.Table.name t, Relalg.Table.cardinality t)
             (Protocol.tables ())),
        nothing )
  | "invariants" ->
      generate all;
      suite (Protocol.database ()), nothing
  | "map" ->
      generate all;
      ignore (span "mapping.ed" Mapping.Extend.ed);
      map (), nothing
  | "mcheck" ->
      generate mcheck_controllers;
      let tables = span "mcheck.load_tables" Mcheck.Semantics.load_tables in
      let cfg = search_config Two_node in
      explore tables cfg, fun () -> flightrec_pair tables cfg
  | _ ->
      generate Protocol.deadlock_controllers;
      deadlock (assignment (String.sub cmd 9 (String.length cmd - 9))), nothing

(* The child's report: the verdict check, the command's own wall time,
   and every span sample. *)
let run_replica (k : Known.t) ~traced cmd =
  let payload () =
    Hashtbl.reset samples;
    tracing := traced;
    let t0 = Clock.now_ns () in
    let v, after = replica cmd in
    let wall = ms_since t0 in
    if traced then after ();
    let guard =
      if not traced then Ok ()
      else
        let want = List.assoc (candidates_key cmd) k.candidates in
        match get "solver.candidates" with
        | [ c ] when int_of_float c = want -> Ok ()
        | cs ->
            fail "%s generated %s candidates, expected %d" cmd
              (String.concat "+" (List.map (Printf.sprintf "%.0f") cs)) want
    in
    let verdict = Result.bind guard (fun () -> check k (Cli cmd) v) in
    Obs.Json.(
      to_string
        (Obj
           ([
              "error", (match verdict with Ok () -> Null | Error e -> Str e);
              "wall_ms", Float wall;
            ]
           @ Hashtbl.fold
               (fun name r acc -> (name, List (List.rev_map (fun x -> Float x) !r)) :: acc)
               samples [])))
  in
  let s = in_child payload in
  match Obs.Json.parse s with
  | Error _ -> Error ("replica: " ^ s), 0.
  | Ok j ->
      let num key = Option.bind (Obs.Json.member key j) Obs.Json.to_number in
      let error =
        match Obs.Json.member "error" j with
        | Some (Obs.Json.Str e) -> Error e
        | _ -> Ok ()
      in
      (match j with
      | Obs.Json.Obj fields ->
          List.iter
            (fun (name, v) ->
              match v with
              | Obs.Json.List xs when traced ->
                  List.iter (fun x -> Option.iter (add name) (Obs.Json.to_number x)) xs
              | _ -> ())
            fields
      | _ -> ());
      error, Option.value ~default:0. (num "wall_ms")

(* ------------------------------- the run ------------------------------ *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  detail : (string * Obs.Json.t) list;
}

let secs_since t0 = Clock.to_s (Clock.since t0)
let sum = List.fold_left ( +. ) 0.

let is_check = function
  | Invariants _ | Deadlock _ | Deadlock_buggy_n -> true
  | Cli c -> c = "invariants" || String.starts_with ~prefix:"deadlock" c
  | _ -> false

let is_map = function Map | Cli "map" -> true | _ -> false

let exhaustive = function
  | Search (Two_node | Two_node_evict | Three_node) | Cli "mcheck" -> true
  | _ -> false

(* Figures per class of verdict, for the result file: each applies only
   to the workloads whose operations include that class. *)
let class_detail verdicts =
  let ms_of p = List.filter_map (fun (op, ms, _) -> if p op then Some ms else None) verdicts in
  let num = function Some x -> Obs.Json.Float x | None -> Obs.Json.Null in
  let states =
    List.fold_left
      (fun acc (op, ms, v) ->
        match v with
        | Some (Explored e) when exhaustive op ->
            (fst acc +. float_of_int e.states, snd acc +. ms)
        | _ -> acc)
      (0., 0.) verdicts
  in
  [
    "check_ms.p50", num (median (ms_of is_check));
    "check_ms.p90", num (percentile 0.9 (ms_of is_check));
    "map_ms.p50", num (median (ms_of is_map));
    ( "states_per_s",
      if snd states > 0. then Obs.Json.Float (fst states /. (snd states /. 1000.))
      else Obs.Json.Null );
    "cex_ms.p50", num (median (ms_of (( = ) (Search Stale))));
  ]

let layer_metrics w =
  let med name = median (get name) in
  let ratio a b = match a, b with Some a, Some b when b > 0. -> Some (a /. b) | _ -> None in
  (* in-process: verdict time outside every layer span.  cold-cli:
     process start, argument parsing and printing, timed directly as
     [asura <command> --help=plain]; subtracting a replica's time from a
     command's would leave only run-to-run noise at this size *)
  let unattributed =
    med (if w = Cold_cli then "cli_ms" else "unattributed_ms")
  in
  [
    "solver.generate_ms", med "solver.generate", "ms";
    "solver.candidates", med "solver.candidates", "count";
    "solver.evaluations", med "solver.evaluations", "count";
    "solver.kept_ratio", med "solver.kept_ratio", "ratio";
    "solver.minor_mwords", med "solver.generate.mwords", "Mwords";
    "invariant.suite_ms", med "invariant.suite", "ms";
    "invariant.query_ms.p90", percentile 0.9 (get "invariant.query"), "ms";
    "invariant.minor_mwords", med "invariant.suite.mwords", "Mwords";
    "dependency.table_ms", med "dependency.table", "ms";
    "dependency.entries", med "dependency.entries", "count";
    "vcg.build_ms", med "vcg.build", "ms";
    "vcg.cycles_ms", med "vcg.cycles", "ms";
    "mapping.ed_ms", med "mapping.ed", "ms";
    "mapping.partition_ms", med "mapping.partition", "ms";
    "mapping.reconstruct_ms", med "mapping.reconstruct", "ms";
    "mapping.rows_written", med "mapping.rows_written", "count";
    "mcheck.load_tables_ms", med "mcheck.load_tables", "ms";
    "mcheck.explore_ms", med "mcheck.explore", "ms";
    "mcheck.minor_words_per_state", med "mcheck.words_per_state", "words";
    ( "mcheck.top_heap_mb",
      (match get "mcheck.top_heap_mb" with [] -> None | x :: xs -> Some (List.fold_left max x xs)),
      "MB" );
    "par.cpu_per_wall", ratio (Some (sum (get "par.cpu_s"))) (Some (sum (get "par.wall_s"))), "ratio";
    "obs.flightrec_ratio", ratio (med "flightrec.on_ms") (med "flightrec.off_ms"), "ratio";
    "unattributed_ms", unattributed, "ms";
    "obs.trace_overhead", ratio (med "traced_ms") (med "untraced_ms"), "ratio";
  ]

(* Layers the workload's own operations never reach are measured by a
   short probe after the loop, in the same warm process, so that every
   layer figure exists on every workload.  The probe's verdicts are
   checked like any other. *)
let probe w check_op =
  match w with
  | Warm_audit ->
      let tables = span "mcheck.load_tables" Mcheck.Semantics.load_tables in
      let cfg = search_config Two_node in
      for _ = 1 to 3 do
        check_op (Search Two_node) (explore tables cfg);
        flightrec_pair tables cfg
      done
  | Explore | Explore_2d ->
      let db = Protocol.database () in
      check_op (Invariants None) (suite db);
      check_op (Invariants None) (suite db);
      check_op (Deadlock ("debugged", List.combine channels channels))
        (deadlock (assignment "debugged"));
      ignore (span "mapping.ed" Mapping.Extend.ed);
      check_op Map (map ())
  | Cold_cli -> ()

let run ?(known = Known.v) ~asura ~seed ~seconds ~trace w =
  Par.Pool.set_domains (domains w);
  Hashtbl.reset samples;
  let attempted = ref 0 and failed = ref 0 in
  let verdicts = ref [] in
  let record op result =
    incr attempted;
    match result with
    | Ok () -> ()
    | Error e ->
        incr failed;
        if !failed <= 5 then Printf.eprintf "wrong verdict (%s): %s\n%!" (op_kind op) e
  in
  let check_op op v = record op (check known op v) in
  let run_cli cmd =
    let (out, code, _), ms, scaled =
      Calib.timed (fun () -> spawn asura (List.assoc cmd cli_argv))
    in
    let v = parse_cli cmd out in
    record (Cli cmd)
      (match v with
      | None -> fail "unreadable output of asura %s" cmd
      | Some v -> check known ~exit_code:code (Cli cmd) v);
    (ms, scaled), v
  in
  (* traced cold-cli rounds cycle through the replica with spans, the
     command-line front end alone, and the replica without spans *)
  let cold_round i cmd =
    match i mod 3 with
    | 1 ->
        let sub = List.hd (List.assoc cmd cli_argv) in
        let out, code, ms = spawn asura [ sub; "--help=plain" ] in
        record (Cli cmd)
          (if code = 0 && out <> "" then Ok ()
           else fail "asura %s --help=plain exited %d" sub code);
        add "cli_ms" ms
    | m ->
        let traced = m = 0 in
        let err, wall = run_replica known ~traced cmd in
        record (Cli cmd) err;
        add (if traced then "traced_ms" else "untraced_ms") wall
  in
  (* in-process operations; traced runs trace every other round *)
  let warm_op env traced op =
    (* each search starts from a compacted heap, so that its peak memory
       and its collections do not depend on what the last one left *)
    (match op with Search _ -> Gc.compact () | _ -> ());
    tracing := traced;
    attributed := 0.;
    let v, ms, scaled =
      Calib.timed (fun () -> try Ok (exec env op) with e -> Error (Printexc.to_string e))
    in
    let attr = !attributed in
    record op (Result.bind v (check known op));
    (match op, env.tables with
    | Search Two_node_evict, Some tables when traced ->
        (* the recorder pair runs outside the verdict's time *)
        flightrec_pair tables (search_config Two_node_evict)
    | _ -> ());
    tracing := false;
    if not trace then verdicts := (op, (ms, scaled), Result.to_option v) :: !verdicts
    else if traced then begin
      add "traced_ms" ms;
      add "unattributed_ms" (ms -. attr)
    end
    else add "untraced_ms" ms
  in
  (* set-up, several times: cold-cli warms the executable into the page
     cache; the others set up in fresh forks, then once for real *)
  let setup_ms, env =
    match w with
    | Cold_cli ->
        (List.init 3 (fun _ -> let ms, _ = run_cli "generate" in ms), None)
    | _ when trace ->
        tracing := true;
        let env = setup known w in
        tracing := false;
        [], Some env
    | _ ->
        let forked =
          List.init 2 (fun _ ->
              let _, ms, scaled = Calib.timed (fun () -> in_child (fun () -> ignore (setup known w); "")) in
              ms, scaled)
        in
        let env, ms, scaled = Calib.timed (fun () -> setup known w) in
        ((ms, scaled) :: forked, Some env)
  in
  let next_round = rounds ~seed w in
  let min_rounds = if not trace then 1 else if w = Cold_cli then 4 else 2 in
  let t_loop = Clock.now_ns () in
  let rounds_done = ref 0 in
  while !rounds_done < min_rounds || secs_since t_loop < seconds do
    let i = !rounds_done in
    List.iter
      (fun op ->
        match op, env with
        | Cli cmd, _ when not trace ->
            let ms, v = run_cli cmd in
            verdicts := (op, ms, v) :: !verdicts
        | Cli cmd, _ -> cold_round i cmd
        | _, Some env -> warm_op env (trace && i mod 2 = 0) op
        | _, None -> invalid_arg "run")
      (next_round ());
    incr rounds_done
  done;
  let loop_s = secs_since t_loop in
  if trace then begin
    tracing := true;
    probe w check_op;
    tracing := false
  end;
  (* the end-to-end figures are at the nominal host speed; their wall
     clock counterparts go to the result file *)
  let wall = List.map (fun (op, (ms, _), v) -> op, ms, v) (List.rev !verdicts)
  and verdicts = List.map (fun (op, (_, ms), v) -> op, ms, v) (List.rev !verdicts) in
  let ms_of vs = List.map (fun (_, ms, _) -> ms) vs in
  let per_s ms = if ms = [] then None else Some (float_of_int (List.length ms) /. (sum ms /. 1000.)) in
  let metrics =
    if trace then layer_metrics w
    else
      [
        "setup_s", Option.map (fun m -> m /. 1000.) (median (List.map snd setup_ms)), "s";
        "verdict_ms.p50", median (ms_of verdicts), "ms";
        "verdicts_per_s", per_s (ms_of verdicts), "1/s";
      ]
  in
  let num = function Some x -> Obs.Json.Float x | None -> Obs.Json.Null in
  let floats xs = Obs.Json.List (List.map (fun x -> Obs.Json.Float x) xs) in
  let missing = List.filter_map (fun (n, v, _) -> if v = None then Some n else None) metrics in
  if missing <> [] then begin
    Printf.eprintf "no samples for %s\n%!" (String.concat ", " missing);
    incr failed
  end;
  let per_kind =
    List.sort_uniq compare (List.map (fun (op, _, _) -> op_kind op) verdicts)
    |> List.filter_map (fun kind ->
           Option.map
             (fun m -> kind, Obs.Json.Float m)
             (median (List.filter_map (fun (op, ms, _) -> if op_kind op = kind then Some ms else None) verdicts)))
  in
  {
    attempted = !attempted;
    failed = !failed;
    metrics = List.filter_map (fun (n, v, u) -> Option.map (fun v -> n, v, u) v) metrics;
    detail =
      [
        "workload", Obs.Json.Str (name_of_workload w);
        "seed", Obs.Json.Int seed;
        "trace", Obs.Json.Bool trace;
        "domains", Obs.Json.Int (Par.Pool.domains ());
        "recommended_domain_count", Obs.Json.Int (Domain.recommended_domain_count ());
        "ocaml_version", Obs.Json.Str Sys.ocaml_version;
        "rounds", Obs.Json.Int !rounds_done;
        "verdicts", Obs.Json.Int (List.length verdicts);
        "loop_s", Obs.Json.Float loop_s;
        "setup_ms", floats (List.map snd setup_ms);
        ( "wall_clock",
          Obs.Json.Obj
            [
              "setup_ms", floats (List.map fst setup_ms);
              "verdict_ms.p50", num (median (ms_of wall));
              "verdicts_per_s", num (per_s (ms_of wall));
            ] );
        "reference_ms.p50", num (median !Calib.samples);
        "error_rate",
          Obs.Json.Float (float_of_int !failed /. float_of_int (max 1 !attempted));
        "p50_ms_by_kind", Obs.Json.Obj per_kind;
      ]
      @ (if trace then [] else class_detail verdicts);
  }

let to_json o =
  Obs.Json.(
    Obj
      [
        "correct", Bool (o.failed = 0 && o.attempted > 0);
        "attempted", Int o.attempted;
        "failed", Int o.failed;
        ( "metrics",
          Obj (List.map (fun (n, v, u) -> n, Obj [ "value", Float v; "unit", Str u ]) o.metrics) );
        "detail", Obj o.detail;
      ])
