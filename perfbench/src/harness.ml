(* The pure half of the benchmark: workloads, seeded operation
   sequences, channel renaming, percentiles and verdict checking.  The
   self-test exercises this module without timing anything. *)

(* ------------------------------ workloads ----------------------------- *)

type workload = Cold_cli | Warm_audit | Explore | Explore_2d

let workloads =
  [ "cold-cli", Cold_cli; "warm-audit", Warm_audit; "explore", Explore;
    "explore-2d", Explore_2d ]

let workload_of_name n = List.assoc_opt n workloads
let name_of_workload w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* Each workload pins its parallelism degree; explore-2d matches the
   two-core host the benchmark was sized on. *)
let domains = function Explore_2d -> 2 | Cold_cli | Warm_audit | Explore -> 1

(* ----------------------------- operations ----------------------------- *)

type search = Two_node | Two_node_evict | Three_node | Stale

type op =
  | Cli of string  (** a cold [asura] command, by its key in {!cli_argv} *)
  | Invariants of int option
      (** the suite on the clean database, or on E11 buggy D number k *)
  | Deadlock of string * (string * string) list
      (** a paper assignment with its channels renamed by the bijection *)
  | Deadlock_buggy_n  (** the debugged assignment over the E11 buggy N *)
  | Map  (** partition ED into the nine tables and reconstruct *)
  | Search of search

let cli_argv =
  [
    "generate", [ "generate" ];
    "invariants", [ "invariants" ];
    "deadlock-initial", [ "deadlock"; "-a"; "initial" ];
    "deadlock-vc4", [ "deadlock"; "-a"; "vc4" ];
    "deadlock-debugged", [ "deadlock"; "-a"; "debugged" ];
    "map", [ "map" ];
    "mcheck", [ "mcheck"; "-n"; "2" ];
  ]

let search_name = function
  | Two_node -> "2node"
  | Two_node_evict -> "2node-evict"
  | Three_node -> "3node"
  | Stale -> "stale"

let op_kind = function
  | Cli k -> k
  | Invariants None -> "invariants"
  | Invariants (Some i) -> Printf.sprintf "invariants-buggy-d%d" i
  | Deadlock (a, _) -> "deadlock-" ^ a
  | Deadlock_buggy_n -> "deadlock-buggy-n"
  | Map -> "map"
  | Search s -> search_name s

let paper_assignments = [ "initial"; "vc4"; "debugged" ]
let channels = [ "VC0"; "VC1"; "VC2"; "VC3"; "VC4" ]

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* A seeded bijection from the paper's channel names onto fresh opaque
   names: the checker never interprets a channel name, so the verdict
   must not change while the input differs from run to run. *)
let renaming rng =
  let targets = shuffle rng (List.mapi (fun i _ -> Printf.sprintf "ch%d" i) channels) in
  List.combine channels targets

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* One designer round: every operation kind of the workload appears a
   fixed number of times, in a seeded order with seeded inputs.  Fixed
   counts keep each run's mix, and so its medians, independent of how
   many rounds fit in the measuring window. *)
let round rng = function
  | Cold_cli -> shuffle rng (List.map (fun (k, _) -> Cli k) cli_argv)
  | Warm_audit ->
      (* two of each operation: the median then falls mid-way through
         the invariant-suite verdicts, never on the edge of a class *)
      let deadlock () = Deadlock (pick rng paper_assignments, renaming rng) in
      let second = if Random.State.bool rng then Deadlock_buggy_n else deadlock () in
      shuffle rng
        [
          Invariants None;
          Invariants (Some (Random.State.int rng 4));
          deadlock ();
          second;
          Map;
          Map;
        ]
  | Explore | Explore_2d ->
      (* one search on either side of three mid-sized ones: the median
         is the mid-sized search, with several samples per run *)
      shuffle rng
        [
          Search Three_node; Search Two_node_evict; Search Two_node_evict;
          Search Two_node_evict; Search Stale;
        ]

let rounds ~seed w =
  let rng = Random.State.make [| seed; Hashtbl.hash (name_of_workload w) |] in
  fun () -> round rng w

(* ---------------------------- percentiles ----------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> None
  | a ->
      let n = Array.length a in
      Some (if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.)

(* Nearest-rank percentile, reported only when at least ten samples lie
   beyond it; the median is always reported. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  if n = 0 || n - rank < 10 then None else Some a.(max 0 (rank - 1))

(* ------------------------------ verdicts ------------------------------ *)

type verdict =
  | Tables of (string * int) list
  | Suite of { run : int; failed : string list }
  | Vcg of { channels : int; edges : int; cycles : int }
  | Mapped of {
      ed_rows : int;
      ed_cols : int;
      impl : (string * int) list;
      ed_preserved : bool;
      d_preserved : bool;
    }
  | Explored of {
      states : int;
      transitions : int;
      stale : bool;  (** a stale-data violation was reported *)
      steps : int;  (** its counterexample length (0 without one) *)
    }

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let check_tables (k : Known.t) got =
  if got = k.table_rows then Ok () else fail "table sizes differ"

let check_suite (k : Known.t) ~buggy ~run ~failed =
  if run <> k.invariants then fail "%d invariants run, expected %d" run k.invariants
  else
    match buggy with
    | None when failed = [] -> Ok ()
    | None -> fail "clean tables failed %s" (String.concat "," failed)
    | Some i ->
        let bug, inv = List.nth k.buggy_d i in
        if List.mem inv failed then Ok ()
        else fail "buggy D %s: %s did not fail" bug inv

let check_vcg (k : Known.t) assignment ~channels ~edges ~cycles =
  let c, e, y = List.assoc assignment k.deadlock in
  if (channels, edges, cycles) = (c, e, y) then Ok ()
  else
    fail "%s: %d/%d/%d channels/edges/cycles, expected %d/%d/%d" assignment
      channels edges cycles c e y

let check_mapped (k : Known.t) = function
  | Mapped m ->
      if m.ed_rows <> k.ed_rows || m.ed_cols <> k.ed_cols then
        fail "ED %dx%d" m.ed_rows m.ed_cols
      else if m.impl <> k.impl_rows then fail "implementation tables differ"
      else if not (m.ed_preserved && m.d_preserved) then
        fail "reconstruction failed"
      else Ok ()
  | _ -> fail "expected a mapping verdict"

let check_search (k : Known.t) s = function
  | Explored e -> (
      match s with
      | Stale ->
          if e.stale && e.steps = k.stale_trace_steps then Ok ()
          else fail "stale-data counterexample missing (%d steps)" e.steps
      | _ ->
          let st, tr = List.assoc (search_name s) k.searches in
          if e.stale || e.steps <> 0 then fail "%s: unexpected violation" (search_name s)
          else if (e.states, e.transitions) <> (st, tr) then
            fail "%s: %d/%d states/transitions, expected %d/%d"
              (search_name s) e.states e.transitions st tr
          else Ok ())
  | _ -> fail "expected a search verdict"

(* [exit_code] is the cold command's exit status; [None] in-process. *)
let check (k : Known.t) ?exit_code op v =
  let exit_ok want =
    match exit_code with
    | Some c when c <> want -> fail "exit code %d, expected %d" c want
    | _ -> Ok ()
  in
  let ( >>= ) = Result.bind in
  match op, v with
  | Cli "generate", Tables t -> exit_ok 0 >>= fun () -> check_tables k t
  | (Cli "invariants" | Invariants None), Suite s ->
      exit_ok 0 >>= fun () -> check_suite k ~buggy:None ~run:s.run ~failed:s.failed
  | Invariants (Some i), Suite s -> check_suite k ~buggy:(Some i) ~run:s.run ~failed:s.failed
  | Cli cmd, Vcg g when String.starts_with ~prefix:"deadlock-" cmd ->
      (* a cycle is a verdict, reported with exit code 1 *)
      exit_ok (if g.cycles > 0 then 1 else 0) >>= fun () ->
      check_vcg k (String.sub cmd 9 (String.length cmd - 9)) ~channels:g.channels
        ~edges:g.edges ~cycles:g.cycles
  | Deadlock (a, _), Vcg g ->
      check_vcg k a ~channels:g.channels ~edges:g.edges ~cycles:g.cycles
  | Deadlock_buggy_n, Vcg g ->
      if g.cycles > 0 then Ok () else fail "buggy N: no cycle found"
  | (Cli "map" | Map), v -> exit_ok 0 >>= fun () -> check_mapped k v
  | Cli "mcheck", v -> exit_ok 0 >>= fun () -> check_search k Two_node v
  | Search s, v -> check_search k s v
  | _ -> fail "%s: verdict of the wrong kind" (op_kind op)

(* ------------------------ cold command output ------------------------- *)

(* The CLI prints its verdicts as text; these parsers read back exactly
   the figures {!check} compares. *)

let lines s = String.split_on_char '\n' s

let scan_all fmt f s =
  List.filter_map (fun l -> try Some (Scanf.sscanf l fmt f) with _ -> None) (lines s)

let scan_first fmt f s =
  match scan_all fmt f s with x :: _ -> Some x | [] -> None

let parse_cli cmd out =
  match cmd with
  | "generate" ->
      Some (Tables (scan_all "%s %d rows %d columns%!" (fun n r _ -> n, r) out))
  | "invariants" ->
      Option.map
        (fun (run, _) ->
          Suite
            { run; failed = scan_all "FAIL %s@:" (fun id -> id) out })
        (scan_first "%d invariants checked, %d failed" (fun a b -> a, b) out)
  | "map" -> (
      match
        ( scan_first "ED: %d rows x %d columns" (fun r c -> r, c) out,
          scan_first "reconstruction: ED preserved = %B, D contained = %B"
            (fun a b -> a, b) out )
      with
      | Some (ed_rows, ed_cols), Some (ed_preserved, d_preserved) ->
          let impl = scan_all " %s %d rows%!" (fun n r -> n, r) out in
          Some (Mapped { ed_rows; ed_cols; impl; ed_preserved; d_preserved })
      | _ -> None)
  | "mcheck" ->
      (* the clean 2-node search; any other ending is a violation *)
      let clean = List.exists (String.ends_with ~suffix:"no violations") (lines out) in
      Option.map
        (fun (states, transitions) ->
          Explored { states; transitions; stale = false; steps = (if clean then 0 else -1) })
        (scan_first "states=%d transitions=%d" (fun a b -> a, b) out)
  | _ ->
      (* deadlock-<assignment> *)
      Option.map
        (fun (channels, edges) ->
          let cycles =
            Option.value ~default:0
              (scan_first " %d cycle(s) found" (fun n -> n) out)
          in
          Vcg { channels; edges; cycles })
        (scan_first " VCG: %d channels, %d edges" (fun a b -> a, b) out)
