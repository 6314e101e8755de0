(* The row-at-a-time reference solver: the differential oracle for
   {!Relalg.Solver.generate}.  It enumerates every candidate extension —
   each surviving row by every domain value of the new column, as a boxed
   row — and short-circuits the column's newly-ready constraints in
   order, so its [candidates], [evaluations], [per_column] and [pruning]
   are the logical counts by definition.  Sequential and unoptimized on
   purpose. *)

open Relalg

let generate ?funcs s =
  let order = Solver.inputs s @ Solver.outputs s in
  let evaluations = ref 0 and candidates = ref 0 in
  let per_column = ref [] and pruning = ref [] in
  let pending =
    ref
      (List.filter_map
         (fun (c : Solver.column) ->
           match Solver.constraint_of s c.cname with
           | Expr.True -> None
           | e -> Some (Expr.free_columns e, e))
         order)
  in
  let bound = Hashtbl.create 16 in
  let step (schema, rows) (col : Solver.column) =
    Hashtbl.add bound col.cname ();
    let schema' = Schema.append schema [ col.cname ] in
    let ready, waiting =
      List.partition
        (fun (free, _) -> List.for_all (Hashtbl.mem bound) free)
        !pending
    in
    pending := waiting;
    let checks = List.map (fun (_, e) -> Expr.compile ?funcs schema' e) ready in
    let extend row v =
      incr candidates;
      let row' = Array.append row [| v |] in
      if
        List.for_all
          (fun check ->
            incr evaluations;
            check row')
          checks
      then Some row'
      else None
    in
    let considered = !candidates in
    let rows' =
      List.concat_map (fun row -> List.filter_map (extend row) col.domain) rows
    in
    let considered = !candidates - considered and kept = List.length rows' in
    per_column := (col.cname, kept) :: !per_column;
    pruning := { Solver.column = col.cname; considered; kept } :: !pruning;
    schema', rows'
  in
  let schema, rows = List.fold_left step (Schema.of_list [], [ [||] ]) order in
  ( Table.of_rows ~name:(Solver.name s) schema rows,
    {
      Solver.candidates = !candidates;
      evaluations = !evaluations;
      physical_evaluations = !evaluations;
      per_column = List.rev !per_column;
      pruning = List.rev !pruning;
    } )
