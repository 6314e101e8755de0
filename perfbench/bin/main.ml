(* Time-to-verdict benchmark: one workload, one seed, one run.
   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
                   --asura PATH
   The last line of standard output is the run's JSON result. *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let asura = ref "" in
  Arg.parse
    [
      "--workload", Arg.Set_string workload, "NAME";
      "--seed", Arg.Set_int seed, "N";
      "--seconds", Arg.Set_float seconds, "S";
      "--trace", Arg.Set_int trace, "0|1";
      "--asura", Arg.Set_string asura, "PATH to the built asura executable";
    ]
    (fun a -> raise (Arg.Bad a))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --asura PATH";
  let set =
    List.filter (fun v -> Sys.getenv_opt v <> None) Perfbench.Bench.pinned_vars
  in
  if set <> [] then begin
    prerr_endline ("unset before running: " ^ String.concat " " set);
    exit 2
  end;
  match Perfbench.Harness.workload_of_name !workload with
  | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  | Some w ->
      if w = Perfbench.Harness.Cold_cli && not (Sys.file_exists !asura) then begin
        prerr_endline "--asura must name the built executable";
        exit 2
      end;
      let o =
        Perfbench.Bench.run ~asura:!asura ~seed:!seed ~seconds:!seconds
          ~trace:(!trace = 1) w
      in
      print_endline (Obs.Json.to_string (Perfbench.Bench.to_json o));
      exit (if o.failed = 0 then 0 else 1)
