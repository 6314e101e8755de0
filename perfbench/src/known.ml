(* The known answers every verdict is checked against.  They are written
   here by hand from the paper reproduction's documented results (table
   sizes, the 74-invariant suite, the three-assignment deadlock
   narrative, the section-5 mapping and the model-checker state counts);
   no verdict is captured from a run of the program.  A verdict that
   differs from its entry counts as a failed operation.  The candidate
   totals are the solver's logical E4 counts (D alone is 170,447), which
   the generator must keep identical; the traced cold-cli run uses them
   to prove that each command paid for generation. *)

type t = {
  table_rows : (string * int) list;
  invariants : int;  (** invariants run per suite *)
  buggy_d : (string * string) list;
      (** E11 seeded directory bug -> the invariant that must fail *)
  deadlock : (string * (int * int * int)) list;
      (** assignment -> channels, VCG edges, cycles *)
  ed_rows : int;
  ed_cols : int;
  impl_rows : (string * int) list;  (** the nine implementation tables *)
  searches : (string * (int * int)) list;
      (** clean exhaustive search -> states, transitions *)
  stale_trace_steps : int;  (** length of the stale-data counterexample *)
  candidates : (string * int) list;
      (** cold command -> solver candidates when it generates every
          table it needs from scratch *)
}

let v =
  {
    table_rows =
      [ "D", 1156; "M", 8; "C", 21; "N", 18; "RAC", 19; "IO", 4; "PIF", 23;
        "LK", 296 ];
    invariants = 74;
    buggy_d =
      [
        "drop-busy-retry", "x-request-coverage";
        "grant-inc", "d-ownership-transfer";
        "dealloc-no-completion", "d-dealloc-only-on-completion";
        "drop-idone-sd", "d-busy-progress";
      ];
    deadlock =
      [ "initial", (4, 11, 7); "vc4", (5, 13, 3); "debugged", (5, 9, 0) ];
    ed_rows = 2249;
    ed_cols = 35;
    impl_rows =
      [
        "Request_locmsg", 2161; "Request_remmsg", 2161;
        "Request_memmsg", 2161; "Request_dirupd", 2161;
        "Request_bdirupd", 2161; "Response_locmsg", 88;
        "Response_memmsg", 88; "Response_dirupd", 88;
        "Response_bdirupd", 88;
      ];
    searches =
      [
        "2node", (1_995, 5_556);
        "2node-evict", (16_188, 54_020);
        "3node", (78_910, 317_349);
      ];
    stale_trace_steps = 19;
    candidates =
      [
        "generate", 187_516; "invariants", 187_516; "deadlock", 174_417;
        "map", 187_516; "mcheck", 173_617;
      ];
  }
