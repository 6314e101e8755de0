let serial = Atomic.make 0

let write path f =
  let tmp =
    Printf.sprintf "%s.%d-%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add serial 1)
  in
  let oc = open_out tmp in
  try
    f oc;
    close_out oc;
    Sys.rename tmp path
  with e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
