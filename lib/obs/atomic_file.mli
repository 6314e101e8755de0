(** Crash-safe artifact writes.

    Manifests, traces and benchmark snapshots are read back by other
    commands, so a reader must never see half of one.  {!write} fills a
    temporary file next to the target and renames it into place: a kill
    mid-write leaves the previous file (or none) and a stray temporary,
    never a truncated artifact. *)

val write : string -> (out_channel -> unit) -> unit
(** [write path f] runs [f] on a fresh channel to a temporary file in
    [path]'s directory, closes it, and renames it to [path] (replacing
    any existing file).  If [f], the close or the rename raises, the
    temporary is removed, [path] is left untouched, and the exception is
    re-raised. *)
