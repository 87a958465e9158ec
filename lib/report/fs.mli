(** Filesystem helpers shared by every writer of output files. *)

val mkdir_p : string -> unit
(** [mkdir_p dir] creates [dir] and any missing parents (mode [0o755]).
    A component that already exists as a directory is left alone; any
    other failure — a regular file in the way, a permission error —
    raises [Sys_error]. [""], ["."] and ["/"] are no-ops. *)
