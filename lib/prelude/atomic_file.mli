(** Atomic (write-temp-then-rename) file replacement.

    Persistence paths that other runs replay — the check corpus, serve
    checkpoints, baselines — must never leave a half-written file behind:
    a crash mid-write would poison the next reader with a torn prefix
    that parses as garbage. [write] stages the content in a temporary
    file in the {e same} directory (rename across filesystems is not
    atomic) and renames it over the destination only after the writer
    completed and the channel was flushed.

    Neither the file nor its directory is fsynced: a replacement survives
    the writing process being killed (SIGKILL), since the kernel already
    holds the flushed bytes, but not a power loss or an OS crash. *)

(** [write path writer] runs [writer oc] against a temporary channel and
    atomically replaces [path] with the result. On any exception the
    temporary file is removed and [path] is left untouched. *)
val write : string -> (out_channel -> unit) -> unit

(** [write_string path s] is [write] of one string. *)
val write_string : string -> string -> unit
