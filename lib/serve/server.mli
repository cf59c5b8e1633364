(** Multi-session socket server over the single-session serving core.

    Listens on a Unix-domain socket or TCP address ({!Listener} syntax),
    accepts any number of concurrent connections, and serves their
    sessions from [workers] event loops. Each connection opens with a
    {!Wire.hello} handshake naming its session; the session gets its own
    checkpoint directory ([checkpoint_root/ID]). Metric names are
    server-wide, never per session id, so the process-global registry
    stays bounded however many session ids clients send.

    Concurrency model: each loop is one [Unix.select] loop on its own
    domain over nonblocking sockets. The loops race on the listener, one
    accept per turn, and the loop that accepts a connection reads, steps
    and answers it for its whole life, so no request crosses domains and
    no session is rebalanced; the session-id registry is the only state
    they share. Per turn a connection gets at most one 64 KiB read and
    32 stepped lines, and its replies go out in one [write]. A
    connection is not read while it holds an unstepped
    line or unsent replies, so a client that stops reading stalls only
    its own session. Sessions open through {!Session.start} and step
    through {!Session.handle_batch}, exactly as single-session stdin
    mode does — so every session's decision log is byte-identical to the
    same stream served on stdin.

    Limits: a request line (or hello) longer than 64 KiB aborts its
    session with [{"ok":false,"error":"line longer than 65536 bytes"}].
    [select] handles descriptors below FD_SETSIZE (1024) only, so a
    connection accepted on a higher descriptor is refused with a message
    naming the descriptor limit. A checkpointed session holds three
    descriptors (socket, WAL, decision log), so about 340 checkpointed
    sessions reach that cap, whatever [max_sessions] says. An accept
    error (EMFILE and the like) is logged and the listener rests for
    100 ms; the server keeps serving.

    Fault model: any exception a step raises aborts only that session
    (the client sees [{"ok":false,...}] and no done record); killing the
    whole server loses nothing — every session resumes from its own
    checkpoint directory via the [resume] handshake. *)

type config = {
  listen : string;  (** {!Listener.parse} syntax *)
  algo : string;  (** default algorithm; hellos may override *)
  env : Omflp_instance.Instance.t;
      (** supplies the metric and cost function; its request list is
          ignored *)
  instance_md5 : string;  (** pins checkpoints to this environment *)
  checkpoint_root : string option;
      (** sessions checkpoint under [root/ID]; [None] disables
          checkpointing (hellos asking for it are refused) *)
  snapshot_every : int;
  seed : int;  (** default RNG seed; hellos may override *)
  max_sessions : int;
      (** server-wide admission limit on sessions; for checkpointed
          sessions the descriptor cap (about 340) binds first *)
  workers : int;  (** event loops, one domain each (>= 1) *)
}

type t

(** [start cfg] binds, spawns [workers] loop domains, and returns
    immediately. Raises [Failure] on bad addresses or bind errors,
    [Invalid_argument] on nonsensical [cfg] numbers. *)
val start : config -> t

(** [listening t] renders the bound address (diagnostics). *)
val listening : t -> string

(** [active_sessions t] counts currently connected sessions. *)
val active_sessions : t -> int

(** [stop t] stops accepting (shutting the listener down wakes every
    loop), waits for every live connection to finish (clients half-close
    when done), joins the loops, and removes a Unix socket file. *)
val stop : t -> unit

(** [run cfg] binds, prints a banner on stderr, spawns [workers - 1]
    loop domains and runs one loop on the calling domain — so
    [workers = 1] is a one-domain process — and never returns: the CLI
    entry point; durability across SIGKILL is the checkpoint layer's
    job. *)
val run : config -> unit
