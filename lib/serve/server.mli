(** Multi-session socket server over the single-session serving core.

    Listens on a Unix-domain socket or TCP address ({!Listener} syntax),
    accepts any number of concurrent connections, and multiplexes their
    sessions across a fixed pool of worker domains. Each connection opens
    with a {!Wire.hello} handshake naming its session; the session gets
    its own checkpoint directory ([checkpoint_root/ID]). Metric names are
    server-wide, never per session id, so the process-global registry
    stays bounded however many session ids clients send.

    Concurrency model: one reader {e thread} per connection parses lines
    into a bounded queue (capacity [queue_depth]; a full queue blocks the
    reader — backpressure all the way to the client's writes), while
    [workers] {e domains} drain the queues, at most one drain per
    connection at a time, in queue order — so every session's decision
    log is byte-identical to the same stream served by single-session
    stdin mode.

    Fault model: a fatal session error aborts only that session (the
    client sees [{"ok":false,...}]); killing the whole server loses
    nothing — every session resumes from its own checkpoint directory
    via the [resume] handshake. *)

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
  max_sessions : int;  (** admission limit on concurrent sessions *)
  queue_depth : int;  (** per-connection request-queue bound *)
  workers : int;  (** serving domains (>= 1) *)
}

type t

(** [start cfg] binds, spawns the worker pool and the accept thread, and
    returns immediately. Raises [Failure] on bad addresses or bind
    errors, [Invalid_argument] on nonsensical [cfg] numbers. *)
val start : config -> t

(** [listening t] renders the bound address (diagnostics). *)
val listening : t -> string

(** [active_sessions t] counts currently connected sessions. *)
val active_sessions : t -> int

(** [stop t] stops accepting, waits for every live connection to finish
    (clients half-close when done), then tears down the pool and removes
    a Unix socket file. *)
val stop : t -> unit

(** [run cfg] is [start] plus a banner on stderr, then blocks forever —
    the CLI entry point; durability across SIGKILL is the checkpoint
    layer's job. *)
val run : config -> unit
